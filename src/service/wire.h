#ifndef HDIDX_SERVICE_WIRE_H_
#define HDIDX_SERVICE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/prediction_service.h"
#include "service/protocol.h"

namespace hdidx::service::wire {

/// The service's transport: length-prefixed binary frames over a byte
/// stream (TCP), designed for pipelining — a client may write any number
/// of request frames before reading responses, and responses to predict
/// requests may arrive out of order (match them by `id`).
///
/// Frame layout (all integers little-endian; this header + wire.cc are the
/// only place in the tree that touches byte order — hdidx_lint's
/// `byteswap` rule enforces that):
///
///   offset  size  field
///        0     2  magic     0x4448 ("HD" on the wire)
///        2     1  version   kVersion (currently 1)
///        3     1  op        WireOp
///        4     2  flags     kFlag* bits
///        6     2  reserved  must be zero
///        8     4  length    payload bytes following the header
///       12     8  id        caller-chosen request id, echoed in responses
///       20     -  payload   op-specific (see wire.cc encoders)
///
/// Doubles travel as their raw IEEE-754 bits (8 bytes, little-endian), so a
/// decoded response re-encodes to the served bytes exactly. The canonical
/// wire bytes of a prediction are its EncodePredictResponse with the serving
/// metadata (id, shard, latency, cache flags, served I/O) cleared: the
/// determinism contract is byte-identity of those bytes for every shard
/// count and arrival order. Per-query access vectors are appended as one
/// contiguous f64 array — memcpy in and out on little-endian hosts.
///
/// Error handling is two-level: a frame whose *header* is malformed (bad
/// magic/version/reserved, oversized length) poisons the stream — the
/// server answers with one kError frame (id 0) and closes the connection.
/// A well-framed payload that fails to decode only poisons that request —
/// the server answers with a kError frame echoing the id and keeps serving
/// the connection.

inline constexpr uint16_t kMagic = 0x4448;
inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 20;
/// Upper bound a server accepts for `length` (guards allocation on
/// garbage headers). 16 MiB fits ~2M per-query doubles.
inline constexpr size_t kDefaultMaxPayload = 16u << 20;
/// Most per-query accesses one predict response can carry: its fixed
/// fields take 92 payload bytes, each query 8 more. ValidateRequest refuses
/// a per_query request for more queries, and decoders refuse larger counts.
inline constexpr size_t kMaxPerQueryCount =
    (kDefaultMaxPayload - 92) / sizeof(double);

enum class WireOp : uint8_t {
  kPredict = 0,
  kLoad = 1,
  kStats = 2,
  kShutdown = 3,
  /// Response-only: protocol or per-request decode error.
  kError = 4,
};

/// Frame flag bits.
inline constexpr uint16_t kFlagResponse = 1u << 0;
inline constexpr uint16_t kFlagOk = 1u << 1;
/// Predict: the per-query f64 array is present (request: asks for it).
inline constexpr uint16_t kFlagPerQuery = 1u << 2;
inline constexpr uint16_t kFlagCacheHit = 1u << 3;
inline constexpr uint16_t kFlagWorkloadCacheHit = 1u << 4;
/// Response was load-shed by admission control; payload carries a
/// retry-after hint instead of a result.
inline constexpr uint16_t kFlagShed = 1u << 5;

struct FrameHeader {
  uint8_t version = kVersion;
  WireOp op = WireOp::kPredict;
  uint16_t flags = 0;
  uint32_t length = 0;
  uint64_t id = 0;
};

// --- byte-order primitives (the tree's only byte-swapping code) ---------

void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
/// Raw IEEE-754 bits, little-endian.
void AppendF64(std::string* out, double v);
/// u16 length prefix + bytes. Length must fit 16 bits (HDIDX_CHECK).
void AppendString(std::string* out, std::string_view s);
/// Contiguous f64 array (no count prefix — the caller encodes the count).
/// Single memcpy on little-endian hosts.
void AppendF64Array(std::string* out, const double* values, size_t count);

/// Big-endian 16-bit conversion for sockaddr port fields, so the sockets
/// layer never byte-swaps by hand.
uint16_t HostToNet16(uint16_t v);

/// Sequential reader over a payload. All Read* return false (and stay
/// false) once the payload is exhausted or a length prefix overruns it.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadF64(double* v);
  bool ReadString(std::string* v);
  bool ReadF64Array(size_t count, std::vector<double>* v);

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Take(size_t n, const char** p);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- framing ------------------------------------------------------------

/// Serializes header + payload into one wire frame.
std::string EncodeFrame(WireOp op, uint16_t flags, uint64_t id,
                        std::string_view payload);

enum class FrameStatus : uint8_t {
  /// The buffer holds no complete frame yet; read more bytes.
  kNeedMore = 0,
  /// One frame extracted; `*consumed` bytes may be discarded.
  kFrame = 1,
  /// The stream is not speaking this protocol (bad magic/version/reserved
  /// or oversized length) — unrecoverable, close the connection.
  kError = 2,
};

/// Extracts the next frame from an accumulation buffer. On kFrame,
/// `*header` and `*payload` (a view into `buffer`) are valid and
/// `*consumed` is the frame's total size. On kError, `*error` says why.
FrameStatus NextFrame(std::string_view buffer, size_t max_payload,
                      size_t* consumed, FrameHeader* header,
                      std::string_view* payload, std::string* error);

// --- request frames -----------------------------------------------------

std::string EncodePredictRequest(const ServiceRequest& request);
std::string EncodeLoadRequest(uint64_t id, std::string_view dataset,
                              std::string_view path);
std::string EncodeStatsRequest(uint64_t id);
std::string EncodeShutdownRequest(uint64_t id);

/// Decodes any request frame into a RequestLine (predict id/per_query come
/// from the header). Fails on response flags, kError op, or payload
/// mismatch.
bool DecodeRequest(const FrameHeader& header, std::string_view payload,
                   RequestLine* out, std::string* error);

/// Reads just the leading dataset string of a predict request payload (the
/// routing key — enough for a reactor to pick the target shard without
/// decoding the rest). Returns false when the payload is too short to hold
/// it; full validation stays with DecodeRequest on the worker.
bool PeekPredictDataset(std::string_view payload, std::string* dataset);

// --- response frames ----------------------------------------------------

std::string EncodePredictResponse(const ServiceResponse& response,
                                  bool per_query);
std::string EncodeShedResponse(uint64_t id, uint32_t shard,
                               uint32_t retry_after_ms);
std::string EncodeErrorFrame(uint64_t id, std::string_view message);
std::string EncodeShutdownResponse(uint64_t id, uint64_t served);
std::string EncodeStatsResponse(uint64_t id, const ServiceMetrics& metrics);

/// Load outcome, both directions.
struct LoadResult {
  bool ok = false;
  std::string dataset;
  uint64_t points = 0;
  uint32_t dims = 0;
  uint32_t shard = 0;
  std::string error;
};
std::string EncodeLoadResponse(uint64_t id, const LoadResult& result);

/// A decoded predict response. When `shed`, only id/shard/retry_after_ms
/// are meaningful; otherwise `response` carries everything the server's
/// ServiceResponse did (per-query accesses zero-filled to their count
/// when the array was not requested, so the canonical wire bytes
/// round-trip).
struct PredictReply {
  ServiceResponse response;
  bool per_query = false;
  bool shed = false;
  uint32_t retry_after_ms = 0;
};

bool DecodePredictResponse(const FrameHeader& header, std::string_view payload,
                           PredictReply* out, std::string* error);
bool DecodeLoadResponse(const FrameHeader& header, std::string_view payload,
                        LoadResult* out, std::string* error);
bool DecodeStatsResponse(const FrameHeader& header, std::string_view payload,
                         ServiceMetrics* out, std::string* error);
bool DecodeShutdownResponse(const FrameHeader& header,
                            std::string_view payload, uint64_t* served,
                            std::string* error);
bool DecodeErrorFrame(const FrameHeader& header, std::string_view payload,
                      std::string* message, std::string* error);

}  // namespace hdidx::service::wire

#endif  // HDIDX_SERVICE_WIRE_H_
