#include "service/wire.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace hdidx::service::wire {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

// --- byte-order primitives ----------------------------------------------
//
// Everything below spells byte order out as shifts against a little-endian
// wire layout; no htonl/bswap anywhere, so the same code is correct (and
// identically tested) on either host endianness. On little-endian hosts
// the f64 array paths collapse to memcpy.

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void AppendString(std::string* out, std::string_view s) {
  HDIDX_CHECK(s.size() <= 0xffff)
      << "wire string too long: " << s.size() << " bytes";
  AppendU16(out, static_cast<uint16_t>(s.size()));
  out->append(s.data(), s.size());
}

void AppendF64Array(std::string* out, const double* values, size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    // IEEE-754 bits are already in wire order: one bulk copy.
    out->append(reinterpret_cast<const char*>(values),
                count * sizeof(double));
  } else {
    for (size_t i = 0; i < count; ++i) AppendF64(out, values[i]);
  }
}

uint16_t HostToNet16(uint16_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else {
    return static_cast<uint16_t>((v >> 8) | (v << 8));
  }
}

bool WireReader::Take(size_t n, const char** p) {
  if (!ok_ || n > bytes_.size() - pos_) {
    ok_ = false;
    return false;
  }
  *p = bytes_.data() + pos_;
  pos_ += n;
  return true;
}

bool WireReader::ReadU8(uint8_t* v) {
  const char* p = nullptr;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(p[0]);
  return true;
}

bool WireReader::ReadU16(uint16_t* v) {
  const char* p = nullptr;
  if (!Take(2, &p)) return false;
  *v = static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                             (static_cast<uint16_t>(
                                  static_cast<uint8_t>(p[1]))
                              << 8));
  return true;
}

bool WireReader::ReadU32(uint32_t* v) {
  const char* p = nullptr;
  if (!Take(4, &p)) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool WireReader::ReadU64(uint64_t* v) {
  const char* p = nullptr;
  if (!Take(8, &p)) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool WireReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool WireReader::ReadString(std::string* v) {
  uint16_t len = 0;
  if (!ReadU16(&len)) return false;
  const char* p = nullptr;
  if (!Take(len, &p)) return false;
  v->assign(p, len);
  return true;
}

bool WireReader::ReadF64Array(size_t count, std::vector<double>* v) {
  // Bounds-check before any multiply so a garbage count cannot overflow.
  if (!ok_ || count > (bytes_.size() - pos_) / sizeof(double)) {
    ok_ = false;
    return false;
  }
  v->resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(v->data(), bytes_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return true;
  } else {
    for (size_t i = 0; i < count; ++i) {
      if (!ReadF64(&(*v)[i])) return false;
    }
    return true;
  }
}

// --- framing ------------------------------------------------------------

std::string EncodeFrame(WireOp op, uint16_t flags, uint64_t id,
                        std::string_view payload) {
  HDIDX_CHECK(payload.size() <= kDefaultMaxPayload)
      << "frame payload too large: " << payload.size();
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  AppendU16(&out, kMagic);
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(op));
  AppendU16(&out, flags);
  AppendU16(&out, 0);  // reserved
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  AppendU64(&out, id);
  out.append(payload.data(), payload.size());
  return out;
}

FrameStatus NextFrame(std::string_view buffer, size_t max_payload,
                      size_t* consumed, FrameHeader* header,
                      std::string_view* payload, std::string* error) {
  if (buffer.size() < kHeaderBytes) return FrameStatus::kNeedMore;
  WireReader reader(buffer.substr(0, kHeaderBytes));
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t op = 0;
  uint16_t flags = 0;
  uint16_t reserved = 0;
  uint32_t length = 0;
  uint64_t id = 0;
  reader.ReadU16(&magic);
  reader.ReadU8(&version);
  reader.ReadU8(&op);
  reader.ReadU16(&flags);
  reader.ReadU16(&reserved);
  reader.ReadU32(&length);
  reader.ReadU64(&id);
  HDIDX_DCHECK(reader.AtEnd());
  if (magic != kMagic) {
    Fail(error, "bad magic: not the hdidx wire protocol");
    return FrameStatus::kError;
  }
  if (version != kVersion) {
    Fail(error,
         "unsupported wire version " + std::to_string(version) +
             " (this server speaks " + std::to_string(kVersion) + ")");
    return FrameStatus::kError;
  }
  if (reserved != 0) {
    Fail(error, "nonzero reserved header bytes");
    return FrameStatus::kError;
  }
  if (op > static_cast<uint8_t>(WireOp::kError)) {
    Fail(error, "unknown op " + std::to_string(op));
    return FrameStatus::kError;
  }
  if (length > max_payload) {
    Fail(error, "oversized frame: " + std::to_string(length) +
                    " payload bytes (cap " + std::to_string(max_payload) +
                    ")");
    return FrameStatus::kError;
  }
  if (buffer.size() < kHeaderBytes + length) return FrameStatus::kNeedMore;
  header->version = version;
  header->op = static_cast<WireOp>(op);
  header->flags = flags;
  header->length = length;
  header->id = id;
  *payload = buffer.substr(kHeaderBytes, length);
  *consumed = kHeaderBytes + length;
  return FrameStatus::kFrame;
}

// --- request frames -----------------------------------------------------

std::string EncodePredictRequest(const ServiceRequest& request) {
  std::string payload;
  AppendString(&payload, request.dataset);
  AppendString(&payload, request.method);
  AppendU64(&payload, request.memory);
  AppendU64(&payload, request.num_queries);
  AppendU64(&payload, request.k);
  AppendU64(&payload, request.seed);
  AppendU64(&payload, request.page_bytes);
  const uint16_t flags = request.per_query ? kFlagPerQuery : 0;
  return EncodeFrame(WireOp::kPredict, flags, request.id, payload);
}

std::string EncodeLoadRequest(uint64_t id, std::string_view dataset,
                              std::string_view path) {
  std::string payload;
  AppendString(&payload, dataset);
  AppendString(&payload, path);
  return EncodeFrame(WireOp::kLoad, 0, id, payload);
}

std::string EncodeStatsRequest(uint64_t id) {
  return EncodeFrame(WireOp::kStats, 0, id, {});
}

std::string EncodeShutdownRequest(uint64_t id) {
  return EncodeFrame(WireOp::kShutdown, 0, id, {});
}

bool PeekPredictDataset(std::string_view payload, std::string* dataset) {
  WireReader reader(payload);
  return reader.ReadString(dataset);
}

bool DecodeRequest(const FrameHeader& header, std::string_view payload,
                   RequestLine* out, std::string* error) {
  if ((header.flags & kFlagResponse) != 0) {
    return Fail(error, "response flag set on a request frame");
  }
  *out = RequestLine{};
  WireReader reader(payload);
  switch (header.op) {
    case WireOp::kPredict: {
      out->op = RequestLine::Op::kPredict;
      ServiceRequest& r = out->predict;
      uint64_t memory = 0;
      uint64_t num_queries = 0;
      uint64_t k = 0;
      uint64_t page_bytes = 0;
      if (!reader.ReadString(&r.dataset) || !reader.ReadString(&r.method) ||
          !reader.ReadU64(&memory) || !reader.ReadU64(&num_queries) ||
          !reader.ReadU64(&k) || !reader.ReadU64(&r.seed) ||
          !reader.ReadU64(&page_bytes) || !reader.AtEnd()) {
        return Fail(error, "malformed predict payload");
      }
      r.memory = static_cast<size_t>(memory);
      r.num_queries = static_cast<size_t>(num_queries);
      r.k = static_cast<size_t>(k);
      r.page_bytes = static_cast<size_t>(page_bytes);
      r.id = header.id;
      r.per_query = (header.flags & kFlagPerQuery) != 0;
      if (r.dataset.empty()) return Fail(error, "predict needs 'dataset'");
      return true;
    }
    case WireOp::kLoad:
      out->op = RequestLine::Op::kLoad;
      if (!reader.ReadString(&out->load_dataset) ||
          !reader.ReadString(&out->load_path) || !reader.AtEnd()) {
        return Fail(error, "malformed load payload");
      }
      if (out->load_dataset.empty()) {
        return Fail(error, "load needs 'dataset'");
      }
      if (out->load_path.empty()) return Fail(error, "load needs 'path'");
      return true;
    case WireOp::kStats:
      out->op = RequestLine::Op::kStats;
      if (!payload.empty()) return Fail(error, "stats takes no payload");
      return true;
    case WireOp::kShutdown:
      out->op = RequestLine::Op::kShutdown;
      if (!payload.empty()) return Fail(error, "shutdown takes no payload");
      return true;
    case WireOp::kError:
      return Fail(error, "op kError is response-only");
  }
  return Fail(error, "unknown op");
}

// --- response frames ----------------------------------------------------

std::string EncodePredictResponse(const ServiceResponse& response,
                                  bool per_query) {
  uint16_t flags = kFlagResponse;
  if (response.ok) flags |= kFlagOk;
  if (per_query) flags |= kFlagPerQuery;
  if (response.cache_hit) flags |= kFlagCacheHit;
  if (response.workload_cache_hit) flags |= kFlagWorkloadCacheHit;
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(response.shard));
  AppendF64(&payload, response.latency_ms);
  if (response.ok) {
    const core::PredictionResult& r = response.result;
    AppendU64(&payload, response.served_io.page_seeks);
    AppendU64(&payload, response.served_io.page_transfers);
    AppendF64(&payload, r.avg_leaf_accesses);
    AppendU64(&payload, r.per_query_accesses.size());
    AppendU64(&payload, r.num_predicted_leaves);
    AppendU64(&payload, r.h_upper);
    AppendF64(&payload, r.sigma_upper);
    AppendF64(&payload, r.sigma_lower);
    AppendU64(&payload, r.io.page_seeks);
    AppendU64(&payload, r.io.page_transfers);
    if (per_query) {
      AppendF64Array(&payload, r.per_query_accesses.data(),
                     r.per_query_accesses.size());
    }
  } else {
    AppendString(&payload, response.error);
  }
  return EncodeFrame(WireOp::kPredict, flags, response.id, payload);
}

std::string EncodeShedResponse(uint64_t id, uint32_t shard,
                               uint32_t retry_after_ms) {
  std::string payload;
  AppendU32(&payload, shard);
  AppendU32(&payload, retry_after_ms);
  return EncodeFrame(WireOp::kPredict, kFlagResponse | kFlagShed, id,
                     payload);
}

std::string EncodeErrorFrame(uint64_t id, std::string_view message) {
  std::string payload;
  AppendString(&payload, message);
  return EncodeFrame(WireOp::kError, kFlagResponse, id, payload);
}

std::string EncodeShutdownResponse(uint64_t id, uint64_t served) {
  std::string payload;
  AppendU64(&payload, served);
  return EncodeFrame(WireOp::kShutdown, kFlagResponse | kFlagOk, id,
                     payload);
}

std::string EncodeStatsResponse(uint64_t id, const ServiceMetrics& metrics) {
  std::string payload;
  AppendU64(&payload, metrics.requests);
  AppendU64(&payload, metrics.errors);
  AppendU64(&payload, metrics.result_hits);
  AppendU64(&payload, metrics.result_misses);
  AppendU64(&payload, metrics.result_evictions);
  AppendU64(&payload, metrics.workload_hits);
  AppendU64(&payload, metrics.workload_misses);
  AppendU64(&payload, metrics.workload_evictions);
  AppendU64(&payload, metrics.shed_total);
  AppendU64(&payload, metrics.shards.size());
  for (const ServiceMetrics::Shard& shard : metrics.shards) {
    AppendU64(&payload, shard.requests);
    AppendF64(&payload, shard.p50_ms);
    AppendF64(&payload, shard.p90_ms);
    AppendF64(&payload, shard.p99_ms);
    AppendU64(&payload, shard.queue_depth);
    AppendU64(&payload, shard.peak_queue_depth);
    AppendU64(&payload, shard.shed);
  }
  return EncodeFrame(WireOp::kStats, kFlagResponse | kFlagOk, id, payload);
}

std::string EncodeLoadResponse(uint64_t id, const LoadResult& result) {
  uint16_t flags = kFlagResponse;
  if (result.ok) flags |= kFlagOk;
  std::string payload;
  AppendString(&payload, result.dataset);
  if (result.ok) {
    AppendU64(&payload, result.points);
    AppendU32(&payload, result.dims);
    AppendU32(&payload, result.shard);
  } else {
    AppendString(&payload, result.error);
  }
  return EncodeFrame(WireOp::kLoad, flags, id, payload);
}

bool DecodePredictResponse(const FrameHeader& header, std::string_view payload,
                           PredictReply* out, std::string* error) {
  if (header.op != WireOp::kPredict ||
      (header.flags & kFlagResponse) == 0) {
    return Fail(error, "not a predict response frame");
  }
  *out = PredictReply{};
  out->response.id = header.id;
  WireReader reader(payload);
  if ((header.flags & kFlagShed) != 0) {
    out->shed = true;
    uint32_t shard = 0;
    if (!reader.ReadU32(&shard) || !reader.ReadU32(&out->retry_after_ms) ||
        !reader.AtEnd()) {
      return Fail(error, "malformed shed payload");
    }
    out->response.shard = shard;
    return true;
  }
  out->per_query = (header.flags & kFlagPerQuery) != 0;
  out->response.ok = (header.flags & kFlagOk) != 0;
  out->response.cache_hit = (header.flags & kFlagCacheHit) != 0;
  out->response.workload_cache_hit =
      (header.flags & kFlagWorkloadCacheHit) != 0;
  uint32_t shard = 0;
  if (!reader.ReadU32(&shard) || !reader.ReadF64(&out->response.latency_ms)) {
    return Fail(error, "malformed predict response payload");
  }
  out->response.shard = shard;
  if (!out->response.ok) {
    if (!reader.ReadString(&out->response.error) || !reader.AtEnd()) {
      return Fail(error, "malformed predict error payload");
    }
    return true;
  }
  core::PredictionResult& r = out->response.result;
  uint64_t per_query_count = 0;
  uint64_t num_predicted_leaves = 0;
  uint64_t h_upper = 0;
  if (!reader.ReadU64(&out->response.served_io.page_seeks) ||
      !reader.ReadU64(&out->response.served_io.page_transfers) ||
      !reader.ReadF64(&r.avg_leaf_accesses) ||
      !reader.ReadU64(&per_query_count) ||
      !reader.ReadU64(&num_predicted_leaves) || !reader.ReadU64(&h_upper) ||
      !reader.ReadF64(&r.sigma_upper) || !reader.ReadF64(&r.sigma_lower) ||
      !reader.ReadU64(&r.io.page_seeks) ||
      !reader.ReadU64(&r.io.page_transfers)) {
    return Fail(error, "malformed predict result payload");
  }
  if (per_query_count > kMaxPerQueryCount) {
    return Fail(error, "implausible per-query count");
  }
  r.num_predicted_leaves = static_cast<size_t>(num_predicted_leaves);
  r.h_upper = static_cast<size_t>(h_upper);
  if (out->per_query) {
    if (!reader.ReadF64Array(static_cast<size_t>(per_query_count),
                             &r.per_query_accesses)) {
      return Fail(error, "malformed per-query array");
    }
  } else {
    // The count still travels so the canonical wire bytes (and anything
    // keyed on the vector's size) round-trip exactly.
    r.per_query_accesses.assign(static_cast<size_t>(per_query_count), 0.0);
  }
  if (!reader.AtEnd()) return Fail(error, "trailing predict response bytes");
  return true;
}

bool DecodeLoadResponse(const FrameHeader& header, std::string_view payload,
                        LoadResult* out, std::string* error) {
  if (header.op != WireOp::kLoad || (header.flags & kFlagResponse) == 0) {
    return Fail(error, "not a load response frame");
  }
  *out = LoadResult{};
  out->ok = (header.flags & kFlagOk) != 0;
  WireReader reader(payload);
  if (!reader.ReadString(&out->dataset)) {
    return Fail(error, "malformed load response payload");
  }
  if (out->ok) {
    if (!reader.ReadU64(&out->points) || !reader.ReadU32(&out->dims) ||
        !reader.ReadU32(&out->shard) || !reader.AtEnd()) {
      return Fail(error, "malformed load response payload");
    }
  } else if (!reader.ReadString(&out->error) || !reader.AtEnd()) {
    return Fail(error, "malformed load error payload");
  }
  return true;
}

bool DecodeStatsResponse(const FrameHeader& header, std::string_view payload,
                         ServiceMetrics* out, std::string* error) {
  if (header.op != WireOp::kStats || (header.flags & kFlagResponse) == 0) {
    return Fail(error, "not a stats response frame");
  }
  *out = ServiceMetrics{};
  WireReader reader(payload);
  uint64_t num_shards = 0;
  if (!reader.ReadU64(&out->requests) || !reader.ReadU64(&out->errors) ||
      !reader.ReadU64(&out->result_hits) ||
      !reader.ReadU64(&out->result_misses) ||
      !reader.ReadU64(&out->result_evictions) ||
      !reader.ReadU64(&out->workload_hits) ||
      !reader.ReadU64(&out->workload_misses) ||
      !reader.ReadU64(&out->workload_evictions) ||
      !reader.ReadU64(&out->shed_total) || !reader.ReadU64(&num_shards)) {
    return Fail(error, "malformed stats payload");
  }
  // Each shard record is 7 fixed 8-byte fields; bound before allocating.
  if (num_shards > payload.size() / 56) {
    return Fail(error, "implausible shard count");
  }
  out->shards.resize(static_cast<size_t>(num_shards));
  for (ServiceMetrics::Shard& shard : out->shards) {
    uint64_t queue_depth = 0;
    uint64_t peak_queue_depth = 0;
    if (!reader.ReadU64(&shard.requests) || !reader.ReadF64(&shard.p50_ms) ||
        !reader.ReadF64(&shard.p90_ms) || !reader.ReadF64(&shard.p99_ms) ||
        !reader.ReadU64(&queue_depth) || !reader.ReadU64(&peak_queue_depth) ||
        !reader.ReadU64(&shard.shed)) {
      return Fail(error, "malformed stats shard record");
    }
    shard.queue_depth = static_cast<size_t>(queue_depth);
    shard.peak_queue_depth = static_cast<size_t>(peak_queue_depth);
  }
  if (!reader.AtEnd()) return Fail(error, "trailing stats bytes");
  return true;
}

bool DecodeShutdownResponse(const FrameHeader& header,
                            std::string_view payload, uint64_t* served,
                            std::string* error) {
  if (header.op != WireOp::kShutdown ||
      (header.flags & kFlagResponse) == 0) {
    return Fail(error, "not a shutdown response frame");
  }
  WireReader reader(payload);
  if (!reader.ReadU64(served) || !reader.AtEnd()) {
    return Fail(error, "malformed shutdown payload");
  }
  return true;
}

bool DecodeErrorFrame(const FrameHeader& header, std::string_view payload,
                      std::string* message, std::string* error) {
  if (header.op != WireOp::kError || (header.flags & kFlagResponse) == 0) {
    return Fail(error, "not an error frame");
  }
  WireReader reader(payload);
  if (!reader.ReadString(message) || !reader.AtEnd()) {
    return Fail(error, "malformed error frame payload");
  }
  return true;
}

}  // namespace hdidx::service::wire
