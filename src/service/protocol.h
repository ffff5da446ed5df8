#ifndef HDIDX_SERVICE_PROTOCOL_H_
#define HDIDX_SERVICE_PROTOCOL_H_

#include <map>
#include <string>

#include "service/prediction_service.h"

namespace hdidx::service {

/// The service's wire format: one JSON object per line, over stdin/stdout.
///
/// Requests are *flat* objects (string/number/bool values only; nesting is
/// rejected with a parse error) — responses may contain nested objects and
/// arrays, so a picky client can still parse them with a full JSON parser
/// while the server side stays dependency-free.
///
/// Request ops:
///   {"op":"load","dataset":"d1","path":"/data/d1.hdx"}
///   {"op":"predict","dataset":"d1","method":"resampled","memory":10000,
///    "num_queries":100,"k":10,"seed":1,"page_bytes":8192,"id":7,
///    "per_query":false}
///   {"op":"stats"}
///   {"op":"shutdown"}
///
/// Every numeric request field is optional and defaults to the
/// ServiceRequest defaults; "dataset" is required for load/predict, "path"
/// for load. Each predict line is served as it arrives; blank lines are
/// ignored.
///
/// The predict response nests the deterministic payload under "result":
///   {"op":"predict","id":7,"ok":true,"cache":"hit","shard":0,
///    "served_seeks":0,"served_transfers":0,"result":{...}}
/// Everything outside "result" is serving metadata; the "result" object is
/// bit-identical for a given request regardless of shard count, arrival
/// order, or cache state (doubles are printed with %.17g, which
/// round-trips IEEE doubles exactly).

/// A scalar JSON value as the flat parser produces it.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string str;     // kString
  double num = 0.0;    // kNumber
  bool boolean = false;  // kBool
};

/// Parses one flat JSON object (no nested objects/arrays). Returns false
/// and fills `*error` on malformed input.
bool ParseFlatJsonObject(const std::string& line,
                         std::map<std::string, JsonValue>* out,
                         std::string* error);

/// A parsed request line.
struct RequestLine {
  enum class Op { kLoad, kPredict, kStats, kShutdown };
  Op op = Op::kPredict;
  /// Valid when op == kPredict.
  ServiceRequest predict;
  /// Whether the predict line carried an explicit "id".
  bool has_id = false;
  /// Valid when op == kLoad.
  std::string load_dataset;
  std::string load_path;
};

/// Parses a request line. Returns false and fills `*error` on malformed
/// JSON, unknown op, missing required fields, or non-integral numerics.
bool ParseRequestLine(const std::string& line, RequestLine* out,
                      std::string* error);

/// Serializes only the deterministic payload (the "result" object, or an
/// error object when !ok) — the byte string the determinism tests compare.
std::string SerializeResult(const ServiceResponse& response, bool per_query);

/// Serializes a full predict response line (metadata + result), newline
/// not included.
std::string SerializePredictResponse(const ServiceResponse& response,
                                     bool per_query);

/// Serializes a metrics snapshot as a stats response line.
std::string SerializeMetrics(const ServiceMetrics& metrics);

/// Escapes a string for embedding in JSON output (adds the quotes).
std::string JsonQuote(const std::string& s);

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_PROTOCOL_H_
