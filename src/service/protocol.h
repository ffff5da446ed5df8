#ifndef HDIDX_SERVICE_PROTOCOL_H_
#define HDIDX_SERVICE_PROTOCOL_H_

#include <string>

#include "service/prediction_service.h"

namespace hdidx::service {

/// A decoded request, as wire::DecodeRequest fills it from a request frame.
struct RequestLine {
  enum class Op { kLoad, kPredict, kStats, kShutdown };
  Op op = Op::kPredict;
  /// Valid when op == kPredict.
  ServiceRequest predict;
  /// Valid when op == kLoad.
  std::string load_dataset;
  std::string load_path;
};

/// Serializes only the deterministic payload (the result, or an error
/// object when !ok) as one JSON object — the byte string the determinism
/// tests compare. It is bit-identical for a given request regardless of
/// shard count, arrival order, or cache state (doubles are printed with
/// %.17g, which round-trips IEEE doubles exactly).
std::string SerializeResult(const ServiceResponse& response, bool per_query);

/// Serializes a metrics snapshot as a JSON stats object.
std::string SerializeMetrics(const ServiceMetrics& metrics);

/// Escapes a string for embedding in JSON output (adds the quotes).
std::string JsonQuote(const std::string& s);

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_PROTOCOL_H_
