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

/// Serializes a metrics snapshot as a JSON stats object.
std::string SerializeMetrics(const ServiceMetrics& metrics);

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_PROTOCOL_H_
