#include "service/protocol.h"

#include <cstdio>

namespace hdidx::service {

namespace {

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

std::string SerializeMetrics(const ServiceMetrics& metrics) {
  std::string out = "{\"op\":\"stats\",\"ok\":true";
  out += ",\"requests\":" + std::to_string(metrics.requests);
  out += ",\"errors\":" + std::to_string(metrics.errors);
  out += ",\"result_cache\":{\"hits\":" + std::to_string(metrics.result_hits) +
         ",\"misses\":" + std::to_string(metrics.result_misses) +
         ",\"evictions\":" + std::to_string(metrics.result_evictions) + "}";
  out += ",\"workload_cache\":{\"hits\":" +
         std::to_string(metrics.workload_hits) +
         ",\"misses\":" + std::to_string(metrics.workload_misses) +
         ",\"evictions\":" + std::to_string(metrics.workload_evictions) + "}";
  out += ",\"shed_total\":" + std::to_string(metrics.shed_total);
  out += ",\"shards\":[";
  for (size_t s = 0; s < metrics.shards.size(); ++s) {
    if (s != 0) out.push_back(',');
    const ServiceMetrics::Shard& shard = metrics.shards[s];
    out += "{\"requests\":" + std::to_string(shard.requests);
    out += ",\"p50_ms\":" + FormatDouble(shard.p50_ms);
    out += ",\"p90_ms\":" + FormatDouble(shard.p90_ms);
    out += ",\"p99_ms\":" + FormatDouble(shard.p99_ms);
    out += ",\"queue_depth\":" + std::to_string(shard.queue_depth);
    out += ",\"peak_queue_depth\":" + std::to_string(shard.peak_queue_depth);
    out += ",\"shed\":" + std::to_string(shard.shed);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace hdidx::service
