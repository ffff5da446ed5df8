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

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string SerializeResult(const ServiceResponse& response, bool per_query) {
  if (!response.ok) {
    return "{\"error\":" + JsonQuote(response.error) + "}";
  }
  const core::PredictionResult& r = response.result;
  std::string out = "{";
  out += "\"avg_leaf_accesses\":" + FormatDouble(r.avg_leaf_accesses);
  out += ",\"num_queries\":" + std::to_string(r.per_query_accesses.size());
  out += ",\"num_predicted_leaves\":" + std::to_string(r.num_predicted_leaves);
  out += ",\"h_upper\":" + std::to_string(r.h_upper);
  out += ",\"sigma_upper\":" + FormatDouble(r.sigma_upper);
  out += ",\"sigma_lower\":" + FormatDouble(r.sigma_lower);
  out += ",\"io_seeks\":" + std::to_string(r.io.page_seeks);
  out += ",\"io_transfers\":" + std::to_string(r.io.page_transfers);
  if (per_query) {
    out += ",\"per_query\":[";
    for (size_t i = 0; i < r.per_query_accesses.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += FormatDouble(r.per_query_accesses[i]);
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

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
