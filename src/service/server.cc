#include "service/server.h"

#include <istream>
#include <ostream>
#include <string>

#include "service/protocol.h"

namespace hdidx::service {

namespace {

/// True if the line is whitespace only (accepted and ignored).
bool IsBlank(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

size_t RunServer(std::istream& in, std::ostream& out,
                 PredictionService* service) {
  size_t served = 0;
  uint64_t next_id = 1;

  std::string line;
  while (std::getline(in, line)) {
    if (IsBlank(line)) continue;
    RequestLine request;
    std::string error;
    if (!ParseRequestLine(line, &request, &error)) {
      out << "{\"op\":\"error\",\"ok\":false,\"error\":" << JsonQuote(error)
          << "}\n";
      out.flush();
      continue;
    }
    switch (request.op) {
      case RequestLine::Op::kPredict: {
        if (!request.has_id) request.predict.id = next_id;
        ++next_id;
        const ServiceResponse response = service->ServeOnShard(
            service->registry().ShardOf(request.predict.dataset),
            request.predict);
        out << SerializePredictResponse(response, request.predict.per_query)
            << "\n";
        out.flush();
        ++served;
        break;
      }
      case RequestLine::Op::kLoad: {
        std::string load_error;
        const bool ok = service->registry().LoadFile(
            request.load_dataset, request.load_path, &load_error);
        out << "{\"op\":\"load\",\"ok\":" << (ok ? "true" : "false")
            << ",\"dataset\":" << JsonQuote(request.load_dataset);
        if (ok) {
          const data::Dataset* dataset =
              service->registry().Find(request.load_dataset);
          out << ",\"points\":" << dataset->size()
              << ",\"dims\":" << dataset->dim() << ",\"shard\":"
              << service->registry().ShardOf(request.load_dataset);
        } else {
          out << ",\"error\":" << JsonQuote(load_error);
        }
        out << "}\n";
        out.flush();
        break;
      }
      case RequestLine::Op::kStats:
        out << SerializeMetrics(service->Metrics()) << "\n";
        out.flush();
        break;
      case RequestLine::Op::kShutdown:
        out << "{\"op\":\"shutdown\",\"ok\":true,\"served\":" << served
            << "}\n";
        out.flush();
        return served;
    }
  }
  return served;
}

}  // namespace hdidx::service
