#ifndef HDIDX_SERVICE_SERVER_H_
#define HDIDX_SERVICE_SERVER_H_

#include <iosfwd>

#include "service/prediction_service.h"

namespace hdidx::service {

/// Drives a PredictionService over the line protocol (service/protocol.h):
/// reads request lines from `in`, writes one response line per request to
/// `out`, until a shutdown op or end of input.
///
/// Each predict line is served as it arrives through the service's one
/// serving path, ServeOnShard on `registry().ShardOf(dataset)` — the same
/// call the async wire server's shard workers make — so responses come back
/// in request order and their `result` bytes match the wire transport's.
/// Predict lines without an explicit "id" get a running sequence number
/// starting at 1. Blank lines are accepted and ignored.
///
/// Malformed lines produce {"op":"error",...} responses and do not kill the
/// server.
///
/// Returns the number of predict requests served. `out` is flushed after
/// every response line, so interactive clients see answers promptly.
size_t RunServer(std::istream& in, std::ostream& out,
                 PredictionService* service);

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_SERVER_H_
