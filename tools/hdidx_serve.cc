// hdidx_serve: a long-running sharded prediction server.
//
// Serves the length-prefixed binary wire protocol over TCP (see
// src/service/wire.h, src/service/async_server.h): one event-loop thread
// accepts and frames, one worker thread per shard serves. On startup it
// prints one JSON ready line carrying the bound port, then serves until a
// shutdown frame:
//   {"op":"ready","transport":"wire","port":43215,"shards":2,...}
//
// Usage:
//   hdidx_serve [--shards 2] [--threads 8] [--cache-entries 64]
//               [--workload-cache-entries 32]
//               [--preload name=path[,name=path...]]
//               [--port 0] [--host 127.0.0.1]
//               [--queue-capacity 64] [--retry-after-ms 50]
//
// Datasets are loaded once (at startup via --preload, or at runtime via a
// load request) and pinned. --port 0 binds an ephemeral port — read it
// from the ready line. --queue-capacity bounds each shard's admission
// queue; predicts beyond it are answered with load-shed frames carrying
// the --retry-after-ms hint. A --port above 65535 or a --retry-after-ms
// above 4294967295 exits 2 before anything is bound. hdidx_client drives a
// whole session against a spawned server.

#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "flags.h"
#include "service/async_server.h"
#include "service/prediction_service.h"

constexpr char kUsage[] =
    "usage: hdidx_serve [--shards N] [--threads T] [--cache-entries E]\n"
    "                   [--workload-cache-entries E]\n"
    "                   [--preload name=path[,name=path...]]\n"
    "                   [--port P] [--host H]\n"
    "                   [--queue-capacity C] [--retry-after-ms MS]\n";

int main(int argc, char** argv) {
  using namespace hdidx;
  const tools::Flags flags(argc, argv,
                           {"shards", "threads", "cache-entries",
                            "workload-cache-entries", "preload", "port",
                            "host", "queue-capacity",
                            "retry-after-ms"});

  service::ServiceOptions options;
  options.num_shards = flags.GetUint("shards", 1, common::kMaxThreads);
  options.total_threads = flags.GetUint("threads", 0, common::kMaxThreads);
  options.result_cache_entries = flags.GetUint("cache-entries", 64);
  options.workload_cache_entries =
      flags.GetUint("workload-cache-entries", 32);
  const std::string preload = flags.GetString("preload", "");
  service::AsyncServerOptions async_options;
  async_options.host = flags.GetString("host", "127.0.0.1");
  async_options.port = static_cast<uint16_t>(
      flags.GetUint("port", 0, std::numeric_limits<uint16_t>::max()));
  async_options.shard_queue_capacity = flags.GetUint("queue-capacity", 64);
  async_options.retry_after_ms = static_cast<uint32_t>(flags.GetUint(
      "retry-after-ms", 50, std::numeric_limits<uint32_t>::max()));
  flags.ExitOnError(kUsage);

  service::PredictionService svc(options);

  // --preload name=path[,name=path...]: load before announcing readiness so
  // the first request never pays a dataset load.
  size_t start = 0;
  while (start < preload.size()) {
    size_t comma = preload.find(',', start);
    if (comma == std::string::npos) comma = preload.size();
    const std::string item = preload.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "error: --preload item '%s' is not name=path\n",
                   item.c_str());
      return 2;
    }
    std::string error;
    if (!svc.registry().LoadFile(item.substr(0, eq), item.substr(eq + 1),
                                 &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }

  // Counted before Start: from then on the event loop may load datasets
  // into the registry concurrently with this thread.
  const size_t datasets = svc.registry().size();
  service::AsyncServer server(&svc, async_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::cout << "{\"op\":\"ready\",\"transport\":\"wire\",\"port\":"
            << server.port() << ",\"shards\":" << svc.num_shards()
            << ",\"threads_per_shard\":" << svc.threads_per_shard()
            << ",\"datasets\":" << datasets << "}\n";
  std::cout.flush();
  server.Wait();
  return 0;
}
