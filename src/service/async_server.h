#ifndef HDIDX_SERVICE_ASYNC_SERVER_H_
#define HDIDX_SERVICE_ASYNC_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "service/prediction_service.h"

namespace hdidx::service {

/// Tuning knobs for the event-driven server.
struct AsyncServerOptions {
  /// IPv4 address to bind (dotted quad).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Admission-control bound on each shard's request queue; a predict
  /// arriving at a full queue is answered with a load-shed frame.
  size_t shard_queue_capacity = 64;
  /// Retry-after hint carried by load-shed responses.
  uint32_t retry_after_ms = 50;
};

/// Epoll-based binary-protocol front-end over a PredictionService.
///
/// Architecture: one epoll event loop accepts connections on the
/// non-blocking listen socket and reads and frames their requests (see
/// wire.h) — for predicts it peeks the leading dataset string to pick a
/// shard and enqueues the still-encoded frame onto that shard's bounded
/// queue, so payload decode runs on the shard worker, not the shared loop.
/// One worker thread per shard decodes, serves via
/// PredictionService::ServeOnShard, and hands the encoded response back to
/// the loop to write. A started server runs 1 + num_shards threads. A
/// well-framed payload that fails to decode on the worker is answered with
/// a kError frame echoing the id, in per-shard FIFO order, and the
/// connection keeps serving (the two-level error contract of wire.h is
/// placement-invariant). Control ops (load/stats/shutdown) run inline on
/// the loop. Connections are fully pipelined: any number of in-flight
/// requests, responses matched by frame id (responses may interleave
/// across shards, not within one). When accept runs out of descriptors or
/// buffers, the listen socket leaves the interest set for a 20 ms backoff
/// while connected clients keep being served.
///
/// Admission control: a predict that finds its shard queue full is
/// answered immediately with a kFlagShed frame carrying retry_after_ms;
/// queue depth, peak depth, and shed counts surface per shard through the
/// stats op. A connection with more than 4 MiB of unsent responses stops
/// being read until they drain — slow readers throttle themselves, not the
/// server. Frame payloads are bounded by wire::kDefaultMaxPayload.
///
/// The deterministic payload of every predict response is bit-identical
/// to what PredictionService::ServeOnShard returns in process for the same
/// request (the service's determinism contract; doubles travel as raw
/// IEEE-754 bits).
class AsyncServer {
 public:
  /// `service` must outlive the server.
  AsyncServer(PredictionService* service, const AsyncServerOptions& options);
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Binds, listens, and spawns the event-loop and shard-worker threads.
  /// Returns false (with *error set) on socket failures.
  bool Start(std::string* error);

  /// The bound port (valid after Start; the actual port when options.port
  /// was 0).
  uint16_t port() const;

  /// Blocks until the server stops — via Stop() or a shutdown frame —
  /// then joins all threads. Returns the number of predict responses
  /// served (shed responses excluded), as the shutdown response reports.
  uint64_t Wait();

  /// Signals the server to stop; safe from any thread (including the
  /// event loop). Threads are joined by Wait() or the destructor.
  void Stop();

  /// Predict responses served so far (shed responses excluded).
  uint64_t served() const;

  /// Test seam: parks every shard worker so queued requests accumulate —
  /// with traffic `shard_queue_capacity + K` deep, exactly K predicts are
  /// shed, deterministically. The `load` op quiesces the same way (pause,
  /// then wait for in-flight serves only — queued predicts stay queued
  /// and run against the updated registry after resume), and a shutdown
  /// frame resumes serving so its drain-before-ack stays finite even if
  /// a pause is in effect.
  void PauseServingForTest();
  void ResumeServingForTest();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_ASYNC_SERVER_H_
