#ifndef HDIDX_SERVICE_PREDICTION_SERVICE_H_
#define HDIDX_SERVICE_PREDICTION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "core/predictor.h"
#include "index/topology.h"
#include "io/io_stats.h"
#include "io/keyed_lru_cache.h"
#include "service/dataset_registry.h"
#include "workload/query_workload.h"

namespace hdidx::service {

/// One prediction question: "what would a k-NN workload cost on an index
/// over this dataset, predicted by this method under this memory budget?"
struct ServiceRequest {
  /// Caller-chosen identifier echoed in the response (the wire protocol
  /// carries it in the frame header).
  uint64_t id = 0;
  /// Name of a dataset registered with the service's DatasetRegistry.
  std::string dataset;
  /// Prediction technique: "mini", "cutoff", or "resampled".
  std::string method = "resampled";
  /// Memory budget M in points, served as min(M, N) (mini: sampling
  /// fraction M/N).
  size_t memory = 10000;
  /// Number of density-biased k-NN queries in the workload.
  size_t num_queries = 100;
  /// Neighbors per query.
  size_t k = 10;
  /// Base seed: the workload is drawn with Rng(seed), the prediction runs
  /// with seed+1 — exactly hdidx_predict's seeding, so serving a request
  /// reproduces the CLI bit for bit.
  uint64_t seed = 1;
  /// Page size of the modeled disk.
  size_t page_bytes = 8192;
  /// Include the per-query access vector in the serialized response.
  bool per_query = false;
};

/// Checks `request` against `dataset` before anything is computed: a known
/// method; num_queries, k, memory and page_bytes all > 0; with per_query, a
/// per-query array that fits one response frame; k < N (a query's
/// own row is not its neighbor); num_queries <= N (queries are drawn from
/// the dataset); a page that holds two data records; and, for cutoff and
/// resampled, an index of height >= 3. Returns "" when the request may be
/// served, else the error the service responds with. PredictionService and
/// hdidx_predict both call it, so the CLI refuses exactly what the service
/// refuses.
std::string ValidateRequest(const ServiceRequest& request,
                            const data::Dataset& dataset);

/// Runs `request.method` over `workload` with prediction seed `seed`, the
/// memory budget served as M = min(request.memory, N): mini samples a
/// fraction M / N of `dataset`; cutoff and resampled read it through a
/// PagedFile::View of `request.page_bytes` pages, with upper-tree height
/// `h_upper` (0 picks core::ChooseHupper(topology, M)). `request` must
/// have passed ValidateRequest. PredictionService and hdidx_predict both
/// call it, so the CLI predicts exactly what the service serves.
core::PredictionResult PredictRequest(const ServiceRequest& request,
                                      const data::Dataset& dataset,
                                      const index::TreeTopology& topology,
                                      const workload::QueryWorkload& workload,
                                      size_t h_upper, uint64_t seed,
                                      const common::ExecutionContext& ctx);

/// The deterministic payload plus serving metadata. Everything under
/// `result` (and `result_valid`/`error`) is bit-identical for a given
/// request regardless of shard count, arrival order, or cache state; the
/// remaining fields describe how this particular serving went.
struct ServiceResponse {
  uint64_t id = 0;
  bool ok = false;
  std::string error;

  /// The prediction payload (valid iff ok).
  core::PredictionResult result;

  // --- serving metadata (excluded from the determinism contract) ---
  /// Shard that computed or retrieved the result.
  size_t shard = 0;
  /// Whether the full result came out of the mini-index cache.
  bool cache_hit = false;
  /// Whether the workload came out of the workload cache (mini method).
  bool workload_cache_hit = false;
  /// Simulated I/O actually charged while serving this request: equals
  /// result.io on a cold run, zero on a cache hit — the operational saving
  /// the cache exists for.
  io::IoStats served_io;
  /// Wall-clock serving latency in milliseconds.
  double latency_ms = 0.0;
};

/// Point-in-time counters for monitoring.
struct ServiceMetrics {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_evictions = 0;
  uint64_t workload_hits = 0;
  uint64_t workload_misses = 0;
  uint64_t workload_evictions = 0;
  /// Requests refused by async admission control (always 0 from Metrics()
  /// itself; filled in by AsyncServer).
  uint64_t shed_total = 0;

  struct Shard {
    uint64_t requests = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    /// Async admission-queue gauges (filled in by AsyncServer).
    size_t queue_depth = 0;
    size_t peak_queue_depth = 0;
    uint64_t shed = 0;
  };
  std::vector<Shard> shards;
};

struct ServiceOptions {
  /// Number of shard workers; each owns the datasets hashed to it.
  size_t num_shards = 1;
  /// Total worker threads split evenly across shards (each shard gets
  /// max(1, total/num_shards)); 0 means common::ThreadCount().
  size_t total_threads = 0;
  /// Capacity, in entries, of each shard's result (mini-index) cache.
  size_t result_cache_entries = 64;
  /// Capacity, in entries, of each shard's workload cache.
  size_t workload_cache_entries = 32;
};

/// A resident, sharded front-end over the library's predictors.
///
/// Datasets are partitioned across shards by the registry's stable hash;
/// each shard owns a ThreadPool-backed ExecutionContext (threads split
/// evenly) plus an LRU cache of built prediction results and generated
/// workloads. ServeOnShard is the one serving path: the async wire server's
/// per-shard workers route each request to `registry().ShardOf(dataset)`
/// and call it once.
///
/// Determinism contract: every response's `result` is derived only from the
/// request fields and the registered dataset — workloads are seeded with
/// Rng(request.seed) and predictions with request.seed + 1, and each
/// prediction runs on the shard's ExecutionContext whose ParallelFor is
/// bit-identical for any thread count. A request therefore yields the same
/// bits for 1, 2, or N shards, for any arrival order, and whether it was
/// computed cold or returned from cache.
///
/// Thread-safety: each shard's caches and latency records are guarded by a
/// per-shard mutex, and the global counters are atomic, so ServeOnShard may
/// be called concurrently from any number of threads (the async server's
/// per-shard workers). Registry mutation (LoadFile/Add) must still be
/// externally quiesced against in-flight serving — see DatasetRegistry's
/// phase contract.
class PredictionService {
 public:
  explicit PredictionService(const ServiceOptions& options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  DatasetRegistry& registry() { return registry_; }
  const DatasetRegistry& registry() const { return registry_; }

  size_t num_shards() const { return shards_.size(); }
  size_t threads_per_shard() const;

  /// Serves one request on shard `shard_index`, which must be
  /// `registry().ShardOf(request.dataset)` (checked): computes or retrieves
  /// the response, records its latency, and counts it. Safe to call
  /// concurrently. The service's only serving entry point.
  ServiceResponse ServeOnShard(size_t shard_index,
                               const ServiceRequest& request);

  ServiceMetrics Metrics() const;

  /// Drops all cached artifacts (counters included); datasets stay loaded.
  /// Used by benchmarks to measure the cold path repeatedly.
  void ClearCaches();

 private:
  struct Shard;

  /// The cache-or-compute body; takes the shard mutex only around cache
  /// and latency accesses, never across a prediction.
  ServiceResponse Compute(Shard* shard, const ServiceRequest& request);

  DatasetRegistry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_PREDICTION_SERVICE_H_
