#include "service/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/resampled.h"
#include "index/topology.h"
#include "io/disk_model.h"
#include "io/paged_file.h"
#include "service/wire.h"

namespace hdidx::service {

namespace {

/// Everything a cached result is a function of. per_query is serialization
/// only and deliberately absent: the result bits are the same either way.
using ResultKey = std::tuple<std::string /*dataset*/, std::string /*method*/,
                             size_t /*memory*/, size_t /*num_queries*/,
                             size_t /*k*/, uint64_t /*seed*/,
                             size_t /*page_bytes*/>;

/// Workloads depend only on the dataset and the draw parameters — they are
/// shared across methods and memory budgets, which is where the second
/// amortization of a resident service comes from.
using WorkloadKey = std::tuple<std::string /*dataset*/, size_t /*num_queries*/,
                               size_t /*k*/, uint64_t /*seed*/>;

/// `memory` is the request's budget after clamping to the dataset size.
ResultKey KeyOf(const ServiceRequest& r, size_t memory) {
  return {r.dataset, r.method, memory, r.num_queries, r.k, r.seed,
          r.page_bytes};
}

}  // namespace

std::string ValidateRequest(const ServiceRequest& request,
                            const data::Dataset& dataset) {
  if (request.method != "mini" && request.method != "cutoff" &&
      request.method != "resampled") {
    return "unknown method: " + Echo(request.method);
  }
  if (request.num_queries == 0 || request.k == 0 || request.memory == 0 ||
      request.page_bytes == 0) {
    return "num_queries, k, memory, and page_bytes must be > 0";
  }
  // Checked before anything is computed: the per-query array of a larger
  // answer would not fit one response frame.
  if (request.per_query && request.num_queries > wire::kMaxPerQueryCount) {
    return "per_query responses carry at most " +
           std::to_string(wire::kMaxPerQueryCount) + " queries";
  }
  // A query's own row is excluded from its neighbors, so only N - 1 remain.
  if (request.k >= dataset.size()) {
    return "k must be < the dataset's " + std::to_string(dataset.size()) +
           " points";
  }
  // Queries are drawn from the dataset, and their q·d floats are allocated
  // up front, so q is bounded by N.
  if (request.num_queries > dataset.size()) {
    return "num_queries must be <= the dataset's " +
           std::to_string(dataset.size()) + " points";
  }
  // A data page must hold two records (dim floats + a 4-byte id each), or
  // the modeled tree has no fan-out to predict.
  const size_t min_page_bytes = 2 * (dataset.dim() * sizeof(float) + 4);
  if (request.page_bytes < min_page_bytes) {
    return "page_bytes must be >= " + std::to_string(min_page_bytes) +
           " (two data records at this dimensionality)";
  }
  io::DiskModel disk;
  disk.page_bytes = request.page_bytes;
  if (request.method != "mini" &&
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk)
              .height() < 3) {
    return "dataset too small for the " + request.method +
           " method (index height < 3); use method=mini";
  }
  return "";
}

core::PredictionResult PredictRequest(const ServiceRequest& request,
                                      const data::Dataset& dataset,
                                      const index::TreeTopology& topology,
                                      const workload::QueryWorkload& workload,
                                      size_t h_upper, uint64_t seed,
                                      const common::ExecutionContext& ctx) {
  const size_t memory = std::min(request.memory, dataset.size());
  if (request.method == "mini") {
    core::MiniIndexParams params;
    params.sampling_fraction =
        static_cast<double>(memory) / static_cast<double>(dataset.size());
    params.seed = seed;
    return core::PredictWithMiniIndex(dataset, topology, workload, params,
                                      ctx);
  }
  io::DiskModel disk;
  disk.page_bytes = request.page_bytes;
  io::PagedFile file = io::PagedFile::View(dataset, disk);
  if (h_upper == 0) h_upper = core::ChooseHupper(topology, memory);
  if (request.method == "cutoff") {
    core::CutoffParams params;
    params.memory_points = memory;
    params.h_upper = h_upper;
    params.seed = seed;
    return core::PredictWithCutoffTree(&file, topology, workload, params, ctx);
  }
  core::ResampledParams params;
  params.memory_points = memory;
  params.h_upper = h_upper;
  params.seed = seed;
  return core::PredictWithResampledTree(&file, topology, workload, params,
                                        ctx);
}

struct PredictionService::Shard {
  explicit Shard(const ServiceOptions& options, size_t threads)
      : pool(threads),
        results(options.result_cache_entries),
        workloads(options.workload_cache_entries) {}

  /// Internally synchronized (its own job mutex + lock-free chunk claim).
  common::ThreadPool pool HDIDX_UNGUARDED;
  common::Mutex mu;
  io::KeyedLruCache<ResultKey, core::PredictionResult> results
      HDIDX_GUARDED_BY(mu);
  io::KeyedLruCache<WorkloadKey, workload::QueryWorkload> workloads
      HDIDX_GUARDED_BY(mu);
  std::vector<double> latencies_ms HDIDX_GUARDED_BY(mu);
};

PredictionService::PredictionService(const ServiceOptions& options)
    : registry_(options.num_shards) {
  const size_t num_shards = std::max<size_t>(1, options.num_shards);
  const size_t total = options.total_threads != 0 ? options.total_threads
                                                  : common::ThreadCount();
  const size_t per_shard = std::max<size_t>(1, total / num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options, per_shard));
  }
}

PredictionService::~PredictionService() = default;

size_t PredictionService::threads_per_shard() const {
  return shards_.front()->pool.num_threads();
}

ServiceResponse PredictionService::ServeOnShard(size_t shard_index,
                                                const ServiceRequest& request) {
  HDIDX_CHECK(shard_index == registry_.ShardOf(request.dataset))
      << "request for '" << request.dataset << "' routed to wrong shard "
      << shard_index;
  Shard* shard = shards_[shard_index].get();
  ServiceResponse response = Compute(shard, request);
  response.shard = shard_index;
  {
    common::MutexLock lock(&shard->mu);
    shard->latencies_ms.push_back(response.latency_ms);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!response.ok) errors_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

ServiceResponse PredictionService::Compute(Shard* shard,
                                           const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  const auto started = std::chrono::steady_clock::now();

  const data::Dataset* dataset = registry_.Find(request.dataset);
  if (dataset == nullptr) {
    response.error = "unknown dataset: " + Echo(request.dataset);
    return response;
  }
  response.error = ValidateRequest(request, *dataset);
  if (!response.error.empty()) return response;
  // A budget of N points already holds the whole dataset, so larger budgets
  // are served as N: same result, same cache entry. Unclamped, the resample
  // pass's k·M area offsets could overflow.
  const size_t memory = std::min(request.memory, dataset->size());

  const ResultKey key = KeyOf(request, memory);
  std::shared_ptr<const core::PredictionResult> cached;
  {
    common::MutexLock lock(&shard->mu);
    cached = shard->results.Get(key);
  }
  if (cached != nullptr) {
    // Warm path: the cached result was computed from exactly (request,
    // dataset), so returning it is bit-identical to recomputing — at zero
    // simulated I/O.
    response.ok = true;
    response.result = *cached;
    response.cache_hit = true;
    response.latency_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    return response;
  }

  io::DiskModel disk;
  disk.page_bytes = request.page_bytes;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset->size(), dataset->dim(), disk);

  const common::ExecutionContext ctx(&shard->pool, request.seed);

  // Workload: drawn with Rng(seed) exactly as hdidx_predict does, shared
  // across methods and memory budgets via the per-shard workload cache.
  const WorkloadKey wkey{request.dataset, request.num_queries, request.k,
                         request.seed};
  std::shared_ptr<const workload::QueryWorkload> workload;
  {
    common::MutexLock lock(&shard->mu);
    workload = shard->workloads.Get(wkey);
  }
  if (workload != nullptr) {
    response.workload_cache_hit = true;
  } else {
    // Created outside the shard mutex — two concurrent misses may both
    // build; both arrive at the same bits, so last-Put-wins is harmless.
    common::Rng rng(request.seed);
    auto fresh = std::make_shared<workload::QueryWorkload>(
        workload::QueryWorkload::Create(*dataset, request.num_queries,
                                        request.k, &rng, ctx));
    common::MutexLock lock(&shard->mu);
    shard->workloads.Put(wkey, fresh);
    workload = std::move(fresh);
  }

  response.result = PredictRequest(request, *dataset, topology, *workload,
                                   /*h_upper=*/0, request.seed + 1, ctx);
  response.ok = true;
  response.served_io = response.result.io;
  {
    common::MutexLock lock(&shard->mu);
    shard->results.Put(
        key, std::make_shared<core::PredictionResult>(response.result));
  }
  response.latency_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  return response;
}

ServiceMetrics PredictionService::Metrics() const {
  ServiceMetrics m;
  m.requests = requests_.load(std::memory_order_relaxed);
  m.errors = errors_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    // One copy of the latencies under the lock; the sort and the three
    // percentile reads run after it is released.
    std::vector<double> latencies;
    {
      common::MutexLock lock(&shard->mu);
      m.result_hits += shard->results.hits();
      m.result_misses += shard->results.misses();
      m.result_evictions += shard->results.evictions();
      m.workload_hits += shard->workloads.hits();
      m.workload_misses += shard->workloads.misses();
      m.workload_evictions += shard->workloads.evictions();
      latencies = shard->latencies_ms;
    }
    std::sort(latencies.begin(), latencies.end());
    ServiceMetrics::Shard sm;
    sm.requests = latencies.size();
    sm.p50_ms = common::PercentileOfSorted(latencies, 0.50);
    sm.p90_ms = common::PercentileOfSorted(latencies, 0.90);
    sm.p99_ms = common::PercentileOfSorted(latencies, 0.99);
    m.shards.push_back(sm);
  }
  return m;
}

void PredictionService::ClearCaches() {
  for (auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    shard->results.Clear();
    shard->workloads.Clear();
  }
}

}  // namespace hdidx::service
