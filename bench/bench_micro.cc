// E12: google-benchmark microbenchmarks of the library's hot paths —
// bulk loading, MINDIST evaluation, sphere counting, box counting, the
// compensation arithmetic, and the threads-sweep of the parallel execution
// layer (run with --benchmark_format=json to get the speedup counters in
// machine-readable form for the perf trajectory).

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/fractal.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/compensation.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "geometry/kernels.h"
#include "index/bulk_loader.h"
#include "index/external_build.h"
#include "index/topology.h"
#include "io/paged_file.h"
#include "service/async_server.h"
#include "service/prediction_service.h"
#include "service/wire.h"
#include "workload/query_workload.h"

namespace {

using namespace hdidx;

data::Dataset MakeData(size_t n, size_t dim) {
  common::Rng rng(1);
  data::ClusteredConfig config;
  config.num_points = n;
  config.dim = dim;
  config.num_clusters = 16;
  return data::GenerateClustered(config, &rng);
}

void BM_BulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const auto data = MakeData(n, dim);
  const index::TreeTopology topo(n, 33, 16);
  for (auto _ : state) {
    index::BulkLoadOptions options;
    options.topology = &topo;
    benchmark::DoNotOptimize(index::BulkLoadInMemory(data, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BulkLoad)->Args({5000, 16})->Args({5000, 60})->Args({20000, 16});

void BM_MinDist(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto data = MakeData(256, dim);
  const auto box = data.Bounds();
  common::Rng rng(2);
  std::vector<float> q(dim);
  for (auto& v : q) v = static_cast<float>(rng.NextUniform(-1, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::SquaredMinDist(q, box));
  }
}
BENCHMARK(BM_MinDist)->Arg(16)->Arg(64)->Arg(360);

// The measurement path (core::MeasureLeafAccesses) over a batch of 100
// radius-0.2 spheres centered on data rows.
void BM_SphereCounting(benchmark::State& state) {
  const size_t n = 20000;
  const size_t q = 100;
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto data = MakeData(n, dim);
  const index::TreeTopology topo(n, 33, 16);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const auto tree = index::BulkLoadInMemory(data, options);
  common::Rng rng(3);
  std::vector<size_t> rows(q);
  for (size_t& row : rows) row = rng.NextBounded(n);
  const workload::QueryWorkload spheres(data.Select(rows),
                                        std::vector<double>(q, 0.2), rows,
                                        /*k=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MeasureLeafAccesses(tree, spheres, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(q));
}
BENCHMARK(BM_SphereCounting)->Arg(16)->Arg(60);

void BM_BoxCounting(benchmark::State& state) {
  const auto data = MakeData(static_cast<size_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::EstimateFractalDimensions(data, 8));
  }
}
BENCHMARK(BM_BoxCounting)->Arg(10000)->Arg(40000);

void BM_Compensation(benchmark::State& state) {
  double zeta = 0.01;
  for (auto _ : state) {
    zeta = zeta < 0.99 ? zeta + 1e-6 : 0.01;
    benchmark::DoNotOptimize(core::CompensationDelta(33.0, zeta, 60));
  }
}
BENCHMARK(BM_Compensation);

// ---------------------------------------------------------------------------
// Threads sweep (1/2/4/8) over the parallel execution layer. Each benchmark
// times the operation under a pool of state.range(0) threads and reports
//   threads          — the pool size,
//   speedup_vs_1t    — wall-clock of the 1-thread run over this run,
// so the JSON output carries the scaling trajectory directly. The 1-thread
// baseline is captured when the sweep runs its first (threads=1) config.

/// Remembers the 1-thread mean wall time per sweep family so later configs
/// can report their speedup. google-benchmark runs registrations in order,
/// so threads=1 completes first.
double& BaselineNs(const std::string& family) {
  static std::map<std::string, double> baselines;
  return baselines[family];
}

/// The sweep's shared input, built once: 100k x 16 clustered points.
const data::Dataset& SweepData() {
  static const data::Dataset* data = new data::Dataset(MakeData(100000, 16));
  return *data;
}

void ReportSweep(benchmark::State& state, const std::string& family,
                 size_t threads, double total_ns) {
  const double mean_ns =
      total_ns / static_cast<double>(std::max<int64_t>(1, state.iterations()));
  if (threads == 1) BaselineNs(family) = mean_ns;
  const double baseline = BaselineNs(family);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup_vs_1t"] =
      baseline > 0.0 && mean_ns > 0.0 ? baseline / mean_ns : 0.0;
}

// The acceptance workload of the parallel-layer refactor: q=100 exact 21-NN
// radii over 100k x 16 points.
void BM_WorkloadCreateThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const data::Dataset& data = SweepData();
  common::ThreadPool pool(threads);
  const common::ExecutionContext ctx(&pool);
  double total_ns = 0.0;
  for (auto _ : state) {
    common::Rng rng(7);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        workload::QueryWorkload::Create(data, 100, 21, &rng, ctx));
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  ReportSweep(state, "workload_create", threads, total_ns);
}
BENCHMARK(BM_WorkloadCreateThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_MiniIndexPredictThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const data::Dataset& data = SweepData();
  static const index::TreeTopology& topo =
      *new index::TreeTopology(data.size(), 33, 16);
  static const workload::QueryWorkload& queries =
      *new workload::QueryWorkload([&] {
        common::Rng rng(8);
        return workload::QueryWorkload::Create(data, 100, 21, &rng);
      }());
  common::ThreadPool pool(threads);
  const common::ExecutionContext ctx(&pool);
  core::MiniIndexParams params;
  params.sampling_fraction = 0.1;
  params.seed = 9;
  double total_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        core::PredictWithMiniIndex(data, topo, queries, params, ctx));
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  ReportSweep(state, "mini_index_predict", threads, total_ns);
}
BENCHMARK(BM_MiniIndexPredictThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// The VAMSplit bulk load's one plan, run in waves on the pool and emitted
// by one post-order walk, bit-identical at every pool size. The threads=1
// config runs the same plan depth-first on the calling thread (BulkLoad
// only runs waves for pools larger than one), so speedup_vs_1t is measured
// against the single-threaded build.
void BM_BulkLoadThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const data::Dataset& data = SweepData();
  static const index::TreeTopology& topo =
      *new index::TreeTopology(data.size(), 33, 16);
  common::ThreadPool pool(threads);
  const common::ExecutionContext ctx(&pool);
  index::BulkLoadOptions options;
  options.topology = &topo;
  options.exec = &ctx;
  double total_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(index::BulkLoadInMemory(data, options));
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  ReportSweep(state, "bulk_load", threads, total_ns);
}
BENCHMARK(BM_BulkLoadThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// ---------------------------------------------------------------------------
// Out-of-core build: multi-pass external quickselect (VAMSplit planes,
// range(1) == 0) against the sample-first adaptive single-pass pipeline
// (range(1) == 1), both at a 10x data-to-memory ratio. Counters:
//   data_passes         — total page transfers over the data file's pages
//                         (the issue's headline: adaptive <= half),
//   pages_read          — total page transfers, exact,
//   speedup_vs_vamsplit — vamsplit mean wall time over this row's (0 on
//                         the vamsplit rows themselves).
// data_passes and pages_read are pure functions of the inputs — no timing
// — so BENCH_BASELINE.json pins them exactly through bench_compare.py;
// the speedup is host-dependent and stays advisory.

void BM_ExternalBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool adaptive = state.range(1) != 0;
  constexpr size_t kDim = 16;
  const auto data = MakeData(n, kDim);
  const index::TreeTopology topo(n, 33, 16);
  io::IoStats io;
  double data_pages = 1.0;
  double total_ns = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
    data_pages = static_cast<double>(file.num_pages());
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    index::ExternalBuildOptions options;
    options.topology = &topo;
    options.memory_points = n / 10;
    if (adaptive) {
      options.split_strategy = index::SplitStrategy::kAdaptiveSample;
    }
    const index::ExternalBuildResult result =
        index::BuildOnDisk(&file, options);
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    io = result.io;
    benchmark::DoNotOptimize(result.tree.num_nodes());
  }
  const std::string family = "external-build/" + std::to_string(n);
  const double mean_ns =
      total_ns / static_cast<double>(std::max<int64_t>(1, state.iterations()));
  if (!adaptive) BaselineNs(family) = mean_ns;
  const double baseline = BaselineNs(family);
  state.counters["data_passes"] =
      static_cast<double>(io.page_transfers) / data_pages;
  state.counters["pages_read"] = static_cast<double>(io.page_transfers);
  state.counters["speedup_vs_vamsplit"] =
      adaptive && baseline > 0.0 && mean_ns > 0.0 ? baseline / mean_ns : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ExternalBuild)
    ->Args({50000, 0})->Args({50000, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Predictor error on an adaptive-built index: the mini-index model must
// track kAdaptiveSample layouts as well as VAMSplit ones. The counter
// rel_error is |predicted - measured| / measured average leaf accesses
// (acceptance: < 0.05); timing covers the prediction only.
void BM_AdaptivePredictorError(benchmark::State& state) {
  const size_t n = 20000;
  common::Rng gen(1);
  const data::Dataset data = data::GenerateUniform(n, 8, &gen);
  const index::TreeTopology topo(n, 80, 10);
  common::Rng wrng(2);
  const auto workload = workload::QueryWorkload::Create(data, 60, 10, &wrng);
  index::BulkLoadOptions build;
  build.topology = &topo;
  build.split_strategy = index::SplitStrategy::kAdaptiveSample;
  const index::RTree tree = index::BulkLoadInMemory(data, build);
  double measured = 0.0;
  {
    const auto counts = core::MeasureLeafAccesses(tree, workload, nullptr);
    for (const double c : counts) measured += c;
    measured /= static_cast<double>(counts.size());
  }
  core::MiniIndexParams params;
  params.split_strategy = index::SplitStrategy::kAdaptiveSample;
  params.sampling_fraction = 0.5;
  double predicted = measured;
  for (auto _ : state) {
    predicted = core::PredictWithMiniIndex(data, topo, workload, params)
                    .avg_leaf_accesses;
    benchmark::DoNotOptimize(predicted);
  }
  state.counters["rel_error"] =
      measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
}
BENCHMARK(BM_AdaptivePredictorError)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// ---------------------------------------------------------------------------
// Kernel-mode sweep: each benchmark runs once per kernel mode, range(0)
// holding the KernelMode enumerator (0=scalar, 1=generic, 2=avx2,
// 3=avx512; ISAs the host cannot run are skipped with an error so the JSON
// still lists them). Registration order seeds the baselines: scalar first,
// then generic — which is bit-for-bit the PR 5 batched implementation, so
// it doubles as the PR 5 baseline. Reported counters:
//   mode               — the enumerator this config ran,
//   speedup_vs_scalar  — scalar mean wall time over this config's
//                        (acceptance floor: >= 3x on leaf-intersection
//                        counting and >= 2x on the k-NN scan at d=60),
//   speedup_vs_pr5     — generic-lane mean wall time over this config's
//                        (acceptance floor: >= 1.2x at d=60 on the widest
//                        host ISA),
//   bytes_touched      — analytic bytes the kernel streams across all
//                        iterations (upper bound: early exits touch less).
// Every mode produces bit-identical results, so the speedup is free.

geometry::kernels::KernelMode SweepMode(benchmark::State& state) {
  return static_cast<geometry::kernels::KernelMode>(state.range(0));
}

/// Skips configs whose ISA the host cannot run. Returns false on skip.
bool CheckSweepMode(benchmark::State& state,
                    geometry::kernels::KernelMode mode) {
  if (geometry::kernels::KernelModeSupported(mode)) return true;
  state.SkipWithError(
      (std::string(geometry::kernels::KernelModeName(mode)) +
       " not supported on this host")
          .c_str());
  return false;
}

void ReportKernelSweep(benchmark::State& state, const std::string& family,
                       geometry::kernels::KernelMode mode, double total_ns,
                       double bytes_per_iteration) {
  namespace gk = geometry::kernels;
  const double mean_ns =
      total_ns / static_cast<double>(std::max<int64_t>(1, state.iterations()));
  if (mode == gk::KernelMode::kScalar) BaselineNs(family) = mean_ns;
  if (mode == gk::KernelMode::kGeneric) BaselineNs(family + "/pr5") = mean_ns;
  const double scalar_ns = BaselineNs(family);
  const double pr5_ns = BaselineNs(family + "/pr5");
  state.counters["mode"] = static_cast<double>(mode);
  state.counters["speedup_vs_scalar"] =
      scalar_ns > 0.0 && mean_ns > 0.0 ? scalar_ns / mean_ns : 0.0;
  state.counters["speedup_vs_pr5"] =
      pr5_ns > 0.0 && mean_ns > 0.0 ? pr5_ns / mean_ns : 0.0;
  state.counters["bytes_touched"] =
      bytes_per_iteration * static_cast<double>(state.iterations());
}

/// Registers the scalar/generic/avx2/avx512 sweep for a benchmark with
/// a (mode, dim) argument pair.
void ModeDimSweep(benchmark::internal::Benchmark* b) {
  for (int64_t dim : {16, 60}) {
    for (int64_t mode = 0;
         mode < static_cast<int64_t>(geometry::kernels::kNumKernelModes);
         ++mode) {
      b->Args({mode, dim});
    }
  }
}

// The predictor hot loop: q=100 k-NN query spheres against every leaf MBR
// of a 20k-point tree (the slab is built once per prediction inside
// CountLeafIntersections and shared across queries). It runs on a serial
// context, so cpu_time times the kernel, not pool dispatch.
void BM_CountLeafIntersections(benchmark::State& state) {
  const auto mode = SweepMode(state);
  if (!CheckSweepMode(state, mode)) return;
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t n = 20000;
  const auto data = MakeData(n, dim);
  const index::TreeTopology topo(n, 33, 16);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const auto tree = index::BulkLoadInMemory(data, options);
  std::vector<geometry::BoundingBox> leaves;
  for (uint32_t id : tree.leaf_ids()) leaves.push_back(tree.node(id).box);
  common::Rng rng(11);
  const auto queries = workload::QueryWorkload::Create(data, 100, 21, &rng);
  geometry::kernels::SetKernelMode(mode);
  const common::ExecutionContext serial;
  double total_ns = 0.0;
  for (auto _ : state) {
    core::PredictionResult result;
    const auto start = std::chrono::steady_clock::now();
    core::CountLeafIntersections(leaves, queries, &result, serial);
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    benchmark::DoNotOptimize(result.avg_leaf_accesses);
  }
  geometry::kernels::ClearKernelModeOverride();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100 *
                          static_cast<int64_t>(leaves.size()));
  // Each query streams both float planes of every dimension of the slab.
  const size_t padded =
      (leaves.size() + geometry::kernels::BoxSlab::kPlaneStride - 1) /
      geometry::kernels::BoxSlab::kPlaneStride *
      geometry::kernels::BoxSlab::kPlaneStride;
  const double bytes_per_iteration =
      100.0 * 2.0 * static_cast<double>(dim) * static_cast<double>(padded) *
      sizeof(float);
  ReportKernelSweep(state,
                    "count_leaf_intersections_d" + std::to_string(dim), mode,
                    total_ns, bytes_per_iteration);
}
BENCHMARK(BM_CountLeafIntersections)
    ->Apply(ModeDimSweep)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// The workload-generation hot loop: one exact 21-NN radius over 20k rows
// per iteration, timed directly on the dispatching scan kernel.
void BM_ExactKthScan(benchmark::State& state) {
  const auto mode = SweepMode(state);
  if (!CheckSweepMode(state, mode)) return;
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t n = 20000;
  const auto data = MakeData(n, dim);
  common::Rng rng(12);
  double total_ns = 0.0;
  for (auto _ : state) {
    const size_t row = rng.NextBounded(n);
    double kth_sq = 0.0;
    const auto start = std::chrono::steady_clock::now();
    geometry::kernels::KthDistanceScans(data.row(row), std::span(&row, 1),
                                        data.data(), dim, 21,
                                        std::span(&kth_sq, 1), mode);
    benchmark::DoNotOptimize(kth_sq);
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  // One full pass over the row-major dataset per scan (early abandoning
  // touches less; this is the streamed upper bound).
  const double bytes_per_iteration =
      static_cast<double>(n) * static_cast<double>(dim) * sizeof(float);
  ReportKernelSweep(state, "exact_kth_scan_d" + std::to_string(dim), mode,
                    total_ns, bytes_per_iteration);
}
BENCHMARK(BM_ExactKthScan)
    ->Apply(ModeDimSweep)
    ->Iterations(2000);

// The VAMSplit split-dimension choice every bulk load makes per node: the
// per-dimension moments of 10k rows read through a shuffled permutation
// (how the in-memory loaders see their rows after a few partitions), then
// the max-variance pick. bytes_touched is the shape's N·d·4 bytes of rows
// plus N·4 bytes of indices per iteration.
void BM_MaxVarianceDim(benchmark::State& state) {
  const auto mode = SweepMode(state);
  if (!CheckSweepMode(state, mode)) return;
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t n = 10000;
  const auto data = MakeData(n, dim);
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  common::Rng rng(13);
  rng.Shuffle(&order);
  double total_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(geometry::kernels::MaxVarianceDim(
        data.data().data(), dim, order, mode));
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  const double bytes_per_iteration =
      static_cast<double>(n) *
      (static_cast<double>(dim) * sizeof(float) + sizeof(uint32_t));
  ReportKernelSweep(state, "max_variance_dim_d" + std::to_string(dim), mode,
                    total_ns, bytes_per_iteration);
}
BENCHMARK(BM_MaxVarianceDim)->Apply(ModeDimSweep)->Iterations(200);

// The whole workload on one thread: q=100 exact 21-NN radii over 20k rows,
// which QueryWorkload::Create runs as one query tile of the exact scan.
// Cost model (Schneider-style, counting cache-line fetches from memory):
// each 512-row chunk stays in L2 while every query of the tile scans it, so
// the tile fetches the dataset's N·d·4/64 lines once, where a
// query-at-a-time scan fetches them q times. bytes_touched is that model's
// N·d·4 bytes per iteration, a constant of the shape (it does not observe
// the tiling); EXPERIMENTS.md E12 sets it next to the measured time.
void BM_WorkloadCreate(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 20000;
  const size_t q = 100;
  const auto data = MakeData(n, dim);
  common::ThreadPool pool(1);
  const common::ExecutionContext ctx(&pool);
  for (auto _ : state) {
    common::Rng rng(7);
    benchmark::DoNotOptimize(
        workload::QueryWorkload::Create(data, q, 21, &rng, ctx));
  }
  state.counters["bytes_touched"] =
      static_cast<double>(n * dim * sizeof(float)) *
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_WorkloadCreate)
    ->Arg(16)->Arg(60)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// One cold resampled prediction (Figure 7) on one thread: N=50k clustered
// points, M=5k, q=100 21-NN queries, 8 KB pages, h_upper by the Section
// 4.5 rule. The workload is built once outside the timed loop; the data
// file is a view of the dataset, so the time is the predictor's alone
// (sample scan, upper tree, resample pass, lower bulk loads, counting).
// page_seeks and page_transfers are the prediction's simulated I/O
// (Equation 5): pure functions of the inputs, gated exactly.
void BM_ResampledPredict(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 50000;
  const size_t memory = 5000;
  const auto data = MakeData(n, dim);
  const io::DiskModel disk;
  const auto topo = index::TreeTopology::FromDisk(n, dim, disk);
  common::ThreadPool pool(1);
  const common::ExecutionContext ctx(&pool);
  common::Rng wrng(7);
  const auto workload =
      workload::QueryWorkload::Create(data, 100, 21, &wrng, ctx);
  core::ResampledParams params;
  params.memory_points = memory;
  params.h_upper = core::ChooseHupper(topo, memory);
  io::IoStats io;
  for (auto _ : state) {
    io::PagedFile file = io::PagedFile::View(data, disk);
    const core::PredictionResult result =
        core::PredictWithResampledTree(&file, topo, workload, params, ctx);
    io = result.io;
    benchmark::DoNotOptimize(result.avg_leaf_accesses);
  }
  state.counters["page_seeks"] = static_cast<double>(io.page_seeks);
  state.counters["page_transfers"] = static_cast<double>(io.page_transfers);
}
BENCHMARK(BM_ResampledPredict)
    ->Arg(16)->Arg(60)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// The resample pass's point assignment (Section 4.4): 10k rows of a
// clustered N=50k set, each sent to the first grown upper leaf containing
// it, else to the leaf at minimal MINDIST. The layout is the one the
// resampled predictor grows for M=5k, 8 KB pages and h_upper by the
// Section 4.5 rule, built once outside the timed loop with its box-major
// rows. bytes_touched is the upper bound of one pass over both layouts per
// point: the point's d floats, the slab's two planes (padded lanes) and
// the two box-major rows of every leaf.
void BM_NearestBox(benchmark::State& state) {
  namespace gk = geometry::kernels;
  const auto mode = SweepMode(state);
  if (!CheckSweepMode(state, mode)) return;
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t n = 50000;
  const size_t memory = 5000;
  const size_t points = 10000;
  const auto data = MakeData(n, dim);
  const auto topo = index::TreeTopology::FromDisk(n, dim, io::DiskModel());
  common::Rng rng(14);
  std::vector<size_t> rows;
  rng.SampleIndices(n, memory, &rows);
  common::ThreadPool pool(1);
  const common::ExecutionContext ctx(&pool);
  const core::UpperTreeResult upper = core::BuildGrownUpperTree(
      data.Select(rows), topo, core::ChooseHupper(topo, memory),
      core::SigmaUpper(topo, memory), ctx);
  const gk::BoxSlab slab{std::span(upper.grown_leaves)};
  const gk::BoxRows box_rows{slab};
  double total_ns = 0.0;
  for (auto _ : state) {
    size_t sum = 0;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < points; ++i) {
      sum += gk::NearestBox(data.row(i * (n / points)), slab, box_rows, mode);
    }
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points));
  const size_t stride = (dim + gk::BoxSlab::kPlaneStride - 1) /
                        gk::BoxSlab::kPlaneStride * gk::BoxSlab::kPlaneStride;
  const double bytes_per_iteration =
      static_cast<double>(points) * sizeof(float) *
      static_cast<double>(dim + 2 * dim * slab.padded_size() +
                          2 * stride * box_rows.size());
  ReportKernelSweep(state, "nearest_box_d" + std::to_string(dim), mode,
                    total_ns, bytes_per_iteration);
}
BENCHMARK(BM_NearestBox)->Apply(ModeDimSweep)->Iterations(20);

// The lower-tree area gather of the resampled predictor: 10k rows,
// ascending but scattered over a clustered N=100k set (one area's rows in
// resample order), copied into a reused buffer by Dataset::AppendRows.
// Iterations rotate over four row samples (9.6 MB of rows at d=60, more
// than L2), so like the served gather most rows miss the inner caches.
// bytes_touched is the gathered rows' count·d·4 bytes per iteration.
void BM_GatherRows(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 100000;
  const size_t count = 10000;
  const auto data = MakeData(n, dim);
  common::Rng rng(15);
  std::vector<std::vector<size_t>> samples(4);
  for (auto& rows : samples) rng.SampleIndices(n, count, &rows);
  data::Dataset gathered(dim);
  gathered.Reserve(count);
  size_t next = 0;
  for (auto _ : state) {
    gathered.Clear();
    gathered.AppendRows(data.data(), samples[next++ % samples.size()]);
    benchmark::DoNotOptimize(gathered.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
  state.counters["bytes_touched"] =
      static_cast<double>(count * dim * sizeof(float)) *
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_GatherRows)->Arg(60)->Iterations(200);

// Slab construction cost — the one-off price a prediction pays before the
// batched counting starts (transpose of all leaf MBRs into arena-backed SoA
// planes). The transpose itself is mode-independent; sweeping the mode
// anyway keeps one uniform (mode, dim) grid in the JSON and pins that no
// mode regresses the build.
void BM_SlabBuild(benchmark::State& state) {
  const auto mode = SweepMode(state);
  if (!CheckSweepMode(state, mode)) return;
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t n = 20000;
  const auto data = MakeData(n, dim);
  const index::TreeTopology topo(n, 33, 16);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const auto tree = index::BulkLoadInMemory(data, options);
  std::vector<geometry::BoundingBox> leaves;
  for (uint32_t id : tree.leaf_ids()) leaves.push_back(tree.node(id).box);
  geometry::kernels::SetKernelMode(mode);
  double total_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    geometry::kernels::BoxSlab slab{
        std::span<const geometry::BoundingBox>(leaves)};
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    benchmark::DoNotOptimize(slab.padded_size());
  }
  geometry::kernels::ClearKernelModeOverride();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(leaves.size()));
  state.counters["boxes"] = static_cast<double>(leaves.size());
  // Reads every MBR float from the AoS boxes, writes both padded planes.
  const size_t padded =
      (leaves.size() + geometry::kernels::BoxSlab::kPlaneStride - 1) /
      geometry::kernels::BoxSlab::kPlaneStride *
      geometry::kernels::BoxSlab::kPlaneStride;
  const double bytes_per_iteration =
      2.0 * static_cast<double>(dim) *
      (static_cast<double>(leaves.size()) + static_cast<double>(padded)) *
      sizeof(float);
  ReportKernelSweep(state, "slab_build_d" + std::to_string(dim), mode,
                    total_ns, bytes_per_iteration);
}
BENCHMARK(BM_SlabBuild)->Apply(ModeDimSweep)->Iterations(2000);

// ---------------------------------------------------------------------------
// The service the saturation sweep below serves from.

/// A 2-shard service over two registered 20k x 16 datasets.
service::PredictionService& SweepService() {
  static service::PredictionService* svc = [] {
    service::ServiceOptions options;
    options.num_shards = 2;
    options.total_threads = 4;
    auto* s = new service::PredictionService(options);
    std::string error;
    common::Rng rng_a(31), rng_b(32);
    data::ClusteredConfig config;
    config.num_points = 20000;
    config.dim = 16;
    config.num_clusters = 16;
    s->registry().Add("a", data::GenerateClustered(config, &rng_a), &error);
    s->registry().Add("b", data::GenerateClustered(config, &rng_b), &error);
    return s;
  }();
  return *svc;
}

std::vector<service::ServiceRequest> ServiceBatch() {
  std::vector<service::ServiceRequest> requests;
  for (const char* dataset : {"a", "b"}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      service::ServiceRequest r;
      r.dataset = dataset;
      r.method = "resampled";
      r.memory = 2000;
      r.num_queries = 50;
      r.k = 10;
      r.seed = seed;
      requests.push_back(r);
    }
  }
  return requests;
}

// ---------------------------------------------------------------------------
// Async-server saturation: an open-loop arrival sweep against the epoll
// server over a real loopback socket, warm-cache requests so the measured
// path is framing + queueing + serving, not prediction compute. Open-loop
// means requests are sent on a fixed schedule whether or not earlier ones
// completed — the honest way to find the knee, since a closed-loop client
// self-throttles exactly when the server saturates. Per offered rate the
// counters report achieved throughput, client-observed latency
// percentiles, shed responses, and a `past_knee` marker (achieved < 90% of
// offered). Quick scale: one pass per rate in CI; the sweep's shape (knee
// between the low and high rates), not the absolute numbers, is the
// portable signal.

bool BenchSendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool BenchReadFrame(int fd, std::string* buffer,
                    service::wire::FrameHeader* header, std::string* payload) {
  namespace wire = service::wire;
  while (true) {
    size_t consumed = 0;
    std::string_view view;
    std::string error;
    const wire::FrameStatus status =
        wire::NextFrame(*buffer, wire::kDefaultMaxPayload, &consumed, header,
                        &view, &error);
    if (status == wire::FrameStatus::kError) return false;
    if (status == wire::FrameStatus::kFrame) {
      payload->assign(view);
      buffer->erase(0, consumed);
      return true;
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

void BM_ServiceSaturation(benchmark::State& state) {
  namespace wire = service::wire;
  using Clock = std::chrono::steady_clock;
  const double offered_rps = static_cast<double>(state.range(0));
  constexpr size_t kRequestsPerPass = 64;

  service::PredictionService& svc = SweepService();
  svc.ClearCaches();
  // Every request in the open-loop stream cycles through this batch, so
  // one warm pass makes the serving path pure cache hits.
  const auto batch = ServiceBatch();
  for (const service::ServiceRequest& request : batch) {
    benchmark::DoNotOptimize(
        svc.ServeOnShard(svc.registry().ShardOf(request.dataset), request));
  }

  service::AsyncServerOptions options;
  options.shard_queue_capacity = 16;
  service::AsyncServer server(&svc, options);
  std::string error;
  if (!server.Start(&error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = wire::HostToNet16(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    state.SkipWithError("cannot connect to the bench server");
    server.Stop();
    server.Wait();
    return;
  }

  // Pre-encode the stream; ids are 1-based indices so the reader can map a
  // response back to its send timestamp.
  std::vector<std::string> frames(kRequestsPerPass);
  for (size_t i = 0; i < kRequestsPerPass; ++i) {
    service::ServiceRequest request = batch[i % batch.size()];
    request.id = i + 1;
    frames[i] = wire::EncodePredictRequest(request);
  }

  std::vector<double> latencies_ms;
  uint64_t completed = 0;
  uint64_t shed = 0;
  double elapsed_s = 0.0;
  for (auto _ : state) {
    // Send timestamps as atomic ns-since-start: written by the sender,
    // read by the reader once the matching response arrives.
    std::vector<std::atomic<int64_t>> sent_at_ns(kRequestsPerPass + 1);
    const auto start = Clock::now();
    const auto interval =
        std::chrono::duration<double>(1.0 / offered_rps);
    // Open-loop sender: fixed schedule, deaf to completions.
    std::thread sender([&] {
      for (size_t i = 0; i < kRequestsPerPass; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i)));
        sent_at_ns[i + 1].store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count(),
            std::memory_order_release);
        BenchSendAll(fd, frames[i]);
      }
    });
    std::string buffer;
    for (size_t i = 0; i < kRequestsPerPass; ++i) {
      wire::FrameHeader header;
      std::string payload;
      if (!BenchReadFrame(fd, &buffer, &header, &payload)) break;
      const auto now = Clock::now();
      if ((header.flags & wire::kFlagShed) != 0) {
        ++shed;
        continue;
      }
      ++completed;
      if (header.id >= 1 && header.id <= kRequestsPerPass) {
        const int64_t sent_ns =
            sent_at_ns[header.id].load(std::memory_order_acquire);
        const int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                .count();
        latencies_ms.push_back(static_cast<double>(now_ns - sent_ns) / 1e6);
      }
    }
    sender.join();
    elapsed_s +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  close(fd);
  server.Stop();
  server.Wait();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto percentile = [&](double q) {
    if (latencies_ms.empty()) return 0.0;
    const size_t index = static_cast<size_t>(
        q * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[index];
  };
  const double achieved_rps =
      elapsed_s > 0.0 ? static_cast<double>(completed) / elapsed_s : 0.0;
  state.counters["offered_rps"] = offered_rps;
  state.counters["achieved_rps"] = achieved_rps;
  state.counters["latency_p50_ms"] = percentile(0.50);
  state.counters["latency_p90_ms"] = percentile(0.90);
  state.counters["latency_p99_ms"] = percentile(0.99);
  state.counters["shed"] = static_cast<double>(shed);
  state.counters["past_knee"] =
      achieved_rps < 0.9 * offered_rps ? 1.0 : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(completed));
}
BENCHMARK(BM_ServiceSaturation)
    ->Arg(200)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
