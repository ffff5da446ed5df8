// The parallel execution layer's headline invariant: every library entry
// point that fans out on an ExecutionContext produces bit-identical results
// for every thread count (see src/common/parallel.h for the contract). These
// tests run the refactored paths under explicit 1/2/8-thread pools and
// compare exact bit patterns — EXPECT_EQ on doubles, not EXPECT_NEAR.

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "geometry/kernels.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/knn.h"
#include "index/topology.h"
#include "io/paged_file.h"
#include "test_util.h"
#include "workload/query_workload.h"

namespace hdidx {
namespace {

// Runs `fn(ctx)` under pools of 1, 2 and 8 threads and returns the three
// results for comparison.
template <typename Fn>
auto RunAtThreadCounts(Fn&& fn) {
  using Result = decltype(fn(common::ExecutionContext()));
  std::vector<Result> results;
  for (size_t threads : {1u, 2u, 8u}) {
    common::ThreadPool pool(threads);
    const common::ExecutionContext ctx(&pool);
    results.push_back(fn(ctx));
  }
  return results;
}

TEST(ParallelDeterminismTest, WorkloadCreateBitIdentical) {
  const auto data = hdidx::testing::SmallClustered(2000, 8, 21);
  const auto runs = RunAtThreadCounts([&](const common::ExecutionContext& ctx) {
    common::Rng rng(5);
    return workload::QueryWorkload::Create(data, 40, 7, &rng, ctx);
  });
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].num_queries(), runs[0].num_queries());
    EXPECT_EQ(runs[r].query_rows(), runs[0].query_rows());
    for (size_t i = 0; i < runs[0].num_queries(); ++i) {
      EXPECT_EQ(runs[r].radius(i), runs[0].radius(i)) << "query " << i;
    }
  }
}

TEST(ParallelDeterminismTest, PredictWithMiniIndexBitIdentical) {
  const auto data = hdidx::testing::SmallClustered(3000, 8, 25);
  const index::TreeTopology topo(data.size(), 33, 16);
  common::Rng wrng(7);
  const workload::QueryWorkload queries =
      workload::QueryWorkload::Create(data, 30, 11, &wrng);
  core::MiniIndexParams params;
  params.sampling_fraction = 0.2;
  params.seed = 17;
  const auto runs = RunAtThreadCounts([&](const common::ExecutionContext& ctx) {
    return core::PredictWithMiniIndex(data, topo, queries, params, ctx);
  });
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].avg_leaf_accesses, runs[0].avg_leaf_accesses);
    EXPECT_EQ(runs[r].per_query_accesses, runs[0].per_query_accesses);
    EXPECT_EQ(runs[r].num_predicted_leaves, runs[0].num_predicted_leaves);
    EXPECT_EQ(runs[r].sigma_upper, runs[0].sigma_upper);
  }
}

TEST(ParallelDeterminismTest, MeasureLeafAccessesBitIdenticalWithIo) {
  const auto data = hdidx::testing::SmallClustered(2500, 6, 27);
  const index::TreeTopology topo(data.size(), 33, 16);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  common::Rng wrng(9);
  const workload::QueryWorkload queries =
      workload::QueryWorkload::Create(data, 35, 9, &wrng);
  struct Run {
    std::vector<double> accesses;
    io::IoStats io;
  };
  const auto runs = RunAtThreadCounts([&](const common::ExecutionContext& ctx) {
    Run run;
    run.accesses = core::MeasureLeafAccesses(tree, queries, &run.io, ctx);
    return run;
  });
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].accesses, runs[0].accesses);
    EXPECT_EQ(runs[r].io.page_seeks, runs[0].io.page_seeks);
    EXPECT_EQ(runs[r].io.page_transfers, runs[0].io.page_transfers);
  }
}

// The kernel-mode extension of the same contract: HDIDX_KERNEL=scalar and
// the batched default must produce bit-identical results for every thread
// count. One pass per (mode, threads) combination over every kernelized
// entry point — workload radii, mini-index and resampled predictions, tree
// leaf-access measurement, tree k-NN search, tree layout digests — all compared
// exactly against the scalar single-thread reference.
TEST(ParallelDeterminismKernelTest, ScalarAndBatchedBitIdentical) {
  namespace gk = geometry::kernels;
  const auto data = hdidx::testing::SmallClustered(4000, 12, 31);
  const index::TreeTopology topo(data.size(), 33, 8);
  ASSERT_GE(topo.height(), 3u);

  struct Run {
    std::vector<double> radii;
    std::vector<double> mini_accesses;
    std::vector<double> resampled_accesses;
    std::vector<double> measured;
    uint64_t measured_pages = 0;
    std::vector<size_t> knn_neighbors;
    std::vector<double> knn_kth;
    uint64_t digest = 0;
  };
  const auto run_once = [&](const common::ExecutionContext& ctx) {
    Run run;
    // Workload creation: the query-tiled KthDistanceScans.
    common::Rng wrng(7);
    const workload::QueryWorkload queries =
        workload::QueryWorkload::Create(data, 30, 9, &wrng, ctx);
    for (size_t i = 0; i < queries.num_queries(); ++i) {
      run.radii.push_back(queries.radius(i));
    }

    // Mini-index prediction: CountSphereHits over the leaf slab.
    core::MiniIndexParams mini_params;
    mini_params.sampling_fraction = 0.2;
    mini_params.seed = 17;
    run.mini_accesses =
        core::PredictWithMiniIndex(data, topo, queries, mini_params, ctx)
            .per_query_accesses;

    // Resampled prediction: NearestBox assignment + CountSphereHits.
    io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
    core::ResampledParams res_params;
    res_params.memory_points = 800;
    res_params.h_upper = 2;
    res_params.seed = 9;
    run.resampled_accesses =
        core::PredictWithResampledTree(&file, topo, queries, res_params, ctx)
            .per_query_accesses;

    // Leaf-access measurement (AppendSphereHits over per-node child slabs),
    // k-NN search (BoundedPairHeap leaf scans) and the layout digest.
    index::BulkLoadOptions options;
    options.topology = &topo;
    options.exec = &ctx;
    const index::RTree tree = index::BulkLoadInMemory(data, options);
    run.digest = index::TreeLayoutDigest(tree);
    io::IoStats measured_io;
    run.measured = core::MeasureLeafAccesses(tree, queries, &measured_io, ctx);
    run.measured_pages = measured_io.page_seeks;
    for (size_t i = 0; i < queries.num_queries(); ++i) {
      const auto knn = index::TreeKnnSearch(tree, data, queries.queries().row(i),
                                            /*k=*/5);
      run.knn_neighbors.insert(run.knn_neighbors.end(), knn.neighbors.begin(),
                               knn.neighbors.end());
      run.knn_kth.push_back(knn.kth_distance);
    }
    return run;
  };

  // Every kernel mode the host can run (scalar oracle first, then the
  // generic lanes and each reachable SIMD ISA) crossed with thread counts:
  // all runs, including the TreeLayoutDigest, must be bit-identical.
  std::vector<Run> runs;
  std::vector<std::string> labels;
  for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
    gk::SetKernelMode(mode);
    for (const size_t threads : {1u, 2u, 8u}) {
      common::ThreadPool pool(threads);
      const common::ExecutionContext ctx(&pool);
      runs.push_back(run_once(ctx));
      labels.push_back(std::string(gk::KernelModeName(mode)) + "/" +
                       std::to_string(threads) + "-thread");
    }
  }
  gk::ClearKernelModeOverride();

  for (size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE(labels[r] + " vs scalar/1-thread");
    EXPECT_EQ(runs[r].radii, runs[0].radii);
    EXPECT_EQ(runs[r].mini_accesses, runs[0].mini_accesses);
    EXPECT_EQ(runs[r].resampled_accesses, runs[0].resampled_accesses);
    EXPECT_EQ(runs[r].measured, runs[0].measured);
    EXPECT_EQ(runs[r].measured_pages, runs[0].measured_pages);
    EXPECT_EQ(runs[r].knn_neighbors, runs[0].knn_neighbors);
    EXPECT_EQ(runs[r].knn_kth, runs[0].knn_kth);
    EXPECT_EQ(runs[r].digest, runs[0].digest);
  }
}

}  // namespace
}  // namespace hdidx
