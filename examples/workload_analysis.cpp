// Workload analysis: per-query prediction quality across k and sample size.
//
// Average relative error hides inconsistency (the paper's point about the
// cutoff tree: decent averages, zero per-query correlation). This example
// inspects a workload query-by-query: it prints the measured-vs-predicted
// correlation and a coarse text scatter, and shows how prediction quality
// responds to the sampling budget.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "index/bulk_loader.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

int main() {
  using namespace hdidx;

  const data::Dataset dataset = data::Color64Surrogate(20000, /*seed=*/7);
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);
  std::printf("COLOR64 surrogate: %zu x %zu, %zu leaf pages, height %zu\n",
              dataset.size(), dataset.dim(), topology.NumLeaves(),
              topology.height());

  common::Rng rng(8);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, /*q=*/80, /*k=*/21, &rng);

  index::BulkLoadOptions full;
  full.topology = &topology;
  const index::RTree tree = index::BulkLoadInMemory(dataset, full);
  const std::vector<double> measured =
      core::MeasureLeafAccesses(tree, workload, nullptr);

  // Sweep the sampling budget (Figure 2's experiment, per query).
  std::printf("\n%-12s %12s %12s %14s\n", "sample", "pred avg", "rel err",
              "correlation");
  const double measured_avg = common::Mean(measured);
  for (double fraction : {0.02, 0.05, 0.1, 0.2, 0.5}) {
    core::MiniIndexParams params;
    params.sampling_fraction = fraction;
    const core::PredictionResult result =
        core::PredictWithMiniIndex(dataset, topology, workload, params);
    std::printf("%10.0f%% %12.1f %11.1f%% %14.3f\n", 100 * fraction,
                result.avg_leaf_accesses,
                100.0 * common::RelativeError(result.avg_leaf_accesses,
                                              measured_avg),
                common::PearsonCorrelation(result.per_query_accesses,
                                           measured));
  }

  // Per-query scatter for the restricted-memory resampled predictor.
  io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
  core::ResampledParams params;
  params.memory_points = 4000;
  params.h_upper = core::ChooseHupper(topology, params.memory_points);
  const core::PredictionResult resampled =
      core::PredictWithResampledTree(&file, topology, workload, params);

  std::printf("\nResampled predictor (M=4000, h_upper=%zu): corr=%.3f\n",
              resampled.h_upper,
              common::PearsonCorrelation(resampled.per_query_accesses,
                                         measured));
  std::printf("Correlation diagram (x: measured, y: predicted):\n");
  const double max_v =
      std::max(*std::max_element(measured.begin(), measured.end()),
               *std::max_element(resampled.per_query_accesses.begin(),
                                 resampled.per_query_accesses.end()));
  const int kGrid = 20;
  std::vector<std::vector<int>> grid(kGrid, std::vector<int>(kGrid, 0));
  for (size_t i = 0; i < measured.size(); ++i) {
    const int x = std::min(
        kGrid - 1, static_cast<int>(measured[i] / max_v * kGrid));
    const int y = std::min(
        kGrid - 1,
        static_cast<int>(resampled.per_query_accesses[i] / max_v * kGrid));
    ++grid[y][x];
  }
  for (int y = kGrid - 1; y >= 0; --y) {
    std::printf("  ");
    for (int x = 0; x < kGrid; ++x) {
      std::printf("%c", grid[y][x] == 0 ? (x == y ? '.' : ' ')
                                        : (grid[y][x] < 3 ? 'o' : 'O'));
    }
    std::printf("\n");
  }
  std::printf("  ('.' marks the ideal diagonal)\n");
  return 0;
}
