// E10 / Section 5.3 tail: the very high-dimensional datasets.
//
// Paper: on STOCK360 (6,500 x 360) and ISOLET617 (7,800 x 617) the fractal
// approach is no longer applicable (too few points for the dimensionality)
// while the resampled predictor keeps errors between -8% and +0.7%.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "baselines/fractal.h"
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

namespace {

std::string RunDataset(const char* name, const hdidx::data::Dataset& dataset,
                       size_t q, size_t memory) {
  using namespace hdidx;
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);

  common::Rng rng(92);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, q, /*k=*/21, &rng);

  index::BulkLoadOptions full;
  full.topology = &topology;
  const index::RTree tree = index::BulkLoadInMemory(dataset, full);
  const double measured =
      common::Mean(core::MeasureLeafAccesses(tree, workload, nullptr));

  double predicted = 0.0;
  size_t h_upper = 0;
  if (topology.height() >= 3) {
    io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
    core::ResampledParams params;
    params.memory_points = memory;
    params.h_upper = core::ChooseHupper(topology, memory);
    params.seed = 93;
    h_upper = params.h_upper;
    predicted =
        core::PredictWithResampledTree(&file, topology, workload, params)
            .avg_leaf_accesses;
  } else {
    core::MiniIndexParams params;
    params.sampling_fraction =
        std::min(1.0, static_cast<double>(memory) /
                          static_cast<double>(dataset.size()));
    params.seed = 93;
    predicted = core::PredictWithMiniIndex(dataset, topology, workload, params)
                    .avg_leaf_accesses;
  }

  // Fractal applicability check: the paper notes the fractal approach fails
  // when N is too small for d. Flag it when the estimate is degenerate or
  // built from too few resolvable scales.
  const auto dims = baselines::EstimateFractalDimensions(dataset, 8);
  const bool fractal_ok =
      dims.fitted_levels.size() >= 3 && dims.d2 > 1e-3 &&
      static_cast<double>(dataset.size()) >= std::pow(2.0, dims.d0 + 2.0);

  char row[160];
  std::snprintf(row, sizeof(row),
                "%-10s %7zu %5zu %8zu %6zu %10.1f %10.1f %9.1f%% %10s\n", name,
                dataset.size(), dataset.dim(), topology.NumLeaves(), h_upper,
                measured, predicted,
                100 * common::RelativeError(predicted, measured),
                fractal_ok ? "yes" : "no");
  return std::string(row);
}

}  // namespace

int main() {
  using namespace hdidx;
  bench::PrintHeader(
      "Section 5.3: very high-dimensional datasets (STOCK360, ISOLET617)",
      "Lang & Singh, SIGMOD 2001, Sections 5.1/5.3 (360/617-d datasets)");

  const size_t q = bench::Scaled(50, 500);
  const size_t memory = bench::Scaled(1500, 2000);
  std::printf("%-10s %7s %5s %8s %6s %10s %10s %10s %10s\n", "dataset", "N",
              "d", "leaves", "h_up", "measured", "predicted", "rel.err",
              "fractal?");

  // The three datasets are independent configurations: each job builds its
  // own dataset and simulated file, so they run concurrently while the
  // output stays in configuration order.
  bench::RunAndPrintExperiments({
      [&] {
        return RunDataset("STOCK360",
                          data::Stock360Surrogate(bench::Scaled(3000, 6500), 91),
                          q, memory);
      },
      [&] {
        return RunDataset("ISOLET617",
                          data::Isolet617Surrogate(bench::Scaled(3000, 7800), 91),
                          q, memory);
      },
      [&] {
        return RunDataset("TEXTURE48",
                          data::Texture48Surrogate(bench::Scaled(8000, 26697), 91),
                          q, memory);
      },
  });

  std::printf("\nPaper shape: sampling still predicts within single-digit "
              "percent errors at\n360-617 dimensions, where the fractal "
              "approach is no longer applicable.\n");
  return 0;
}
