// E7 / Section 5.2 validation: 100,000 uniformly distributed 8-d points.
//
// Paper: for this uniform dataset (index height 3) the resampled and cutoff
// relative errors were between -0.5% and -3% — the within-page uniformity
// assumption is exact here, so both predictors nail it.

#include <cstdio>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "index/bulk_loader.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

int main() {
  using namespace hdidx;
  bench::PrintHeader(
      "Section 5.2 validation: uniformly distributed data (8-d)",
      "Lang & Singh, SIGMOD 2001, Section 5.2 (uniform-data paragraph)");

  const size_t n = bench::Scaled(40000, 100000);
  const size_t q = bench::Scaled(80, 500);
  common::Rng gen(61);
  const data::Dataset dataset = data::GenerateUniform(n, 8, &gen);
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);
  std::printf("N=%zu d=8 height=%zu leaves=%zu\n\n", n, topology.height(),
              topology.NumLeaves());

  common::Rng rng(62);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, q, /*k=*/21, &rng);

  index::BulkLoadOptions full;
  full.topology = &topology;
  const index::RTree tree = index::BulkLoadInMemory(dataset, full);
  const double measured =
      common::Mean(core::MeasureLeafAccesses(tree, workload, nullptr));
  std::printf("Measured: %.1f leaf accesses/query\n\n", measured);

  const size_t memory = bench::Scaled(4000u, 10000u);
  std::printf("%-24s %12s %12s\n", "Method", "Predicted", "Rel. error");
  for (size_t h = 2; h <= topology.height() - 1; ++h) {
    io::PagedFile f1 = io::PagedFile::FromDataset(dataset, disk);
    core::ResampledParams rp;
    rp.memory_points = memory;
    rp.h_upper = h;
    rp.seed = 63;
    const double resampled =
        core::PredictWithResampledTree(&f1, topology, workload, rp)
            .avg_leaf_accesses;
    std::printf("Resampled (h=%zu)        %13.1f %11.1f%%\n", h, resampled,
                100 * common::RelativeError(resampled, measured));

    io::PagedFile f2 = io::PagedFile::FromDataset(dataset, disk);
    core::CutoffParams cp;
    cp.memory_points = memory;
    cp.h_upper = h;
    cp.seed = 63;
    const double cutoff =
        core::PredictWithCutoffTree(&f2, topology, workload, cp)
            .avg_leaf_accesses;
    std::printf("Cutoff    (h=%zu)        %13.1f %11.1f%%\n", h, cutoff,
                100 * common::RelativeError(cutoff, measured));
  }
  std::printf("\nPaper shape: all errors within a few percent on uniform "
              "data,\nconfirming the within-page uniformity model.\n");
  return 0;
}
