// E4 / Table 3: relative error and I/O cost of all approaches on TEXTURE60
// with memory M ~ 3.6% of N (the paper's M = 10,000 for N = 275,465).
//
// Paper rows (M = 10,000): on-disk 0% / 4,460 s; resampled h=2 -32%,
// h=3 +3%, h=4 +17% at 14-66 s; cutoff -64%/-27%/-16% at 8.5 s.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "index/external_build.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

int main() {
  using namespace hdidx;
  bench::PrintHeader(
      "Table 3: relative error and I/O cost (TEXTURE60, M ~ 3.6% of N)",
      "Lang & Singh, SIGMOD 2001, Section 5, Table 3");

  const size_t n = bench::Scaled(30000, 275465);
  const size_t q = bench::Scaled(60, 500);
  const size_t memory = bench::Scaled(1100, 10000);
  const data::Dataset dataset = data::Texture60Surrogate(n, /*seed=*/31);
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);
  std::printf("N=%zu d=%zu M=%zu height=%zu leaves=%zu\n\n", dataset.size(),
              dataset.dim(), memory, topology.height(), topology.NumLeaves());

  common::Rng rng(32);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, q, /*k=*/21, &rng);

  // Ground truth: on-disk bulk load (charged) + charged queries.
  io::PagedFile build_file = io::PagedFile::FromDataset(dataset, disk);
  index::ExternalBuildOptions build;
  build.topology = &topology;
  build.memory_points = memory;
  const index::ExternalBuildResult on_disk =
      index::BuildOnDisk(&build_file, build);
  io::IoStats query_io;
  const double measured = common::Mean(
      core::MeasureLeafAccesses(on_disk.tree, workload, &query_io));

  std::printf("%-34s %10s %12s %14s %12s\n", "Method", "Rel.err",
              "Page seeks", "Page xfers", "I/O cost(s)");
  std::printf("%-34s %10s %6llu+%-6llu %7llu+%-7llu %12.3f\n", "On-disk",
              "0%", static_cast<unsigned long long>(on_disk.io.page_seeks),
              static_cast<unsigned long long>(query_io.page_seeks),
              static_cast<unsigned long long>(on_disk.io.page_transfers),
              static_cast<unsigned long long>(query_io.page_transfers),
              (on_disk.io + query_io).CostSeconds(disk));

  char label[80];
  for (size_t h = 2; h <= topology.height() - 1; ++h) {
    io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
    core::ResampledParams params;
    params.memory_points = memory;
    params.h_upper = h;
    params.seed = 33;
    const core::PredictionResult r =
        core::PredictWithResampledTree(&file, topology, workload, params);
    std::snprintf(label, sizeof(label),
                  "Resampled (h=%zu, su=%.4f, sl=%.4f)", h, r.sigma_upper,
                  r.sigma_lower);
    std::printf("%-34s %9.0f%% %12llu %14llu %12.3f\n", label,
                100 * common::RelativeError(r.avg_leaf_accesses, measured),
                static_cast<unsigned long long>(r.io.page_seeks),
                static_cast<unsigned long long>(r.io.page_transfers),
                r.io.CostSeconds(disk));
  }
  for (size_t h = 2; h <= topology.height() - 1; ++h) {
    io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
    core::CutoffParams params;
    params.memory_points = memory;
    params.h_upper = h;
    params.seed = 33;
    const core::PredictionResult r =
        core::PredictWithCutoffTree(&file, topology, workload, params);
    std::snprintf(label, sizeof(label), "Cutoff (h=%zu, su=%.4f)", h,
                  r.sigma_upper);
    std::printf("%-34s %9.0f%% %12llu %14llu %12.3f\n", label,
                100 * common::RelativeError(r.avg_leaf_accesses, measured),
                static_cast<unsigned long long>(r.io.page_seeks),
                static_cast<unsigned long long>(r.io.page_transfers),
                r.io.CostSeconds(disk));
  }

  std::printf("\nMeasured avg leaf accesses: %.1f; chosen h_upper rule picks "
              "h=%zu.\n",
              measured, core::ChooseHupper(topology, memory));
  std::printf("Paper shape: resampled underestimates at small h, is most "
              "accurate when\nsigma_lower reaches 1, overestimates beyond; "
              "cutoff is cheapest but least\naccurate; both are 1-2 orders "
              "of magnitude cheaper than on-disk.\n");
  return 0;
}
