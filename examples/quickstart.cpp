// Quickstart: predict the k-NN query cost of a VAMSplit R*-tree without
// building it on disk.
//
// The flow below is the library's core use case end to end:
//   1. obtain a dataset (here: a synthetic surrogate of the paper's
//      TEXTURE60 dataset, scaled down so this runs in seconds);
//   2. derive the index topology from the disk geometry;
//   3. build a density-biased 21-NN query workload;
//   4. predict the average leaf-page accesses with the resampled technique;
//   5. compare against a real (simulated on-disk) index build.

#include <cstdio>

#include "common/random.h"
#include "common/stats.h"
#include "core/hupper.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "index/external_build.h"
#include "index/topology.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

int main() {
  using namespace hdidx;

  // 1. Dataset: 30,000 60-dimensional clustered feature vectors.
  std::printf("Generating TEXTURE60 surrogate (30,000 x 60)...\n");
  const data::Dataset dataset = data::Texture60Surrogate(30000, /*seed=*/1);

  // 2. Index topology for 8 KB pages: capacities, height, leaf count.
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);
  std::printf("Index: height %zu, %zu leaf pages, C_data=%zu, C_dir=%zu\n",
              topology.height(), topology.NumLeaves(),
              topology.data_capacity(), topology.dir_capacity());

  // 3. Workload: 100 density-biased 21-NN queries with exact radii.
  common::Rng rng(2);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, /*q=*/100, /*k=*/21, &rng);

  // 4. Prediction: resampled index tree with M = 5,000 points of memory.
  const size_t memory_points = 5000;
  io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
  core::ResampledParams params;
  params.memory_points = memory_points;
  params.h_upper = core::ChooseHupper(topology, memory_points);
  const core::PredictionResult prediction =
      core::PredictWithResampledTree(&file, topology, workload, params);
  std::printf(
      "Prediction: %.1f leaf accesses/query  (h_upper=%zu, sigma_upper=%.4f, "
      "sigma_lower=%.4f)\n",
      prediction.avg_leaf_accesses, prediction.h_upper,
      prediction.sigma_upper, prediction.sigma_lower);
  std::printf("Prediction I/O: %llu seeks, %llu transfers = %.2f s\n",
              static_cast<unsigned long long>(prediction.io.page_seeks),
              static_cast<unsigned long long>(prediction.io.page_transfers),
              prediction.io.CostSeconds(disk));

  // 5. Ground truth: build the on-disk index (simulated) and measure.
  std::printf("Building the on-disk index for comparison...\n");
  io::PagedFile build_file = io::PagedFile::FromDataset(dataset, disk);
  index::ExternalBuildOptions build;
  build.topology = &topology;
  build.memory_points = memory_points;
  const index::ExternalBuildResult on_disk =
      index::BuildOnDisk(&build_file, build);
  const std::vector<double> measured =
      core::MeasureLeafAccesses(on_disk.tree, workload, nullptr);
  const double measured_avg = common::Mean(measured);

  std::printf("Measured:   %.1f leaf accesses/query\n", measured_avg);
  std::printf("Relative error: %+.1f%%\n",
              100.0 * common::RelativeError(prediction.avg_leaf_accesses,
                                            measured_avg));
  std::printf("On-disk build I/O: %.2f s vs prediction %.2f s (%.0fx)\n",
              on_disk.io.CostSeconds(disk), prediction.io.CostSeconds(disk),
              on_disk.io.CostSeconds(disk) / prediction.io.CostSeconds(disk));
  return 0;
}
