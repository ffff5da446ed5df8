// Model comparison: the Table 4 scenario as an application.
//
// Three families of cost models predict k-NN page accesses on the same
// high-dimensional clustered dataset: the uniformity-based model, the
// fractal-dimensionality model, and this library's sampling-based resampled
// predictor. On clustered high-dimensional data the first two fail in
// characteristic ways; sampling stays close to the measurement.

#include <cmath>
#include <cstdio>

#include "baselines/fractal.h"
#include "baselines/uniform_model.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/hupper.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "index/bulk_loader.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

int main() {
  using namespace hdidx;

  std::printf("Generating TEXTURE60 surrogate (25,000 x 60)...\n");
  const data::Dataset dataset = data::Texture60Surrogate(25000, /*seed=*/5);
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);

  common::Rng rng(6);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, /*q=*/80, /*k=*/21, &rng);

  // Ground truth from a fully built index.
  index::BulkLoadOptions full;
  full.topology = &topology;
  const index::RTree tree = index::BulkLoadInMemory(dataset, full);
  const double measured =
      common::Mean(core::MeasureLeafAccesses(tree, workload, nullptr));

  // Baseline 1: uniformity assumption.
  baselines::UniformModelParams uniform;
  uniform.num_points = dataset.size();
  uniform.dim = dataset.dim();
  uniform.num_leaf_pages = topology.NumLeaves();
  uniform.k = workload.k();
  const double uniform_pred =
      baselines::PredictUniformModel(uniform).predicted_accesses;

  // Baseline 2: fractal dimensionality.
  const baselines::FractalDimensions dims =
      baselines::EstimateFractalDimensions(dataset, 10);
  baselines::FractalModelParams fractal;
  fractal.num_points = dataset.size();
  fractal.num_leaf_pages = topology.NumLeaves();
  fractal.k = workload.k();
  const baselines::FractalModelResult fractal_result =
      baselines::PredictFractalModel(dims, fractal);

  // This paper: resampled sampling predictor.
  io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
  core::ResampledParams params;
  params.memory_points = 5000;
  params.h_upper = core::ChooseHupper(topology, params.memory_points);
  const double sampled_pred =
      core::PredictWithResampledTree(&file, topology, workload, params)
          .avg_leaf_accesses;

  std::printf("\nDataset: %zu points, %zu dims, %zu leaf pages (D0=%.2f, "
              "D2=%.2f)\n",
              dataset.size(), dataset.dim(), topology.NumLeaves(), dims.d0,
              dims.d2);
  std::printf("Measured leaf accesses per 21-NN query: %.1f\n\n", measured);
  std::printf("%-12s %14s %12s\n", "Method", "Pages accessed", "Rel. error");
  auto print_row = [&](const char* name, double pred) {
    std::printf("%-12s %14.0f %11.0f%%\n", name, pred,
                100.0 * common::RelativeError(pred, measured));
  };
  print_row("Uniform", uniform_pred);
  if (fractal_result.applicable) {
    print_row("Fractal", fractal_result.predicted_accesses);
  } else {
    std::printf("%-12s %14s %12s\n", "Fractal", "n/a", "n/a");
  }
  print_row("Resampled", sampled_pred);
  return 0;
}
