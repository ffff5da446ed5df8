#include "apps/dim_selector.h"

#include <algorithm>

#include "common/check.h"
#include "core/hupper.h"
#include "geometry/distance.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "index/bulk_loader.h"
#include "index/topology.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

namespace hdidx::apps {

std::vector<DimPoint> EvaluateIndexDims(const data::Dataset& data,
                                        const DimSelectorConfig& config) {
  HDIDX_CHECK(!data.empty());
  common::Rng rng(config.seed);
  // Full-space workload: the multi-step filter radius is the exact k-NN
  // distance in the original space.
  const workload::QueryWorkload full_workload =
      workload::QueryWorkload::Create(data, config.num_queries, config.k,
                                      &rng);

  std::vector<DimPoint> points;
  points.reserve(config.index_dims.size());
  const io::DiskModel disk;

  // One uniform sample serves the refinement estimates of the whole sweep
  // (drawn exactly like the predictors' upper-tree sample).
  common::Rng sample_rng(config.seed + 97);
  std::vector<size_t> sample_rows;
  sample_rng.SampleIndices(data.size(),
                           std::min(config.memory_points, data.size()),
                           &sample_rows);
  const data::Dataset sample = data.Select(sample_rows);
  const double zeta =
      static_cast<double>(sample.size()) / static_cast<double>(data.size());

  for (size_t d_index : config.index_dims) {
    HDIDX_CHECK(d_index >= 1 && d_index <= data.dim());
    const data::Dataset projected = data.ProjectPrefix(d_index);
    const data::Dataset projected_queries =
        full_workload.queries().ProjectPrefix(d_index);
    // Reduced-space workload with full-space radii: same spheres the
    // multi-step search prunes against.
    const workload::QueryWorkload workload(
        projected_queries, full_workload.radii(),
        full_workload.query_rows(), config.k);

    const index::TreeTopology topology =
        index::TreeTopology::FromDisk(projected.size(), d_index, disk);

    DimPoint point;
    point.index_dims = d_index;
    point.num_leaf_pages = topology.NumLeaves();

    // Measurement on the fully built reduced-dimensional index.
    index::BulkLoadOptions full;
    full.topology = &topology;
    const index::RTree tree = index::BulkLoadInMemory(projected, full);
    const std::vector<double> measured =
        core::MeasureLeafAccesses(tree, workload, nullptr);
    double sum = 0.0;
    for (double v : measured) sum += v;
    point.measured_accesses = sum / static_cast<double>(measured.size());

    // Prediction.
    io::PagedFile file = io::PagedFile::View(projected, disk);
    if (topology.height() >= 3) {
      core::ResampledParams params;
      params.memory_points = config.memory_points;
      params.h_upper = core::ChooseHupper(topology, config.memory_points);
      params.seed = config.seed + 31;
      const core::PredictionResult prediction =
          core::PredictWithResampledTree(&file, topology, workload, params);
      point.predicted_accesses = prediction.avg_leaf_accesses;
      point.h_upper = params.h_upper;
    } else {
      core::MiniIndexParams params;
      params.sampling_fraction =
          std::min(1.0, static_cast<double>(config.memory_points) /
                            static_cast<double>(projected.size()));
      params.seed = config.seed + 31;
      const core::PredictionResult prediction =
          core::PredictWithMiniIndex(projected, topology, workload, params);
      point.predicted_accesses = prediction.avg_leaf_accesses;
    }

    // Object-server refinements: candidates within the full-space k-NN
    // radius in the reduced space. Measured exactly; predicted from the
    // sample scaled by 1/zeta.
    const data::Dataset projected_sample = sample.ProjectPrefix(d_index);
    double measured_ref = 0.0;
    double predicted_ref = 0.0;
    for (size_t qi = 0; qi < workload.num_queries(); ++qi) {
      const auto q = workload.queries().row(qi);
      const double r2 = workload.radius(qi) * workload.radius(qi);
      size_t exact = 0;
      for (size_t j = 0; j < projected.size(); ++j) {
        if (geometry::SquaredL2(projected.row(j), q) <= r2) ++exact;
      }
      size_t in_sample = 0;
      for (size_t j = 0; j < projected_sample.size(); ++j) {
        if (geometry::SquaredL2(projected_sample.row(j), q) <= r2) {
          ++in_sample;
        }
      }
      measured_ref += static_cast<double>(exact);
      predicted_ref += static_cast<double>(in_sample) / zeta;
    }
    const double q_count = static_cast<double>(workload.num_queries());
    point.measured_refinements = measured_ref / q_count;
    point.predicted_refinements = predicted_ref / q_count;

    // Total cost: index page accesses plus object-server refinements, all
    // random accesses of one page each.
    const double per_access = disk.seek_time_s + disk.transfer_time_s();
    point.measured_cost_s =
        (point.measured_accesses + point.measured_refinements) * per_access;
    point.predicted_cost_s =
        (point.predicted_accesses + point.predicted_refinements) *
        per_access;
    points.push_back(point);
  }
  return points;
}

}  // namespace hdidx::apps
