#include "apps/page_size_tuner.h"

#include <algorithm>

#include "common/check.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "index/bulk_loader.h"
#include "index/topology.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

namespace hdidx::apps {

std::vector<PageSizePoint> TunePageSize(const data::Dataset& data,
                                        const PageSizeTunerConfig& config) {
  HDIDX_CHECK(!data.empty());
  common::Rng rng(config.seed);
  // The k-NN spheres depend only on the data, not on the page size: one
  // workload serves the whole sweep.
  const workload::QueryWorkload workload = workload::QueryWorkload::Create(
      data, config.num_queries, config.k, &rng);

  std::vector<PageSizePoint> points;
  points.reserve(config.page_sizes_bytes.size());
  for (size_t page_bytes : config.page_sizes_bytes) {
    io::DiskModel disk;
    disk.page_bytes = page_bytes;
    const index::TreeTopology topology =
        index::TreeTopology::FromDisk(data.size(), data.dim(), disk);

    PageSizePoint point;
    point.page_bytes = page_bytes;

    // Measurement: full in-memory build, count sphere/leaf intersections.
    index::BulkLoadOptions full;
    full.topology = &topology;
    const index::RTree tree = index::BulkLoadInMemory(data, full);
    const std::vector<double> measured =
        core::MeasureLeafAccesses(tree, workload, nullptr);
    double sum = 0.0;
    for (double v : measured) sum += v;
    point.measured_accesses = sum / static_cast<double>(measured.size());

    // Prediction: the resampled technique when the tree is tall enough for
    // an upper/lower split, the basic mini-index model otherwise.
    io::PagedFile file = io::PagedFile::View(data, disk);
    if (topology.height() >= 3) {
      core::ResampledParams params;
      params.memory_points = config.memory_points;
      params.h_upper = core::ChooseHupper(topology, config.memory_points);
      params.seed = config.seed + 17;
      const core::PredictionResult prediction =
          core::PredictWithResampledTree(&file, topology, workload, params);
      point.predicted_accesses = prediction.avg_leaf_accesses;
      point.h_upper = params.h_upper;
    } else {
      core::MiniIndexParams params;
      params.sampling_fraction =
          std::min(1.0, static_cast<double>(config.memory_points) /
                            static_cast<double>(data.size()));
      params.seed = config.seed + 17;
      const core::PredictionResult prediction =
          core::PredictWithMiniIndex(data, topology, workload, params);
      point.predicted_accesses = prediction.avg_leaf_accesses;
      point.h_upper = 0;
    }

    // Query cost: all page accesses random — one seek plus one transfer of
    // this page size each.
    const double per_access = disk.seek_time_s + disk.transfer_time_s();
    point.predicted_cost_s = point.predicted_accesses * per_access;
    point.measured_cost_s = point.measured_accesses * per_access;
    points.push_back(point);
  }
  return points;
}

size_t BestPageSize(const std::vector<PageSizePoint>& points, bool measured) {
  HDIDX_CHECK(!points.empty());
  const PageSizePoint* best = &points[0];
  for (const auto& p : points) {
    const double cost = measured ? p.measured_cost_s : p.predicted_cost_s;
    const double best_cost =
        measured ? best->measured_cost_s : best->predicted_cost_s;
    if (cost < best_cost) best = &p;
  }
  return best->page_bytes;
}

}  // namespace hdidx::apps
