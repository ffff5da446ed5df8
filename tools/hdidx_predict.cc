// hdidx_predict: predict (and optionally measure) the k-NN query cost of a
// VAMSplit R*-tree over a dataset file, straight from the command line.
//
// Usage:
//   hdidx_predict --data data.hdx [--method resampled|cutoff|mini]
//                 [--memory 10000] [--h-upper N] [--queries 500] [--k 21]
//                 [--page-bytes 8192] [--seed 1] [--threads 8]
//                 [--measure] [--confidence-runs 5]
//
// Prints the predicted average leaf page accesses per query, the
// prediction's own simulated I/O cost, and — with --measure — the on-disk
// ground truth and relative error (Table 3 style). --confidence-runs adds a
// Student-t 95% interval across independent sample draws.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "common/random.h"
#include "common/stats.h"
#include "core/confidence.h"
#include "core/predictor.h"
#include "data/csv.h"
#include "data/dataset_io.h"
#include "flags.h"
#include "index/external_build.h"
#include "index/topology.h"
#include "io/paged_file.h"
#include "service/prediction_service.h"
#include "workload/query_workload.h"

int main(int argc, char** argv) {
  using namespace hdidx;
  const tools::Flags flags(
      argc, argv,
      {"data", "method", "memory", "h-upper", "queries", "k", "page-bytes",
       "seed", "threads", "measure", "confidence-runs", "csv-header",
       "csv-skip-columns"});
  flags.ExitOnError("usage: hdidx_predict --data FILE [options]\n");
  // Size the shared pool before any prediction work; results are identical
  // for every thread count (see README "Parallel execution").
  tools::ApplyThreadsFlag(flags);

  const std::string path = flags.GetString("data", "");
  const bool measure = flags.GetBool("measure");
  const size_t ci_runs = flags.GetUint("confidence-runs", 0);
  if (path.empty()) {
    std::fprintf(stderr, "usage: hdidx_predict --data FILE [options]\n");
    return 2;
  }
  std::string error;
  // .csv files go through the text importer; anything else is the binary
  // format written by hdidx_gen / WriteDataset.
  std::optional<data::Dataset> loaded;
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv") {
    data::CsvOptions csv;
    csv.has_header = flags.GetBool("csv-header");
    csv.skip_columns = flags.GetUint("csv-skip-columns", 0);
    flags.ExitOnError();
    loaded = data::ReadCsv(path, csv, &error);
  } else {
    loaded = data::ReadDataset(path, &error);
  }
  if (!loaded.has_value()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const data::Dataset& dataset = *loaded;

  // The request checks are the prediction service's own, so the CLI
  // refuses (exit 2, the service's message) exactly what the service would
  // answer with an error response.
  service::ServiceRequest request;
  request.method = flags.GetString("method", "resampled");
  request.memory = flags.GetUint("memory", 10000);
  request.num_queries = flags.GetUint("queries", 500);
  request.k = flags.GetUint("k", 21);
  request.seed = flags.GetUint("seed", 1);
  request.page_bytes = flags.GetUint("page-bytes", 8192);
  const bool explicit_h_upper = !flags.GetString("h-upper", "").empty();
  const uint64_t h_upper_flag = flags.GetUint("h-upper", 0);
  flags.ExitOnError();
  const std::string invalid = service::ValidateRequest(request, dataset);
  if (!invalid.empty()) {
    std::fprintf(stderr, "error: %s\n", invalid.c_str());
    return 2;
  }

  io::DiskModel disk;
  disk.page_bytes = request.page_bytes;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);
  const std::string& method = request.method;
  // A budget of N points already holds the whole dataset, so larger budgets
  // are run as N, as the prediction service does.
  const size_t memory = std::min<size_t>(request.memory, dataset.size());
  const size_t q = request.num_queries;
  const size_t k = request.k;
  const uint64_t seed = request.seed;
  // The upper tree must stop above the leaves: 1 <= h_upper < height.
  if (explicit_h_upper &&
      (h_upper_flag < 1 || h_upper_flag >= topology.height())) {
    std::fprintf(stderr,
                 "error: --h-upper must be in [1, %zu] for this index "
                 "(height %zu), got %llu\n",
                 topology.height() - 1, topology.height(),
                 static_cast<unsigned long long>(h_upper_flag));
    return 2;
  }

  std::printf("dataset:  %zu points x %zu dims (%s)\n", dataset.size(),
              dataset.dim(), path.c_str());
  std::printf("index:    height %zu, %zu leaf pages, C_data=%zu, C_dir=%zu\n",
              topology.height(), topology.NumLeaves(),
              topology.data_capacity(), topology.dir_capacity());
  std::printf("workload: %zu density-biased %zu-NN queries\n", q, k);
  std::printf("threads:  %zu\n", common::ThreadCount());

  common::Rng rng(seed);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, q, k, &rng);

  auto predict_once = [&](uint64_t prediction_seed) {
    return service::PredictRequest(request, dataset, topology, workload,
                                   explicit_h_upper ? h_upper_flag : 0,
                                   prediction_seed,
                                   common::DefaultExecutionContext());
  };

  const core::PredictionResult result = predict_once(seed + 1);
  std::printf("\nmethod:   %s (M=%zu, h_upper=%zu, sigma_upper=%.4f, "
              "sigma_lower=%.4f)\n",
              method.c_str(), memory, result.h_upper, result.sigma_upper,
              result.sigma_lower);
  std::printf("predicted: %.1f leaf page accesses per query\n",
              result.avg_leaf_accesses);
  std::printf("prediction I/O: %llu seeks + %llu transfers = %.3f s\n",
              static_cast<unsigned long long>(result.io.page_seeks),
              static_cast<unsigned long long>(result.io.page_transfers),
              result.io.CostSeconds(disk));

  if (ci_runs >= 2) {
    const auto ci = core::EstimateWithConfidence(
        [&](uint64_t s) { return predict_once(s).avg_leaf_accesses; },
        ci_runs, seed + 100);
    std::printf("95%% interval over %zu draws: %.1f +- %.1f  [%.1f, %.1f]\n",
                ci.runs, ci.mean, ci.hi - ci.mean, ci.lo, ci.hi);
  }

  if (measure) {
    std::printf("\nbuilding the on-disk index for ground truth...\n");
    io::PagedFile file = io::PagedFile::FromDataset(dataset, disk);
    index::ExternalBuildOptions build;
    build.topology = &topology;
    build.memory_points = memory;
    build.exec = &common::DefaultExecutionContext();
    const index::ExternalBuildResult on_disk =
        index::BuildOnDisk(&file, build);
    io::IoStats query_io;
    const double measured = common::Mean(
        core::MeasureLeafAccesses(on_disk.tree, workload, &query_io));
    std::printf("measured:  %.1f leaf page accesses per query\n", measured);
    std::printf("relative error: %+.1f%%\n",
                100.0 * common::RelativeError(result.avg_leaf_accesses,
                                              measured));
    std::printf("on-disk I/O (build + queries): %.3f s (%.0fx the "
                "prediction)\n",
                (on_disk.io + query_io).CostSeconds(disk),
                (on_disk.io + query_io).CostSeconds(disk) /
                    std::max(1e-9, result.io.CostSeconds(disk)));
  }
  return 0;
}
