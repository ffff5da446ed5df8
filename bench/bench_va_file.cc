// E15 (extension): the VA-file — the structure Section 4.7 explicitly
// EXCLUDES from the sampling model's scope ("it does not organize points in
// pages of fixed capacity").
//
// Two things are demonstrated: (a) the VA-file's query cost follows a
// closed form — a fixed sequential approximation scan plus one random
// access per refined candidate — so it needs no layout prediction at all;
// (b) in high dimensions its exact-NN cost is competitive with the R-tree
// whose page accesses the paper predicts (the Weber et al. [33] argument
// that motivated the VA-file in the first place).

#include <cstdio>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/predictor.h"
#include "data/generators.h"
#include "index/bulk_loader.h"
#include "index/topology.h"
#include "index/va_file.h"
#include "workload/query_workload.h"

int main() {
  using namespace hdidx;
  bench::PrintHeader(
      "Extension: VA-file vs R-tree (the structure outside Section 4.7)",
      "Lang & Singh, SIGMOD 2001, Section 4.7 (VA-file exclusion)");

  const size_t n = bench::Scaled(20000, 100000);
  const size_t q = bench::Scaled(40, 200);
  const data::Dataset dataset = data::Texture60Surrogate(n, /*seed=*/81);
  const io::DiskModel disk;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk);

  common::Rng rng(82);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, q, /*k=*/21, &rng);

  // R-tree: leaf + directory accesses per query, all random.
  index::BulkLoadOptions full;
  full.topology = &topology;
  const index::RTree tree = index::BulkLoadInMemory(dataset, full);
  io::IoStats rtree_io;
  core::MeasureLeafAccesses(tree, workload, &rtree_io);
  const double rtree_cost =
      rtree_io.CostSeconds(disk) / static_cast<double>(q);

  std::printf("R-tree: %zu leaf pages, %.3f s/query (random page "
              "accesses)\n\n",
              topology.NumLeaves(), rtree_cost);

  std::printf("%6s %14s %14s %14s %14s\n", "bits", "candidates",
              "scan pages", "s/query", "vs R-tree");
  for (uint8_t bits : {4, 6, 8}) {
    index::VaFile::Options options;
    options.bits = bits;
    const index::VaFile va(&dataset, options);
    double candidates = 0.0;
    io::IoStats io;
    for (size_t i = 0; i < q; ++i) {
      const auto result =
          va.SearchKnn(workload.queries().row(i), workload.k(), disk);
      candidates += static_cast<double>(result.candidates);
      io += result.io;
    }
    const double cost = io.CostSeconds(disk) / static_cast<double>(q);
    const size_t scan_pages =
        (n * va.ApproximationBytes() + disk.page_bytes - 1) / disk.page_bytes;
    std::printf("%6d %14.1f %14zu %14.3f %13.2fx\n", int(bits),
                candidates / static_cast<double>(q), scan_pages, cost,
                rtree_cost / cost);
  }

  std::printf("\nShape: the VA-file's cost = fixed scan + candidates — a "
              "closed form with\nno page layout to estimate, which is why "
              "the paper's model excludes it;\nmore bits trade scan volume "
              "for fewer refinements.\n");
  return 0;
}
