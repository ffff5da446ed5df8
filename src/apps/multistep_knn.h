#ifndef HDIDX_APPS_MULTISTEP_KNN_H_
#define HDIDX_APPS_MULTISTEP_KNN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "index/knn.h"
#include "io/io_stats.h"

namespace hdidx::apps {

/// The optimal multi-step k-NN algorithm of Seidl and Kriegel [30], which
/// Section 6.2 builds on: an index over a (KLT-ordered) prefix of the
/// dimensions serves as the filter, an object server holding the full
/// vectors as the refiner.
///
/// The algorithm consumes an incremental ranking of the index (points in
/// ascending reduced-space distance, produced lazily from the tree via a
/// Hjaltason-Samet priority queue) and refines candidates until the next
/// reduced-space distance exceeds the current exact k-th distance. Because
/// the reduced-space distance lower-bounds the full-space distance (a
/// projection never increases L2), the result is exactly the full-space
/// k-NN, and the number of refinements is provably minimal.
struct MultiStepResult {
  /// Row ids of the k nearest points in the FULL space, ascending.
  std::vector<size_t> neighbors;
  double kth_distance = 0.0;
  /// Index pages read by the incremental ranking (leaves + directory).
  index::AccessCount index_accesses;
  /// Object-server fetches (one full vector each — the filter step's
  /// survivors).
  size_t refinements = 0;
  /// Simulated I/O: index pages + refinements, all random.
  io::IoStats io;
};

/// Runs the search. `index_tree` must be built over `projected` (the first
/// projected.dim() dimensions of `full`); `query_full` has full
/// dimensionality. k must be >= 1 and <= full.size().
MultiStepResult MultiStepKnn(const index::RTree& index_tree,
                             const data::Dataset& projected,
                             const data::Dataset& full,
                             std::span<const float> query_full, size_t k);

}  // namespace hdidx::apps

#endif  // HDIDX_APPS_MULTISTEP_KNN_H_
