#ifndef HDIDX_INDEX_EXTERNAL_BUILD_H_
#define HDIDX_INDEX_EXTERNAL_BUILD_H_

#include "index/bulk_loader.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "io/io_stats.h"
#include "io/paged_file.h"

namespace hdidx::index {

/// Options for the simulated on-disk bulk load.
struct ExternalBuildOptions {
  /// Topology of the index being built.
  const TreeTopology* topology = nullptr;
  /// Memory size M in points: the working buffer for in-memory finishing
  /// and the chunk size of the external passes, and the budget that places
  /// kAdaptiveSample's bucket level (BulkLoadOptions::memory_points). Must
  /// be at least the data page capacity.
  size_t memory_points = 0;
  /// How the external partitioning works (see SplitStrategy). The classic
  /// strategies drive the multi-pass external quickselect; kAdaptiveSample
  /// replaces it with one sample pass choosing the whole split-plane tree
  /// and one streaming classification pass.
  SplitStrategy split_strategy = SplitStrategy::kMaxVariance;
  /// Execution resources. For the build *order* this is a no-op — the
  /// external point source declares itself single-owner
  /// (PointSource::Concurrency), so BulkLoad always runs its build plan
  /// depth-first: every PagedFile access — whose seek charging is
  /// order-sensitive — happens on the calling thread in depth-first order,
  /// and the resulting IoStats are identical for every thread count. The
  /// external build itself starts no threads.
  const common::ExecutionContext* exec = nullptr;
};

/// Per-phase attribution of every seek and transfer an external build
/// charges. The phases partition the build's total I/O exactly — see
/// AuditExternalBuildIo — so a new code path that charges (or forgets to
/// charge) I/O outside its phase is caught at build time, not in a drifted
/// benchmark three PRs later.
struct ExternalBuildIo {
  /// Sample pass over the file choosing the split-plane tree
  /// (kAdaptiveSample only; zero otherwise).
  io::IoStats sample;
  /// External repartitioning: quickselect classification passes through the
  /// scratch file and the charged variance and max-extent box scans of
  /// ranges larger than M (classic strategies), or the streaming
  /// classification, per-bucket staging, and gather reads
  /// (kAdaptiveSample).
  io::IoStats partition;
  /// In-memory finishing: the read of each M-point window over a file range
  /// and the leaf-order write-back of finished subtrees.
  io::IoStats finish;
  /// The final sequential write of all directory pages.
  io::IoStats directory;

  io::IoStats Total() const { return sample + partition + finish + directory; }
};

/// CHECK-fails unless `phases` exactly accounts for `observed` (the total
/// I/O delta measured on the build's files plus the synthesized directory
/// write): each phase must be internally valid (IoStats::Validate) and the
/// phase sum must equal the observation to the seek and the transfer.
/// BuildOnDisk runs this on every build; exposed so tests can feed it
/// corrupted tallies and pin the failure mode.
void AuditExternalBuildIo(const ExternalBuildIo& phases,
                          const io::IoStats& observed);

/// Result of an on-disk bulk load: the finished tree plus every seek and
/// page transfer the construction incurred (data passes, external
/// partitioning through the scratch file, and leaf write-back).
struct ExternalBuildResult {
  RTree tree;
  io::IoStats io;
  /// Where `io` came from, phase by phase (audited: phases sum to io).
  ExternalBuildIo phases;
  /// Always 0; kept only because perfbench still reads it.
  double overlap_ratio = 0.0;
};

/// Bulk-loads the paper's "on-disk index tree" (Section 4.1) over `file`,
/// charging all I/O.
///
/// This runs the same level-wise VAMSplit algorithm as the in-memory loader
/// through a PointSource that owns an M-point memory window: ranges larger
/// than M are partitioned by external quickselect (sequential classification
/// passes through a scratch file, pivot = median of the first chunk, with a
/// midrange-pivot fallback against duplicate-heavy dimensions); once a range
/// fits in M points its read is charged once, the whole subtree under it is
/// finished by the in-memory loader's own InMemoryPointSource over the
/// file's rows in place, and the points are written back in leaf order —
/// the data pages of a bulk-loaded R-tree are exactly this final point
/// order. Directory pages are charged as one sequential write at the end.
///
/// With split_strategy == kAdaptiveSample the quickselect passes are
/// replaced by the sample-first pipeline (index/adaptive_build.h): a sample
/// pass chooses every split plane up front, a single streaming pass — each
/// chunk charged in order and read in place — classifies each page's points
/// into per-bucket staging runs on the scratch file, and the classified stream
/// is finished in memory one memory-sized group of whole bucket-level roots
/// at a time, each group a window over its staged rows in place (one charged
/// read per coalesced extent, no copy). The whole build touches the data
/// a constant number of times instead of once per quickselect pass per
/// level.
///
/// The file's contents are physically reordered into leaf order; the
/// returned tree's order() is the identity.
///
/// This is the measurement baseline every prediction is compared against:
/// its I/O cost is the paper's cost_OnDisk, and queries measured on the
/// returned tree are the ground truth for relative errors.
ExternalBuildResult BuildOnDisk(io::PagedFile* file,
                                const ExternalBuildOptions& options);

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_EXTERNAL_BUILD_H_
