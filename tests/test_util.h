#ifndef HDIDX_TESTS_TEST_UTIL_H_
#define HDIDX_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "geometry/kernels.h"
#include "index/rtree.h"
#include "service/prediction_service.h"
#include "workload/query_workload.h"

namespace hdidx::testing {

/// Small clustered dataset shared by many tests: deterministic for a given
/// seed, sized for sub-second index builds.
data::Dataset SmallClustered(size_t n, size_t dim, uint64_t seed);

/// A dataset of values.size() / dim rows copied from the row-major
/// `values`, whose size must be a multiple of dim.
data::Dataset DatasetOf(const std::vector<float>& values, size_t dim);

/// `n` points on a line segment through the center of [0,1]^dim, in a
/// random direction, with Gaussian jitter of deviation `jitter`. Its
/// fractal dimensionality is ~1 whatever dim is: the fractal estimators'
/// reference shape.
data::Dataset GenerateLine(size_t n, size_t dim, double jitter,
                           common::Rng* rng);

/// The canonical bytes of a prediction: wire::EncodePredictResponse of
/// `response` with its serving metadata (id, shard, latency_ms, cache_hit,
/// workload_cache_hit, served_io) cleared. Doubles are raw IEEE-754 bits,
/// so equal bytes mean bit-identical results, or the same error text.
std::string CanonicalBytes(service::ServiceResponse response, bool per_query);

/// Structural invariants every bulk-loaded tree must satisfy:
///  * every point appears in exactly one leaf range;
///  * every leaf MBR contains its points;
///  * every directory MBR contains its children's MBRs;
///  * child levels are exactly one below their parent's;
///  * leaf ranges tile [0, n) without gaps or overlaps.
/// Reports failures through GoogleTest expectations.
void ExpectValidTree(const index::RTree& tree, const data::Dataset& data,
                     size_t expected_leaf_level);

/// Bit-identity of two builds: same node ids, levels, child lists, leaf
/// ranges, page weights, exact MBR floats, leaf order and point
/// permutation. This is the build-equivalence contract the parallel bulk
/// loader guarantees against the serial one; `what` labels failures (e.g.
/// "4 threads vs serial").
void ExpectTreesIdentical(const index::RTree& expected,
                          const index::RTree& actual, const char* what);

/// Leaf and directory pages core::MeasureLeafAccesses charges one query.
struct MeasuredPages {
  size_t leaves = 0;
  size_t dirs = 0;
};

/// Measures query 0 of the one-query `region` on `tree`; the directory
/// pages are the charged I/O beyond the leaf pages.
MeasuredPages MeasureOneQuery(const index::RTree& tree,
                              const workload::QueryRegions& region);

/// MeasureOneQuery for the sphere (center, radius).
MeasuredPages MeasureSphere(const index::RTree& tree,
                            std::span<const float> center, double radius);

/// geometry::kernels::KthDistanceScans run as a one-query tile: the k-th
/// smallest squared distance from `query` to the rows, `exclude_row`
/// skipped.
double OneQueryKthScan(std::span<const float> query, size_t exclude_row,
                       std::span<const float> rows, size_t dim, size_t k,
                       geometry::kernels::KernelMode mode);

}  // namespace hdidx::testing

#endif  // HDIDX_TESTS_TEST_UTIL_H_
