/// Unit tests for the batched geometry kernels: exact (bit-level) agreement
/// with the retained scalar reference loops across every ISA reachable on
/// the host, slab layout/alignment/sentinel behavior, the scan exclusion
/// rules, and the mode detection/dispatch machinery.

#include "geometry/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "geometry/bounding_box.h"
#include "geometry/distance.h"
#include "geometry/isa/block_ops.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hdidx::geometry::kernels {
namespace {

using hdidx::testing::OneQueryKthScan;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the default dispatch after tests that call SetKernelMode.
struct ModeOverrideGuard {
  ~ModeOverrideGuard() { ClearKernelModeOverride(); }
};

/// Every mode runnable on this host — kScalar first, so mode sweeps always
/// compare the vector lanes against the retained oracle.
std::vector<KernelMode> AllModes() { return SupportedKernelModes(); }

/// The batched (non-scalar) modes runnable on this host.
std::vector<KernelMode> BatchedModes() {
  std::vector<KernelMode> modes = SupportedKernelModes();
  modes.erase(std::remove(modes.begin(), modes.end(), KernelMode::kScalar),
              modes.end());
  return modes;
}

std::vector<float> RandomPoint(common::Rng* rng, size_t dim, double lo = -1.0,
                               double hi = 2.0) {
  std::vector<float> p(dim);
  for (auto& v : p) v = static_cast<float>(rng->NextUniform(lo, hi));
  return p;
}

/// A random non-empty box with occasional degenerate (point) sides.
BoundingBox RandomBox(common::Rng* rng, size_t dim) {
  std::vector<float> lo(dim), hi(dim);
  for (size_t d = 0; d < dim; ++d) {
    const float a = static_cast<float>(rng->NextUniform(-1.0, 2.0));
    const float b = rng->NextBounded(5) == 0
                        ? a
                        : static_cast<float>(rng->NextUniform(-1.0, 2.0));
    lo[d] = std::min(a, b);
    hi[d] = std::max(a, b);
  }
  return BoundingBox(std::move(lo), std::move(hi));
}

TEST(BoxSlabTest, LayoutAndPadding) {
  common::Rng rng(11);
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 11; ++i) boxes.push_back(RandomBox(&rng, 3));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  EXPECT_EQ(slab.size(), 11u);
  EXPECT_EQ(slab.dim(), 3u);
  // Rounded up to a multiple of kPlaneStride (a whole cacheline of floats).
  EXPECT_EQ(slab.padded_size(), 16u);
  for (size_t d = 0; d < 3; ++d) {
    for (size_t b = 0; b < 11; ++b) {
      EXPECT_EQ(slab.lo_plane(d)[b], boxes[b].lo()[d]);
      EXPECT_EQ(slab.hi_plane(d)[b], boxes[b].hi()[d]);
    }
    // Padding lanes hold the infinitely-far sentinel.
    for (size_t b = 11; b < slab.padded_size(); ++b) {
      EXPECT_EQ(slab.lo_plane(d)[b], std::numeric_limits<float>::infinity());
      EXPECT_EQ(slab.hi_plane(d)[b], -std::numeric_limits<float>::infinity());
    }
  }
}

TEST(BoxSlabTest, PlanesAreCachelineAligned) {
  common::Rng rng(47);
  for (const size_t count : {1u, 8u, 11u, 16u, 17u, 64u}) {
    std::vector<BoundingBox> boxes;
    for (size_t i = 0; i < count; ++i) boxes.push_back(RandomBox(&rng, 5));
    const BoxSlab slab{std::span<const BoundingBox>(boxes)};
    EXPECT_EQ(slab.padded_size() % BoxSlab::kPlaneStride, 0u);
    for (size_t d = 0; d < slab.dim(); ++d) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(slab.lo_plane(d)) %
                    common::Arena::kAlignment,
                0u)
          << "count " << count << ", dim " << d;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(slab.hi_plane(d)) %
                    common::Arena::kAlignment,
                0u)
          << "count " << count << ", dim " << d;
    }
  }
}

TEST(BoxSlabTest, ExternalArenaBacksPlanes) {
  common::Rng rng(53);
  common::Arena arena;
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 9; ++i) boxes.push_back(RandomBox(&rng, 3));
  const BoxSlab slab{std::span<const BoundingBox>(boxes), &arena};
  // Both planes were carved out of the shared arena.
  EXPECT_GE(arena.bytes_allocated(),
            2 * slab.dim() * slab.padded_size() * sizeof(float));
  // Moving the slab keeps the arena-backed planes valid.
  const BoxSlab moved = [&] {
    BoxSlab tmp{std::span<const BoundingBox>(boxes), &arena};
    return tmp;
  }();
  const std::vector<float> center(3, 0.f);
  EXPECT_EQ(CountSphereHits(center, kInf, moved), 9u);
}

TEST(BoxSlabTest, DefaultAndEmptySpanAreEmpty) {
  const BoxSlab none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.dim(), 0u);
  EXPECT_EQ(none.padded_size(), 0u);
  const BoxSlab from_empty{std::span<const BoundingBox>()};
  EXPECT_EQ(from_empty.size(), 0u);
}

TEST(BoxSlabTest, PointerSpanMatchesValueSpan) {
  common::Rng rng(13);
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 9; ++i) boxes.push_back(RandomBox(&rng, 4));
  std::vector<const BoundingBox*> ptrs;
  for (const auto& b : boxes) ptrs.push_back(&b);
  const BoxSlab by_value{std::span<const BoundingBox>(boxes)};
  const BoxSlab by_ptr{
      std::span<const BoundingBox* const>(ptrs.data(), ptrs.size())};
  ASSERT_EQ(by_ptr.size(), by_value.size());
  ASSERT_EQ(by_ptr.dim(), by_value.dim());
  for (size_t d = 0; d < by_value.dim(); ++d) {
    for (size_t b = 0; b < by_value.padded_size(); ++b) {
      EXPECT_EQ(by_ptr.lo_plane(d)[b], by_value.lo_plane(d)[b]);
      EXPECT_EQ(by_ptr.hi_plane(d)[b], by_value.hi_plane(d)[b]);
    }
  }
}

TEST(KernelSphereHitsTest, MatchesSquaredMinDistPerBox) {
  common::Rng rng(17);
  for (const size_t dim : {1u, 2u, 9u, 17u}) {
    std::vector<BoundingBox> boxes;
    for (int i = 0; i < 23; ++i) boxes.push_back(RandomBox(&rng, dim));
    const BoxSlab slab{std::span<const BoundingBox>(boxes)};
    for (int trial = 0; trial < 20; ++trial) {
      const auto center = RandomPoint(&rng, dim);
      const double r = rng.NextUniform(0.0, 1.5);
      const double r2 = r * r;
      size_t expected = 0;
      for (const auto& box : boxes) {
        if (SquaredMinDist(center, box) <= r2) ++expected;
      }
      for (const KernelMode mode : AllModes()) {
        EXPECT_EQ(CountSphereHits(center, r2, slab, mode), expected)
            << KernelModeName(mode);
      }
    }
  }
}

TEST(KernelSphereHitsTest, EmptyBoxesOnlyCountAtInfiniteRadius) {
  std::vector<BoundingBox> boxes;
  boxes.push_back(BoundingBox({0.f, 0.f}, {1.f, 1.f}));
  boxes.push_back(BoundingBox(2));  // empty: infinitely far
  boxes.push_back(BoundingBox({3.f, 3.f}, {4.f, 4.f}));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  const std::vector<float> center = {0.5f, 0.5f};
  for (const KernelMode mode : AllModes()) {
    EXPECT_EQ(CountSphereHits(center, 1e12, slab, mode), 2u);
    // +inf radius reaches the empty box too, exactly like the scalar
    // SquaredMinDist(+inf) <= +inf comparison.
    EXPECT_EQ(CountSphereHits(center, kInf, slab, mode), 3u);
    EXPECT_EQ(CountSphereHits(center, 0.0, slab, mode), 1u);
  }
}

TEST(KernelSphereHitsTest, AppendAgreesWithCountAndIsAscending) {
  common::Rng rng(19);
  const size_t dim = 12;
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 37; ++i) boxes.push_back(RandomBox(&rng, dim));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  for (int trial = 0; trial < 15; ++trial) {
    const auto center = RandomPoint(&rng, dim);
    const double r = rng.NextUniform(0.0, 2.0);
    std::vector<uint32_t> scalar_hits;
    AppendSphereHits(center, r * r, slab, &scalar_hits, KernelMode::kScalar);
    EXPECT_TRUE(std::is_sorted(scalar_hits.begin(), scalar_hits.end()));
    for (const KernelMode mode : BatchedModes()) {
      std::vector<uint32_t> batched_hits;
      AppendSphereHits(center, r * r, slab, &batched_hits, mode);
      EXPECT_EQ(batched_hits, scalar_hits) << KernelModeName(mode);
      EXPECT_EQ(scalar_hits.size(), CountSphereHits(center, r * r, slab, mode))
          << KernelModeName(mode);
    }
  }
}

TEST(KernelBoxHitsTest, MatchesIntersectsPerBox) {
  common::Rng rng(23);
  for (const size_t dim : {1u, 3u, 10u}) {
    std::vector<BoundingBox> boxes;
    for (int i = 0; i < 29; ++i) boxes.push_back(RandomBox(&rng, dim));
    boxes[4] = BoundingBox(dim);  // an empty box intersects nothing
    const BoxSlab slab{std::span<const BoundingBox>(boxes)};
    for (int trial = 0; trial < 20; ++trial) {
      const BoundingBox query = RandomBox(&rng, dim);
      std::vector<uint32_t> expected;
      for (uint32_t b = 0; b < boxes.size(); ++b) {
        if (query.Intersects(boxes[b])) expected.push_back(b);
      }
      for (const KernelMode mode : AllModes()) {
        std::vector<uint32_t> hits;
        AppendBoxHits(query, slab, &hits, mode);
        EXPECT_EQ(hits, expected) << KernelModeName(mode);
      }
    }
    // An empty query box intersects nothing in any mode.
    for (const KernelMode mode : AllModes()) {
      std::vector<uint32_t> hits;
      AppendBoxHits(BoundingBox(dim), slab, &hits, mode);
      EXPECT_TRUE(hits.empty());
    }
  }
}

TEST(KernelNearestBoxTest, PicksMinimalDistanceLowestIndex) {
  common::Rng rng(29);
  for (const size_t dim : {1u, 4u, 11u}) {
    std::vector<BoundingBox> boxes;
    for (int i = 0; i < 21; ++i) boxes.push_back(RandomBox(&rng, dim));
    const BoxSlab slab{std::span<const BoundingBox>(boxes)};
    const BoxRows rows{slab};
    for (int trial = 0; trial < 30; ++trial) {
      const auto point = RandomPoint(&rng, dim);
      size_t expected = 0;
      double best = kInf;
      for (size_t b = 0; b < boxes.size(); ++b) {
        const double d2 = SquaredMinDist(point, boxes[b]);
        if (d2 < best) {
          best = d2;
          expected = b;
        }
      }
      for (const KernelMode mode : AllModes()) {
        EXPECT_EQ(NearestBox(point, slab, rows, mode), expected)
            << KernelModeName(mode);
      }
    }
  }
}

TEST(KernelNearestBoxTest, ExactTiesBreakTowardsLowestIndex) {
  // Two identical boxes: the first must win in every mode, at any distance.
  std::vector<BoundingBox> boxes;
  boxes.push_back(BoundingBox({1.f}, {2.f}));
  boxes.push_back(BoundingBox({1.f}, {2.f}));
  boxes.push_back(BoundingBox({1.5f}, {2.f}));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  const BoxRows rows{slab};
  const std::vector<float> outside = {0.f};
  const std::vector<float> inside = {1.7f};
  for (const KernelMode mode : AllModes()) {
    EXPECT_EQ(NearestBox(outside, slab, rows, mode), 0u)
        << KernelModeName(mode);
    EXPECT_EQ(NearestBox(inside, slab, rows, mode), 0u)
        << KernelModeName(mode);
  }
}

TEST(KernelNearestBoxTest, EmptyBoxesNeverWinUnlessAllEmpty) {
  std::vector<BoundingBox> boxes;
  boxes.push_back(BoundingBox(2));
  boxes.push_back(BoundingBox({5.f, 5.f}, {6.f, 6.f}));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  std::vector<BoundingBox> all_empty(3, BoundingBox(2));
  const BoxSlab empty_slab{std::span<const BoundingBox>(all_empty)};
  const BoxRows rows{slab};
  const BoxRows empty_rows{empty_slab};
  const std::vector<float> p = {0.f, 0.f};
  for (const KernelMode mode : AllModes()) {
    EXPECT_EQ(NearestBox(p, slab, rows, mode), 1u) << KernelModeName(mode);
    EXPECT_EQ(NearestBox(p, empty_slab, empty_rows, mode), 0u)
        << KernelModeName(mode);
  }
}

/// Every mode against the scalar oracle, plus the index the case expects.
void ExpectNearestInEveryMode(const std::vector<float>& point,
                              const BoxSlab& slab, size_t expected,
                              const char* what) {
  const BoxRows rows{slab};
  ASSERT_EQ(NearestBox(point, slab, rows, KernelMode::kScalar), expected)
      << what;
  for (const KernelMode mode : AllModes()) {
    EXPECT_EQ(NearestBox(point, slab, rows, mode), expected)
        << what << " " << KernelModeName(mode);
  }
}

/// A box spanning [lo, hi] in every dimension.
BoundingBox CubeBox(size_t dim, float lo, float hi) {
  return BoundingBox(std::vector<float>(dim, lo), std::vector<float>(dim, hi));
}

TEST(KernelNearestBoxTest, ContainmentBatteryMatchesScalarOracle) {
  // The batched modes look for the lowest-index containing box before any
  // MINDIST scan; each case pins that shortcut to the oracle's answer.
  // None of these dimensionalities is a multiple of the 16-float plane
  // stride.
  for (const size_t dim : {1u, 5u, 17u, 60u}) {
    // Boxes 0-9 are disjoint unit cubes [2i, 2i + 1]; box 10 is empty;
    // box 11 (second 8-lane block) is [30, 31]; box 12 overlaps box 11.
    std::vector<BoundingBox> boxes;
    for (int i = 0; i < 10; ++i) {
      boxes.push_back(CubeBox(dim, 2.f * i, 2.f * i + 1.f));
    }
    boxes.push_back(BoundingBox(dim));
    boxes.push_back(CubeBox(dim, 30.f, 31.f));
    boxes.push_back(CubeBox(dim, 30.5f, 40.f));
    const BoxSlab slab{std::span<const BoundingBox>(boxes)};

    // Exactly on the lo face of box 3 in one dimension, inside elsewhere;
    // then exactly on its hi face.
    std::vector<float> p(dim, 6.5f);
    p[dim / 2] = 6.f;
    ExpectNearestInEveryMode(p, slab, 3, "on lo face");
    p[dim / 2] = 7.f;
    ExpectNearestInEveryMode(p, slab, 3, "on hi face");
    // Every coordinate on a face: the box's corners.
    ExpectNearestInEveryMode(std::vector<float>(dim, 6.f), slab, 3,
                             "lo corner");
    ExpectNearestInEveryMode(std::vector<float>(dim, 7.f), slab, 3,
                             "hi corner");
    // One ulp outside the hi face: no longer contained; box 3 is still the
    // nearest, through the MINDIST scan.
    p[dim / 2] = std::nextafter(7.f, 8.f);
    ExpectNearestInEveryMode(p, slab, 3, "one ulp outside");

    // Inside both box 11 and box 12: the lower index wins. On box 12's lo
    // face and inside box 11: still box 11.
    ExpectNearestInEveryMode(std::vector<float>(dim, 30.75f), slab, 11,
                             "two overlapping boxes");
    ExpectNearestInEveryMode(std::vector<float>(dim, 30.5f), slab, 11,
                             "overlap, on the later box's face");
    ExpectNearestInEveryMode(std::vector<float>(dim, 31.f), slab, 11,
                             "overlap, on the earlier box's face");
    // Only box 12 contains it (second block, past the empty box 10).
    ExpectNearestInEveryMode(std::vector<float>(dim, 35.f), slab, 12,
                             "second block only");

    // Outside every box: the MINDIST argmin, ties to the lower index.
    ExpectNearestInEveryMode(std::vector<float>(dim, 1.5f), slab, 0,
                             "between boxes 0 and 1 (tie)");
    ExpectNearestInEveryMode(std::vector<float>(dim, 24.f), slab, 9,
                             "between boxes 9 and 11");
    ExpectNearestInEveryMode(std::vector<float>(dim, 50.f), slab, 12,
                             "beyond every box");
    ExpectNearestInEveryMode(std::vector<float>(dim, -3.f), slab, 0,
                             "below every box");

    // Empty sentinels ahead of the containing box never win, and an
    // all-empty slab returns 0 whether or not the point is "inside" the
    // sentinel range.
    std::vector<BoundingBox> sentinels(9, BoundingBox(dim));
    sentinels.push_back(CubeBox(dim, 0.f, 1.f));
    const BoxSlab sentinel_slab{std::span<const BoundingBox>(sentinels)};
    ExpectNearestInEveryMode(std::vector<float>(dim, 0.5f), sentinel_slab, 9,
                             "behind sentinels, inside");
    ExpectNearestInEveryMode(std::vector<float>(dim, 5.f), sentinel_slab, 9,
                             "behind sentinels, outside");
    const std::vector<BoundingBox> all_empty(11, BoundingBox(dim));
    const BoxSlab empty_slab{std::span<const BoundingBox>(all_empty)};
    ExpectNearestInEveryMode(std::vector<float>(dim, 0.5f), empty_slab, 0,
                             "all-empty slab");
  }

  // Chains of overlapping cubes, box i = [i, i + 2], so box i overlaps box
  // i + 1 on [i + 1, i + 2], at dimensions on both sides of every lane's
  // vector width (4, 8 and 16 floats) and box counts around the 8-lane
  // block. A point inside two boxes must pick the earlier one. A point
  // that leaves box i in one dimension only must fall through to box
  // i + 1; leaving in the last dimension puts the deciding compare in a
  // masked tail whenever dim is not a multiple of the lane's width.
  for (const size_t dim : {1u, 7u, 15u, 16u, 17u, 33u, 60u, 65u}) {
    for (const size_t count : {1u, 7u, 8u, 9u, 17u}) {
      std::vector<BoundingBox> chain;
      for (size_t i = 0; i < count; ++i) {
        chain.push_back(CubeBox(dim, static_cast<float>(i),
                                static_cast<float>(i) + 2.f));
      }
      const BoxSlab chain_slab{std::span<const BoundingBox>(chain)};
      for (size_t t = 0; t < count; ++t) {
        const float mid = static_cast<float>(t) + 1.5f;
        ExpectNearestInEveryMode(std::vector<float>(dim, mid), chain_slab, t,
                                 "inside boxes t and t + 1");
        for (const size_t out_dim : {size_t{0}, dim / 2, dim - 1}) {
          std::vector<float> leaves(dim, mid);
          leaves[out_dim] = mid + 1.f;
          // Outside box t in one dimension, inside box t + 1; past the
          // last box, box t is still the nearest by MINDIST.
          ExpectNearestInEveryMode(leaves, chain_slab,
                                   t + 1 < count ? t + 1 : t,
                                   "leaves box t in one dimension");
        }
      }
      ExpectNearestInEveryMode(std::vector<float>(dim, -1.f), chain_slab, 0,
                               "inside no box");
    }

    // Signed zeros compare equal, so a +0.0 coordinate is on a -0.0 hi face
    // and inside; degenerate boxes (lo == hi) contain exactly their point.
    std::vector<BoundingBox> faces;
    faces.push_back(CubeBox(dim, 0.25f, 0.25f));
    faces.push_back(CubeBox(dim, 0.5f, 0.5f));
    faces.push_back(CubeBox(dim, -1.f, -0.f));
    faces.push_back(CubeBox(dim, 0.f, 1.f));
    const BoxSlab face_slab{std::span<const BoundingBox>(faces)};
    ExpectNearestInEveryMode(std::vector<float>(dim, 0.25f), face_slab, 0,
                             "on a degenerate box");
    std::vector<float> p(dim, 0.25f);
    p[dim - 1] = std::nextafter(0.25f, 1.f);
    ExpectNearestInEveryMode(p, face_slab, 3,
                             "one ulp off a degenerate box, last dimension");
    ExpectNearestInEveryMode(std::vector<float>(dim, 0.f), face_slab, 2,
                             "+0.0 on a -0.0 hi face");
    ExpectNearestInEveryMode(std::vector<float>(dim, -0.f), face_slab, 2,
                             "-0.0 on a -0.0 hi face");
    std::vector<float> mixed(dim, 0.f);
    for (size_t d = 0; d < dim; d += 2) mixed[d] = -0.f;
    ExpectNearestInEveryMode(mixed, face_slab, 2, "mixed signed zeros");
    mixed[dim - 1] = 0.75f;
    ExpectNearestInEveryMode(mixed, face_slab, 3,
                             "signed zeros, off the -0.0 face last");
  }
}

/// RandomBox with about a quarter of its sides replaced by a signed-zero
/// face: [+-0.0, hi], [lo, +-0.0] or the degenerate [+-0.0, +-0.0].
BoundingBox SignedZeroBox(common::Rng* rng, size_t dim) {
  const BoundingBox box = RandomBox(rng, dim);
  std::vector<float> lo = box.lo();
  std::vector<float> hi = box.hi();
  for (size_t d = 0; d < dim; ++d) {
    const float zero = rng->NextBounded(2) == 0 ? 0.f : -0.f;
    switch (rng->NextBounded(8)) {
      case 0: lo[d] = zero; hi[d] = std::max(hi[d], 0.5f); break;
      case 1: hi[d] = zero; lo[d] = std::min(lo[d], -0.5f); break;
      case 2: lo[d] = zero; hi[d] = zero; break;
      default: break;
    }
  }
  return BoundingBox(std::move(lo), std::move(hi));
}

TEST(KernelNearestBoxTest, FacePointsMatchScalarOracle) {
  // Random overlapping boxes, and points snapped coordinate by coordinate
  // onto a random box's lo or hi face, into its interior or one ulp past
  // its hi face, zeros with either sign: containment and near-containment
  // in every mix, every mode against the oracle. Boxes have lo == hi sides
  // and signed-zero faces; dimensions straddle every lane's vector width
  // (4, 8 and 16 floats) and box counts the 8-lane block.
  common::Rng rng(43);
  for (const size_t dim : {1u, 3u, 7u, 15u, 16u, 17u, 33u, 60u, 65u}) {
    for (const size_t count : {1u, 7u, 8u, 9u, 17u, 27u}) {
      std::vector<BoundingBox> boxes;
      for (size_t i = 0; i < count; ++i) {
        boxes.push_back(SignedZeroBox(&rng, dim));
      }
      const BoxSlab slab{std::span<const BoundingBox>(boxes)};
      const BoxRows rows{slab};
      for (int trial = 0; trial < 100; ++trial) {
        const BoundingBox& box = boxes[rng.NextBounded(boxes.size())];
        std::vector<float> p(dim);
        for (size_t d = 0; d < dim; ++d) {
          switch (rng.NextBounded(4)) {
            case 0: p[d] = box.lo()[d]; break;
            case 1: p[d] = box.hi()[d]; break;
            case 2: p[d] = 0.5f * (box.lo()[d] + box.hi()[d]); break;
            default: p[d] = std::nextafter(box.hi()[d], 3.f); break;
          }
          if (p[d] == 0.f && rng.NextBounded(2) == 0) p[d] = -p[d];
        }
        const size_t expected =
            NearestBox(p, slab, rows, KernelMode::kScalar);
        for (const KernelMode mode : BatchedModes()) {
          EXPECT_EQ(NearestBox(p, slab, rows, mode), expected)
              << KernelModeName(mode) << " dim " << dim << " boxes "
              << count;
        }
      }
    }
  }
}

/// The block-op table a batched mode runs.
const isa::BlockOps* OpsOf(KernelMode mode) {
  if (mode == KernelMode::kGeneric) return isa::GenericOps();
  if (mode == KernelMode::kAvx2) return isa::Avx2Ops();
  if (mode == KernelMode::kAvx512) return isa::Avx512Ops();
  return nullptr;
}

TEST(KernelGroupedRowBlockTest, EveryQueryMatchesItsOneQueryBlock) {
  // group_row_block against one query at a time, in every batched mode and
  // at every group size: each query of a group keeps its own accumulators
  // and threshold, so its alive bit must equal the one-query op's, and an
  // alive query's eight sums must equal SquaredL2 of its lanes bit for bit.
  // Thresholds mix +inf (never abandons) with 0 (every lane is over at the
  // first checkpoint), a middling bound and a loose one, in every order, so
  // an op that votes with another query's threshold fails.
  constexpr size_t kBlock = BoxSlab::kBlock;
  constexpr size_t kGroup = isa::kScanGroup;
  common::Rng rng(47);
  for (const size_t dim : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 60u, 65u}) {
    std::vector<float> rows(kBlock * dim);
    for (float& v : rows) v = static_cast<float>(rng.NextUniform(-1, 1));
    std::vector<std::vector<float>> queries;
    std::vector<std::vector<double>> exact(kGroup);
    std::vector<std::vector<double>> bounds(kGroup);
    for (size_t g = 0; g < kGroup; ++g) {
      queries.push_back(RandomPoint(&rng, dim, -1.0, 1.0));
      double lo = kInf;
      double hi = 0.0;
      for (size_t l = 0; l < kBlock; ++l) {
        exact[g].push_back(SquaredL2(
            queries[g], std::span<const float>(rows.data() + l * dim, dim)));
        lo = std::min(lo, exact[g].back());
        hi = std::max(hi, exact[g].back());
      }
      bounds[g] = {kInf, 0.0, 0.5 * lo, hi};
    }
    for (const KernelMode mode : BatchedModes()) {
      SCOPED_TRACE(std::string(KernelModeName(mode)) + " dim " +
                   std::to_string(dim));
      const isa::BlockOps* ops = OpsOf(mode);
      ASSERT_NE(ops, nullptr);
      common::AlignedVector<float> lanes(kBlock * dim);
      ops->stage_rows(rows.data(), dim, 1, lanes.data());
      // The op's queries are the float points widened to double.
      std::vector<std::vector<double>> wide;
      wide.reserve(kGroup);
      std::vector<const double*> group;
      for (const auto& query : queries) {
        wide.emplace_back(query.begin(), query.end());
        group.push_back(wide.back().data());
      }
      for (size_t count = 1; count <= kGroup; ++count) {
        // Every assignment of the four bounds to the group's queries.
        size_t combos = 1;
        for (size_t g = 0; g < count; ++g) combos *= 4;
        for (size_t combo = 0; combo < combos; ++combo) {
          std::vector<double> thresholds(count);
          for (size_t g = 0, c = combo; g < count; ++g, c /= 4) {
            thresholds[g] = bounds[g][c % 4];
          }
          std::vector<double> acc(kGroup * kBlock, -1.0);
          const uint32_t alive = ops->group_row_block(
              group.data(), count, lanes.data(), dim, thresholds.data(),
              acc.data());
          EXPECT_EQ(alive >> count, 0u) << "bits past the group";
          for (size_t g = 0; g < count; ++g) {
            std::vector<double> solo(kBlock);
            const uint32_t solo_alive = ops->group_row_block(
                group.data() + g, 1, lanes.data(), dim, &thresholds[g],
                solo.data());
            const bool is_alive = ((alive >> g) & 1) != 0;
            EXPECT_EQ(is_alive, solo_alive == 1u)
                << "query " << g << " of " << count << ", threshold "
                << thresholds[g];
            if (thresholds[g] == kInf) {
              EXPECT_TRUE(is_alive);
            }
            if (thresholds[g] == 0.0 && dim > isa::kScanCheckDims) {
              EXPECT_FALSE(is_alive);
            }
            for (size_t l = 0; l < kBlock; ++l) {
              if (is_alive) {
                EXPECT_EQ(acc[g * kBlock + l], exact[g][l]);
                EXPECT_EQ(solo[l], exact[g][l]);
              } else {
                // Abandonment only ever skips no-op pushes.
                EXPECT_GT(exact[g][l], thresholds[g]);
              }
            }
          }
        }
      }
    }
  }
}

/// Scalar reference for the scan kernels: the k-th smallest of the sorted
/// distances, written independently of the kernel implementation.
double ReferenceKth(std::span<const float> query, std::span<const float> rows,
                    size_t dim, size_t k, size_t exclude_row) {
  std::vector<std::pair<double, size_t>> kept;
  const size_t n = rows.size() / dim;
  for (size_t row = 0; row < n; ++row) {
    const double d2 =
        SquaredL2(query, std::span<const float>(rows.data() + row * dim, dim));
    if (row == exclude_row) continue;
    kept.emplace_back(d2, row);
  }
  if (kept.size() < k) return kInf;
  std::sort(kept.begin(), kept.end());
  return kept[k - 1].first;
}

TEST(KernelScanTest, KthDistanceMatchesSortReference) {
  common::Rng rng(37);
  for (const size_t dim : {1u, 5u, 16u, 20u}) {
    const size_t n = 60;
    std::vector<float> rows(n * dim);
    for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    for (const size_t k : {1u, 3u, 21u, 60u, 61u}) {
      const auto query = RandomPoint(&rng, dim, -1.0, 1.0);
      const size_t exclude = k % 2 == 0 ? kNoRow : k % n;
      const double expected = ReferenceKth(query, rows, dim, k, exclude);
      for (const KernelMode mode : AllModes()) {
        EXPECT_EQ(OneQueryKthScan(query, exclude, rows, dim, k, mode),
                  expected)
            << KernelModeName(mode);
      }
    }
  }
}

TEST(KernelScanTest, ExclusionRules) {
  // Dataset with a duplicate of row 0 at row 3 and a near point at row 1.
  const size_t dim = 2;
  const std::vector<float> rows = {0.f, 0.f, 0.1f, 0.f, 5.f,
                                   5.f, 0.f, 0.f,  2.f, 2.f};
  const std::vector<float> query = {0.f, 0.f};
  // Row 1's coordinate is the float 0.1f; the scan accumulates it widened
  // to double, which is not the double literal 0.1.
  const double near_d2 = static_cast<double>(0.1f) * static_cast<double>(0.1f);
  for (const KernelMode mode : AllModes()) {
    // No exclusions: the query's own row is the nearest.
    EXPECT_EQ(OneQueryKthScan(query, kNoRow, rows, dim, 1, mode), 0.0);

    // Row exclusion drops row 0 but keeps its duplicate.
    EXPECT_EQ(OneQueryKthScan(query, 0, rows, dim, 1, mode), 0.0);
    EXPECT_EQ(OneQueryKthScan(query, 0, rows, dim, 2, mode), near_d2);

    // A far excluded row is dropped too: row 2 gone, only 4 rows left.
    EXPECT_EQ(OneQueryKthScan(query, 2, rows, dim, 4, mode), 8.0);
    EXPECT_EQ(OneQueryKthScan(query, 2, rows, dim, 5, mode), kInf);
  }
}

TEST(KernelScanTest, TopKMatchesSortTruncate) {
  // The k-th distance of every k is the last of the first k pairs of a
  // sort over all (distance, row) pairs, and +inf past the n rows.
  common::Rng rng(41);
  const size_t dim = 6;
  const size_t n = 50;
  std::vector<float> rows(n * dim);
  for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  // Duplicate a few rows so some order statistics are distance ties.
  std::copy_n(rows.begin(), dim, rows.begin() + 17 * dim);
  std::copy_n(rows.begin() + 5 * dim, dim, rows.begin() + 44 * dim);
  for (int trial = 0; trial < 5; ++trial) {
    const auto query = RandomPoint(&rng, dim, -1.0, 1.0);
    std::vector<std::pair<double, size_t>> sorted;
    for (size_t row = 0; row < n; ++row) {
      sorted.emplace_back(
          SquaredL2(query,
                    std::span<const float>(rows.data() + row * dim, dim)),
          row);
    }
    std::sort(sorted.begin(), sorted.end());
    for (size_t k = 1; k <= n + 1; ++k) {
      const double expected = k <= n ? sorted[k - 1].first : kInf;
      for (const KernelMode mode : AllModes()) {
        EXPECT_EQ(OneQueryKthScan(query, kNoRow, rows, dim, k, mode), expected)
            << KernelModeName(mode) << " k=" << k;
      }
    }
  }
}

TEST(KernelPairHeapTest, MatchesSortTruncateWithTies) {
  // Pairs with duplicate distances: retention and output order must equal
  // sorting everything and truncating to k (rows break the ties).
  const std::vector<std::pair<double, size_t>> pushed = {
      {4.0, 9}, {1.0, 5}, {4.0, 2}, {0.5, 7}, {1.0, 1}, {9.0, 0}};
  BoundedPairHeap heap(3);
  EXPECT_TRUE(std::isinf(heap.Threshold()));
  std::vector<std::pair<double, size_t>> expected = pushed;
  for (const auto& [d2, row] : pushed) heap.Push(d2, row);
  std::sort(expected.begin(), expected.end());
  expected.resize(3);
  EXPECT_DOUBLE_EQ(heap.Threshold(), expected.back().first);
  EXPECT_EQ(heap.TakeSortedAscending(), expected);
}

/// The query-tiled scan against one-query tiles, bit for bit, in every mode
/// and against the scalar oracle: tile widths {1, 3, 8, 100}, n
/// on no block or chunk boundary, the excluded row in the first chunk, the
/// last full chunk and the scalar tail, and a point duplicated across every
/// chunk.
TEST(KernelScanTest, TiledKthScansMatchPerQueryScans) {
  const size_t n = 2 * kScanChunkRows + 3 * BoxSlab::kBlock + 5;
  ASSERT_NE(n % BoxSlab::kBlock, 0u);
  const size_t first_chunk_row = 3;
  const size_t last_full_chunk_row = kScanChunkRows + 100;
  const size_t tail_row = n - 2;  // past the last whole block
  ASSERT_GE(tail_row, n - n % BoxSlab::kBlock);
  const std::vector<size_t> special = {first_chunk_row, last_full_chunk_row,
                                       tail_row, kNoRow};
  common::Rng rng(43);
  for (const size_t dim : {3u, 16u, 60u}) {
    std::vector<float> rows(n * dim);
    for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    // Every 7th row and the tail row repeat the first-chunk row's point.
    for (size_t row = 7; row < n; row += 7) {
      std::copy_n(rows.begin() + first_chunk_row * dim, dim,
                  rows.begin() + row * dim);
    }
    std::copy_n(rows.begin() + first_chunk_row * dim, dim,
                rows.begin() + tail_row * dim);
    for (const size_t width : {1u, 3u, 8u, 100u}) {
      // A one-query tile runs once per special row; wider tiles start with
      // the special rows and fill up with random ones.
      const size_t trials = width == 1 ? special.size() : 1;
      for (size_t trial = 0; trial < trials; ++trial) {
        std::vector<float> queries;
        std::vector<size_t> exclude;
        for (size_t i = 0; i < width; ++i) {
          const size_t row = i + trial < special.size() ? special[i + trial]
                                                        : rng.NextBounded(n);
          const size_t source = row == kNoRow ? rng.NextBounded(n) : row;
          exclude.push_back(row);
          queries.insert(queries.end(), rows.begin() + source * dim,
                         rows.begin() + (source + 1) * dim);
        }
        for (const size_t k : {size_t{1}, size_t{21}, n}) {
          for (const KernelMode mode : AllModes()) {
            std::vector<double> out(width);
            KthDistanceScans(queries, exclude, rows, dim, k, out, mode);
            for (size_t i = 0; i < width; ++i) {
              const std::span<const float> query(queries.data() + i * dim,
                                                 dim);
              EXPECT_EQ(out[i], OneQueryKthScan(query, exclude[i], rows, dim,
                                                k, KernelMode::kScalar))
                  << KernelModeName(mode) << ", d=" << dim << ", width "
                  << width << ", query " << i << ", k=" << k;
              EXPECT_EQ(out[i],
                        OneQueryKthScan(query, exclude[i], rows, dim, k, mode))
                  << KernelModeName(mode);
            }
          }
        }
      }
    }
  }
}

/// A tile whose heaps outgrow kScanTileHeapBytes runs as sub-tiles; the
/// radii across the split are still those of one-query tiles, bit for bit.
TEST(KernelScanTest, TiledKthScansSplitIntoSubTiles) {
  const size_t n = 3 * kScanChunkRows + 29;
  const size_t dim = 3;
  const size_t k = n - 1;
  const size_t q = 100;
  ASSERT_LT(kScanTileHeapBytes / (sizeof(double) * k), q);  // >= 2 sub-tiles
  common::Rng rng(47);
  std::vector<float> rows(n * dim);
  for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  std::vector<float> queries;
  std::vector<size_t> exclude;
  for (size_t i = 0; i < q; ++i) {
    const size_t row = rng.NextBounded(n);
    exclude.push_back(i % 2 == 0 ? row : kNoRow);
    queries.insert(queries.end(), rows.begin() + row * dim,
                   rows.begin() + (row + 1) * dim);
  }
  for (const KernelMode mode : AllModes()) {
    std::vector<double> out(q);
    KthDistanceScans(queries, exclude, rows, dim, k, out, mode);
    for (size_t i = 0; i < q; ++i) {
      EXPECT_EQ(out[i],
                OneQueryKthScan(std::span<const float>(
                                    queries.data() + i * dim, dim),
                                exclude[i], rows, dim, k, KernelMode::kScalar))
          << KernelModeName(mode) << ", query " << i;
    }
  }
}

TEST(KernelScanTest, EmptyTileIsANoOp) {
  const std::vector<float> rows = {0.f, 1.f, 2.f};
  for (const KernelMode mode : AllModes()) {
    KthDistanceScans({}, {}, rows, 1, 1, {}, mode);
  }
}

// ---------------------------------------------------------------------------
// Moments battery: the max-variance kernel against the bulk loaders'
// historical loop, bit for bit, in every mode. Dimensions straddle every
// register-chunk boundary (16 on the AVX2 lane, 64 on AVX-512; the generic
// lane runs the oracle loop) and the 8-wide vector steps inside a chunk
// (8/9, 24/25), and row counts straddle the 64-row passes.
// ---------------------------------------------------------------------------

/// The loop every bulk loader ran before the kernel existed, written out
/// independently of it: per-dimension sums in row order, then a strict-`>`
/// scan for the first dimension of maximal variance.
struct ReferenceMoments {
  std::vector<double> sum;
  std::vector<double> sum_sq;
  size_t best = 0;
};

ReferenceMoments ReferenceMomentsOf(const float* base, size_t dim,
                                    const std::vector<uint32_t>& index) {
  ReferenceMoments ref{std::vector<double>(dim, 0.0),
                       std::vector<double>(dim, 0.0)};
  for (const uint32_t r : index) {
    for (size_t k = 0; k < dim; ++k) {
      const double v = base[r * dim + k];
      ref.sum[k] += v;
      ref.sum_sq[k] += v * v;
    }
  }
  const double n = static_cast<double>(index.size());
  double best_var = -1.0;
  for (size_t k = 0; k < dim; ++k) {
    const double var =
        ref.sum_sq[k] / n - (ref.sum[k] / n) * (ref.sum[k] / n);
    if (var > best_var) {
      best_var = var;
      ref.best = k;
    }
  }
  return ref;
}

/// Checks the index-list and the contiguous form of the kernel against the
/// reference in every mode: rows[first, first + count) as a range, and
/// `index` as a list.
void ExpectMomentsMatch(const std::vector<float>& rows, size_t dim,
                        const std::vector<uint32_t>& index, size_t first,
                        size_t count) {
  const ReferenceMoments by_index =
      ReferenceMomentsOf(rows.data(), dim, index);
  std::vector<uint32_t> range(count);
  for (size_t i = 0; i < count; ++i) {
    range[i] = static_cast<uint32_t>(first + i);
  }
  const ReferenceMoments by_range = ReferenceMomentsOf(rows.data(), dim, range);
  for (const KernelMode mode : AllModes()) {
    SCOPED_TRACE(std::string(KernelModeName(mode)));
    const RowMoments m = ComputeRowMoments(rows.data(), dim, index, mode);
    EXPECT_EQ(m.sum, by_index.sum);
    EXPECT_EQ(m.sum_sq, by_index.sum_sq);
    EXPECT_EQ(MaxVarianceDim(rows.data(), dim, index, mode), by_index.best);
    const float* range_rows = rows.data() + first * dim;
    const RowMoments c = ComputeRowMoments(range_rows, count, dim, mode);
    EXPECT_EQ(c.sum, by_range.sum);
    EXPECT_EQ(c.sum_sq, by_range.sum_sq);
    EXPECT_EQ(MaxVarianceDim(range_rows, count, dim, mode), by_range.best);
  }
}

class KernelMomentsTest : public ::testing::TestWithParam<size_t> {};

// Mixed magnitudes make every sum depend on its addition order, so a lane
// that reorders rows (or splits a dimension's sum) cannot pass.
TEST_P(KernelMomentsTest, RandomRowsAndRepeatedIndicesBitIdentical) {
  const size_t dim = GetParam();
  constexpr size_t kRows = 203;
  common::Rng rng(dim * 7919 + 3);
  std::vector<float> rows(kRows * dim);
  for (auto& v : rows) {
    const double scale = rng.NextBounded(4) == 0 ? 1e4 : 1e-2;
    v = static_cast<float>(rng.NextUniform(-scale, 3.0 * scale));
  }
  for (const size_t count : {1u, 63u, 64u, 65u, 150u}) {
    SCOPED_TRACE(count);
    std::vector<uint32_t> index(count);
    // Drawn with replacement: repeated rows count once per occurrence.
    for (auto& r : index) r = static_cast<uint32_t>(rng.NextBounded(kRows));
    const size_t first = rng.NextBounded(kRows - count + 1);
    ExpectMomentsMatch(rows, dim, index, first, count);
  }
  // Every row repeated: the one-row and many-copies cases.
  ExpectMomentsMatch(rows, dim, std::vector<uint32_t>(130, 5), kRows - 1, 1);
}

TEST_P(KernelMomentsTest, LargeMagnitudesBitIdentical) {
  const size_t dim = GetParam();
  constexpr size_t kRows = 97;
  common::Rng rng(dim * 131 + 17);
  std::vector<float> rows(kRows * dim);
  for (auto& v : rows) {
    // Squares up to ~1e72 and sums that cancel across signs.
    v = static_cast<float>(rng.NextUniform(-1.0, 1.0) *
                           std::pow(10.0, rng.NextUniform(-30.0, 36.0)));
  }
  std::vector<uint32_t> index(kRows);
  for (auto& r : index) r = static_cast<uint32_t>(rng.NextBounded(kRows));
  ExpectMomentsMatch(rows, dim, index, 0, kRows);
}

// Dimensions 0 and 1 vary less; every later dimension is the same column,
// so their variances tie exactly and the lowest of them must win in every
// mode.
TEST_P(KernelMomentsTest, ExactlyTiedVariancesPickLowestIndex) {
  const size_t dim = GetParam();
  constexpr size_t kRows = 77;
  common::Rng rng(dim + 5);
  std::vector<float> rows(kRows * dim);
  for (size_t r = 0; r < kRows; ++r) {
    const float wide = static_cast<float>(rng.NextUniform(-10.0, 10.0));
    for (size_t k = 0; k < dim; ++k) {
      rows[r * dim + k] =
          k < 2 && dim > 2 ? static_cast<float>(rng.NextUniform(-1.0, 1.0))
                           : wide;
    }
  }
  std::vector<uint32_t> index(kRows);
  for (size_t i = 0; i < kRows; ++i) index[i] = static_cast<uint32_t>(i);
  const size_t expected = dim > 2 ? 2 : 0;
  EXPECT_EQ(ReferenceMomentsOf(rows.data(), dim, index).best, expected);
  for (const KernelMode mode : AllModes()) {
    EXPECT_EQ(MaxVarianceDim(rows.data(), dim, index, mode), expected)
        << KernelModeName(mode);
    EXPECT_EQ(MaxVarianceDim(rows.data(), kRows, dim, mode), expected)
        << KernelModeName(mode);
  }
  ExpectMomentsMatch(rows, dim, index, 0, kRows);
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelMomentsTest,
                         ::testing::Values(1, 3, 8, 9, 16, 24, 25, 60, 64, 65,
                                           100));

TEST(KernelModeTest, OverrideWinsAndClears) {
  ModeOverrideGuard guard;
  SetKernelMode(KernelMode::kScalar);
  EXPECT_EQ(ActiveKernelMode(), KernelMode::kScalar);
  SetKernelMode(KernelMode::kGeneric);
  EXPECT_EQ(ActiveKernelMode(), KernelMode::kGeneric);
  ClearKernelModeOverride();
  // Without an override the mode comes from HDIDX_KERNEL ("scalar" opts
  // out) or defaults to the host's best ISA; either way it must be a mode
  // this host can actually run.
  EXPECT_TRUE(KernelModeSupported(ActiveKernelMode()));
}

TEST(KernelModeTest, ScalarAndGenericAlwaysSupported) {
  EXPECT_TRUE(KernelModeSupported(KernelMode::kScalar));
  EXPECT_TRUE(KernelModeSupported(KernelMode::kGeneric));
  // The sweep set is deterministic, starts with the oracle, and only ever
  // contains supported modes.
  const std::vector<KernelMode> modes = SupportedKernelModes();
  ASSERT_GE(modes.size(), 2u);
  EXPECT_EQ(modes[0], KernelMode::kScalar);
  EXPECT_EQ(modes[1], KernelMode::kGeneric);
  for (const KernelMode mode : modes) {
    EXPECT_TRUE(KernelModeSupported(mode)) << KernelModeName(mode);
  }
  // BestKernelMode is supported and never the oracle.
  EXPECT_TRUE(KernelModeSupported(BestKernelMode()));
  EXPECT_NE(BestKernelMode(), KernelMode::kScalar);
}

TEST(KernelModeTest, UnsupportedIsaDowngradesGracefully) {
  ModeOverrideGuard guard;
  for (const KernelMode mode :
       {KernelMode::kScalar, KernelMode::kGeneric, KernelMode::kAvx2,
        KernelMode::kAvx512}) {
    const KernelMode resolved = ResolveKernelMode(mode);
    EXPECT_TRUE(KernelModeSupported(resolved)) << KernelModeName(mode);
    if (KernelModeSupported(mode)) {
      EXPECT_EQ(resolved, mode);
    } else {
      // The downgrade chain ends at the always-available generic lanes.
      EXPECT_TRUE(resolved == KernelMode::kGeneric ||
                  (mode == KernelMode::kAvx512 &&
                   resolved == KernelMode::kAvx2))
          << KernelModeName(mode) << " -> " << KernelModeName(resolved);
    }
    // Requesting any mode through the override — supported or not — always
    // dispatches a runnable one (never UB).
    SetKernelMode(mode);
    EXPECT_EQ(ActiveKernelMode(), resolved) << KernelModeName(mode);
  }
}

TEST(KernelModeTest, ExplicitModeEntryPointsResolveUnsupportedIsas) {
  // Even with an explicit (possibly unsupported) mode argument, kernels run
  // the downgraded lane and return oracle-identical results.
  std::vector<BoundingBox> boxes;
  boxes.push_back(BoundingBox({0.f, 0.f}, {1.f, 1.f}));
  boxes.push_back(BoundingBox({3.f, 3.f}, {4.f, 4.f}));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  const std::vector<float> center = {0.5f, 0.5f};
  for (const KernelMode mode : {KernelMode::kAvx2, KernelMode::kAvx512}) {
    EXPECT_EQ(CountSphereHits(center, 1.0, slab, mode), 1u)
        << KernelModeName(mode);
  }
}

TEST(KernelModeTest, OverrideFlipsAreRaceFreeUnderConcurrentReaders) {
  // Regression for the override's memory ordering: SetKernelMode /
  // ClearKernelModeOverride publish with release stores and
  // ActiveKernelMode reads with an acquire load, so readers racing a flip
  // must always observe a supported mode and kernels must keep returning
  // oracle-identical results. Runs under the TSan CI leg (name contains
  // "Kernel"), which would flag the pre-atomic formulation.
  ModeOverrideGuard guard;
  std::vector<BoundingBox> boxes;
  boxes.push_back(BoundingBox({0.f, 0.f}, {1.f, 1.f}));
  boxes.push_back(BoundingBox({3.f, 3.f}, {4.f, 4.f}));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  const std::vector<float> center = {0.5f, 0.5f};

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_modes{0};
  std::atomic<size_t> bad_counts{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const KernelMode mode = ActiveKernelMode();
        if (!KernelModeSupported(mode)) {
          bad_modes.fetch_add(1, std::memory_order_relaxed);
        }
        if (CountSphereHits(center, 1.0, slab) != 1u) {
          bad_counts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const std::vector<KernelMode> modes = SupportedKernelModes();
  for (int i = 0; i < 400; ++i) {
    SetKernelMode(modes[static_cast<size_t>(i) % modes.size()]);
    if (i % 7 == 0) ClearKernelModeOverride();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad_modes.load(), 0u);
  EXPECT_EQ(bad_counts.load(), 0u);
}

TEST(KernelModeTest, ParseRoundTripsNamesAndFallsBackOnGarbage) {
  for (const KernelMode mode : SupportedKernelModes()) {
    KernelMode parsed = KernelMode::kScalar;
    EXPECT_TRUE(ParseKernelMode(KernelModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  KernelMode parsed = KernelMode::kScalar;
  // Unknown values fall back deterministically to the host's best mode.
  for (const auto* garbage :
       {"", "AVX2", "turbo9000", "scalar ", "sse4", "neon"}) {
    parsed = KernelMode::kScalar;
    EXPECT_FALSE(ParseKernelMode(garbage, &parsed)) << garbage;
    EXPECT_EQ(parsed, BestKernelMode()) << garbage;
  }
}

TEST(KernelModeDeathTest, GarbageEnvValueWarnsOnceAndFallsBack) {
  // The HDIDX_KERNEL parse is latched in a function-local static, so the
  // garbage-value path needs a fresh process: threadsafe death tests re-exec
  // the binary and run only this test body in the child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ClearKernelModeOverride();
        setenv("HDIDX_KERNEL", "turbo9000", 1);
        const KernelMode mode = ActiveKernelMode();
        if (mode != BestKernelMode()) _Exit(2);
        if (!KernelModeSupported(mode)) _Exit(3);
        _Exit(0);
      },
      ::testing::ExitedWithCode(0), "unknown HDIDX_KERNEL value \"turbo9000\"");
}

TEST(KernelModeDeathTest, UnsupportedEnvIsaDowngradesInsteadOfDying) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Requests the first of avx512/avx2 the host lacks. On an x86-64 host
  // without AVX-512, or any non-x86 host, that is avx512, which must
  // downgrade to avx2 or generic. A host with both lanes (the AVX-512 hosts
  // BENCH_BASELINE.json is pinned on) requests avx2 and must run it as named.
  const KernelMode requested = KernelModeSupported(KernelMode::kAvx512)
                                   ? KernelMode::kAvx2
                                   : KernelMode::kAvx512;
  const std::string name(KernelModeName(requested));
  EXPECT_EXIT(
      {
        ClearKernelModeOverride();
        setenv("HDIDX_KERNEL", name.c_str(), 1);
        const KernelMode mode = ActiveKernelMode();
        if (mode != ResolveKernelMode(requested)) _Exit(2);
        if (!KernelModeSupported(mode)) _Exit(3);
        _Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(KernelDeathTest, KthDistanceScanRejectsZeroK) {
  const std::vector<float> rows = {0.f, 1.f};
  const std::vector<float> query = {0.f};
  EXPECT_DEATH(OneQueryKthScan(query, kNoRow, rows, 1, 0, ActiveKernelMode()),
               "k > 0");
}

TEST(KernelDeathTest, NearestBoxRejectsEmptySlab) {
  const BoxSlab empty;
  const std::vector<float> p = {0.f};
  const BoxRows rows{empty};
  EXPECT_DEATH(NearestBox(p, empty, rows), "slab.size");
}

TEST(KernelDeathTest, DimensionMismatchesAreFatal) {
  std::vector<BoundingBox> boxes;
  boxes.push_back(BoundingBox({0.f, 0.f}, {1.f, 1.f}));
  const BoxSlab slab{std::span<const BoundingBox>(boxes)};
  const std::vector<float> p1 = {0.f};
  EXPECT_DEATH(CountSphereHits(p1, 1.0, slab), "dim");
  const std::vector<float> q = {0.f, 0.f};
  const std::vector<float> rows = {0.f, 1.f, 2.f};  // not a multiple of dim
  EXPECT_DEATH(OneQueryKthScan(q, kNoRow, rows, 2, 1, ActiveKernelMode()),
               "dim");
}

}  // namespace
}  // namespace hdidx::geometry::kernels
