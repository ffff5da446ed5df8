#include "data/dataset.h"

#include <cstring>
#include <span>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hdidx::data {
namespace {

TEST(DatasetTest, EmptyAndZeroInitialized) {
  Dataset empty(4);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.dim(), 4u);

  Dataset zeros(3, 2);
  EXPECT_EQ(zeros.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(zeros.row(i)[0], 0.0f);
    EXPECT_EQ(zeros.row(i)[1], 0.0f);
  }
}

TEST(DatasetTest, FromBufferAndRowAccess) {
  Dataset d = testing::DatasetOf({1, 2, 3, 4, 5, 6}, 3);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.row(0)[2], 3.0f);
  EXPECT_EQ(d.row(1)[0], 4.0f);
}

TEST(DatasetTest, AppendGrows) {
  Dataset d(2);
  d.Append(std::vector<float>{1, 2});
  d.Append(std::vector<float>{3, 4});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.row(1)[1], 4.0f);
}

TEST(DatasetTest, MutableRowWritesThrough) {
  Dataset d(2, 2);
  d.mutable_row(1)[0] = 9.0f;
  EXPECT_EQ(d.row(1)[0], 9.0f);
  EXPECT_EQ(d.data()[2], 9.0f);
}

TEST(DatasetTest, BoundsCoverAllRows) {
  Dataset d = testing::DatasetOf({0, 5, 2, -1, 1, 3}, 2);
  const auto box = d.Bounds();
  EXPECT_EQ(box.lo(), (std::vector<float>{0, -1}));
  EXPECT_EQ(box.hi(), (std::vector<float>{2, 5}));
}

TEST(DatasetTest, SelectPreservesOrderAndValues) {
  Dataset d = testing::DatasetOf({10, 20, 30, 40, 50, 60}, 2);
  const Dataset sel = d.Select({2, 0});
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel.row(0)[0], 50.0f);
  EXPECT_EQ(sel.row(1)[0], 10.0f);
}

TEST(DatasetTest, SelectWithDuplicates) {
  Dataset d = testing::DatasetOf({1, 2, 3, 4}, 2);
  const Dataset sel = d.Select({1, 1, 1});
  ASSERT_EQ(sel.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(sel.row(i)[1], 4.0f);
}

/// The per-row Append loop AppendRows replaces, as the reference.
Dataset AppendOneByOne(Dataset out, const Dataset& source,
                       const std::vector<size_t>& rows) {
  for (size_t r : rows) out.Append(source.row(r));
  return out;
}

/// Bit-level equality of two datasets' buffers (operator== compares floats,
/// under which -0.0 == 0.0). Empty buffers may have a null data(), which
/// memcmp must not see even for a zero length.
bool SameBytes(const Dataset& a, const Dataset& b) {
  if (a.dim() != b.dim() || a.size() != b.size() ||
      a.data().size() != b.data().size()) {
    return false;
  }
  return a.data().empty() ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(DatasetTest, AppendRowsEqualsPerRowAppendBitForBit) {
  common::Rng rng(5);
  for (const size_t dim : {1u, 3u, 60u}) {
    const size_t n = 41;  // more rows than the prefetch distance
    std::vector<float> values(n * dim);
    for (float& v : values) v = static_cast<float>(rng.NextUniform(-1, 1));
    values[0] = -0.0f;  // a signed zero must survive the copy
    const Dataset source = testing::DatasetOf(values, dim);
    std::vector<size_t> shuffled(n);
    for (size_t i = 0; i < n; ++i) shuffled[i] = (i * 17) % n;
    const std::vector<std::vector<size_t>> lists = {
        {},                          // empty
        {7},                         // one row
        {n - 1},                     // the last row
        {3, 3, 3, n - 1, 3, 0, 0},   // repeats and the last row
        shuffled,                    // every row, longer than the prefetch
    };
    for (const auto& rows : lists) {
      Dataset gathered(dim);
      gathered.AppendRows(source.data(), rows);
      EXPECT_TRUE(SameBytes(gathered, AppendOneByOne(Dataset(dim), source,
                                                     rows)))
          << "dim " << dim << ", " << rows.size() << " rows";
      EXPECT_TRUE(SameBytes(source.Select(rows),
                            AppendOneByOne(Dataset(dim), source, rows)));
      // Appending after existing rows keeps them.
      Dataset prefixed(dim);
      prefixed.Append(source.row(1));
      prefixed.AppendRows(source.data(), rows);
      Dataset expected(dim);
      expected.Append(source.row(1));
      EXPECT_TRUE(
          SameBytes(prefixed, AppendOneByOne(std::move(expected), source,
                                             rows)));
    }
  }
}

TEST(DatasetDeathTest, SelectRejectsOutOfRangeRows) {
  const Dataset d = testing::DatasetOf({1, 2, 3, 4, 5, 6}, 3);
  EXPECT_DEATH(d.Select({0, 2}), "max_row");
  EXPECT_DEATH(d.Select({2}), "max_row");
  Dataset out(3);
  const std::vector<size_t> past_end = {1, 0, 5};
  EXPECT_DEATH(out.AppendRows(d.data(), past_end), "max_row");
  // A source that is not whole rows of this width is rejected too.
  const std::vector<float> ragged = {1, 2, 3, 4};
  const std::vector<size_t> first = {0};
  EXPECT_DEATH(out.AppendRows(ragged, first), "dim_");
}

TEST(DatasetTest, ProjectPrefixKeepsLeadingDims) {
  Dataset d = testing::DatasetOf({1, 2, 3, 4, 5, 6}, 3);
  const Dataset proj = d.ProjectPrefix(2);
  EXPECT_EQ(proj.dim(), 2u);
  ASSERT_EQ(proj.size(), 2u);
  EXPECT_EQ(proj.row(0)[0], 1.0f);
  EXPECT_EQ(proj.row(0)[1], 2.0f);
  EXPECT_EQ(proj.row(1)[0], 4.0f);
}

TEST(DatasetTest, ProjectFullWidthIsIdentity) {
  Dataset d = testing::DatasetOf({1, 2, 3, 4}, 2);
  EXPECT_TRUE(d.ProjectPrefix(2) == d);
}

}  // namespace
}  // namespace hdidx::data
