#include "io/paged_file.h"

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "io/disk_model.h"
#include "io/page_accountant.h"

namespace hdidx::io {
namespace {

TEST(DiskModelTest, ReferenceConstantsMatchPaper) {
  const DiskModel disk;
  EXPECT_EQ(disk.page_bytes, 8192u);
  EXPECT_DOUBLE_EQ(disk.seek_time_s, 0.010);
  EXPECT_DOUBLE_EQ(disk.transfer_time_s(), 0.0004);
  // 10 seeks + 10 transfers = 104 ms.
  EXPECT_NEAR(disk.Seconds(10, 10), 0.104, 1e-12);
}

TEST(DiskModelTest, TransferTimeScalesWithPageSize) {
  DiskModel disk;
  disk.page_bytes = 65536;  // 8x reference
  EXPECT_NEAR(disk.transfer_time_s(), 0.0032, 1e-12);
}

TEST(DiskModelTest, PointsPerPage) {
  const DiskModel disk;
  // 60-d floats: 240 bytes/point -> 34 points in 8 KB.
  EXPECT_EQ(disk.PointsPerPage(60), 34u);
  // Giant points still get one per page.
  EXPECT_EQ(disk.PointsPerPage(10000), 1u);
}

TEST(IoStatsTest, ArithmeticAndCost) {
  IoStats a{10, 100};
  IoStats b{1, 2};
  const IoStats sum = a + b;
  EXPECT_EQ(sum.page_seeks, 11u);
  EXPECT_EQ(sum.page_transfers, 102u);
  const DiskModel disk;
  EXPECT_NEAR(sum.CostSeconds(disk), 11 * 0.010 + 102 * 0.0004, 1e-12);
}

class PagedFileTest : public ::testing::Test {
 protected:
  // Runs `body` on an owned copy of `data` and on a read-only view of it:
  // both kinds charge through the same accountant, so every charging rule
  // holds for both.
  template <typename Body>
  void ForBothKinds(const data::Dataset& data, Body body) {
    for (const bool view : {false, true}) {
      SCOPED_TRACE(view ? "view" : "owned copy");
      PagedFile file = view ? PagedFile::View(data, disk_)
                            : PagedFile::FromDataset(data, disk_);
      EXPECT_EQ(file.is_view(), view);
      body(file);
    }
  }

  // 2-d points, 8 KB pages: 1024 points per page.
  DiskModel disk_;
};

TEST_F(PagedFileTest, FromDatasetChargesNothing) {
  common::Rng rng(1);
  const auto data = data::GenerateUniform(3000, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    EXPECT_EQ(file.size(), 3000u);
    EXPECT_EQ(file.stats().page_transfers, 0u);
    EXPECT_EQ(file.points_per_page(), 1024u);
    EXPECT_EQ(file.num_pages(), 3u);
  });
}

TEST_F(PagedFileTest, SequentialScanIsOneSeek) {
  common::Rng rng(2);
  const auto data = data::GenerateUniform(4096, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    file.ChargeAccess(0, file.size());
    EXPECT_TRUE(std::equal(file.raw().begin(), file.raw().end(),
                           data.data().begin(), data.data().end()));
    EXPECT_EQ(file.stats().page_seeks, 1u);
    EXPECT_EQ(file.stats().page_transfers, 4u);
  });
}

TEST_F(PagedFileTest, AdjacentReadsDoNotSeek) {
  common::Rng rng(3);
  const auto data = data::GenerateUniform(4096, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    file.ChargeAccess(0, 1024);     // page 0: seek
    file.ChargeAccess(1024, 1024);  // page 1: adjacent
    file.ChargeAccess(2048, 1024);  // page 2: adjacent
    EXPECT_EQ(file.stats().page_seeks, 1u);
    EXPECT_EQ(file.stats().page_transfers, 3u);
  });
}

TEST_F(PagedFileTest, BackwardReadSeeks) {
  common::Rng rng(4);
  const auto data = data::GenerateUniform(4096, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    file.ChargeAccess(2048, 1024);
    file.ChargeAccess(0, 1024);
    EXPECT_EQ(file.stats().page_seeks, 2u);
  });
}

TEST_F(PagedFileTest, RangeSpanningPagesCountsAllTransfers) {
  common::Rng rng(5);
  const auto data = data::GenerateUniform(4096, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    // Points 512..2559 overlap pages 0,1,2.
    file.ChargeAccess(512, 2048);
    EXPECT_EQ(file.stats().page_transfers, 3u);
    EXPECT_EQ(file.stats().page_seeks, 1u);
  });
}

TEST_F(PagedFileTest, WriteReadRoundTrip) {
  PagedFile file(2, disk_);
  file.Resize(100);
  const std::vector<float> point = {1.5f, -2.5f};
  file.Write(42, 1, point.data());
  const auto row = file.raw().subspan(42 * 2, 2);
  EXPECT_EQ(std::vector<float>(row.begin(), row.end()), point);
  EXPECT_EQ(file.stats().page_seeks, 1u);
  EXPECT_EQ(file.stats().page_transfers, 1u);
}

TEST_F(PagedFileTest, WriteThenAdjacentWriteNoExtraSeek) {
  PagedFile file(2, disk_);
  file.Resize(4096);
  std::vector<float> buf(1024 * 2, 1.0f);
  file.Write(0, 1024, buf.data());
  file.Write(1024, 1024, buf.data());
  EXPECT_EQ(file.stats().page_seeks, 1u);
  EXPECT_EQ(file.stats().page_transfers, 2u);
}

TEST_F(PagedFileTest, InvalidateHeadForcesSeek) {
  common::Rng rng(6);
  const auto data = data::GenerateUniform(2048, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    file.ChargeAccess(0, 1024);
    file.InvalidateHead();
    file.ChargeAccess(1024, 1024);  // would have been adjacent
    EXPECT_EQ(file.stats().page_seeks, 2u);
  });
}

TEST_F(PagedFileTest, ChargeSeekCounts) {
  PagedFile file(2, disk_);
  file.Resize(10);
  file.ChargeSeek();
  file.ChargeSeek();
  EXPECT_EQ(file.stats().page_seeks, 2u);
  EXPECT_EQ(file.stats().page_transfers, 0u);
}

TEST_F(PagedFileTest, ResetStatsClearsCountersAndHead) {
  common::Rng rng(7);
  const auto data = data::GenerateUniform(2048, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    file.ChargeAccess(0, 1024);
    file.ResetStats();
    EXPECT_EQ(file.stats().page_seeks, 0u);
    file.ChargeAccess(1024, 1024);
    EXPECT_EQ(file.stats().page_seeks, 1u);  // head was reset: seek again
  });
}

TEST_F(PagedFileTest, ChargeAccessMatchesReadCharges) {
  common::Rng rng(8);
  const auto data = data::GenerateUniform(4096, 2, &rng);
  ForBothKinds(data, [&](PagedFile& file) {
    file.ChargeAccess(100, 2000);
    // A bare accountant over the same points charges the same.
    PageAccountant accountant(file.points_per_page(), data.size());
    accountant.ChargeAccess(100, 2000);
    EXPECT_TRUE(accountant.stats() == file.stats());
  });
}

TEST_F(PagedFileTest, HighDimensionalPointsPerPage) {
  DiskModel disk;
  PagedFile file(617, disk);  // 2468 bytes per point -> 3 per page
  EXPECT_EQ(file.points_per_page(), 3u);
  file.Resize(10);
  EXPECT_EQ(file.num_pages(), 4u);
}

TEST_F(PagedFileTest, ViewBorrowsWithoutCopying) {
  common::Rng rng(9);
  const auto data = data::GenerateUniform(100, 2, &rng);
  const PagedFile view = PagedFile::View(data, disk_);
  EXPECT_EQ(view.raw().data(), data.data().data());
  EXPECT_EQ(view.raw().size(), data.data().size());
  const PagedFile copy = PagedFile::FromDataset(data, disk_);
  EXPECT_NE(copy.raw().data(), data.data().data());
}

using PagedFileDeathTest = PagedFileTest;

TEST_F(PagedFileDeathTest, ViewRejectsWrites) {
  common::Rng rng(10);
  const auto data = data::GenerateUniform(100, 2, &rng);
  PagedFile view = PagedFile::View(data, disk_);
  const std::vector<float> point = {1.f, 2.f};
  EXPECT_DEATH(view.Write(0, 1, point.data()), "read-only PagedFile view");
  EXPECT_DEATH(view.Resize(200), "read-only PagedFile view");
  EXPECT_DEATH(view.raw_mutable(), "read-only PagedFile view");
}

TEST(PageAccountantTest, ChargesPagesOfAPointRange) {
  PageAccountant accountant(/*points_per_page=*/10, /*num_points=*/100);
  EXPECT_EQ(accountant.num_pages(), 10u);
  accountant.ChargeAccess(5, 20);   // pages 0-2: seek
  accountant.ChargeAccess(30, 10);  // page 3: adjacent
  accountant.InvalidateHead();
  accountant.ChargeAccess(40, 1);   // page 4: seek after invalidation
  accountant.ChargeAccess(0, 0);    // empty: nothing
  EXPECT_EQ(accountant.stats().page_seeks, 2u);
  EXPECT_EQ(accountant.stats().page_transfers, 5u);
  accountant.ResetStats();
  EXPECT_TRUE(accountant.stats() == IoStats{});
}

}  // namespace
}  // namespace hdidx::io
