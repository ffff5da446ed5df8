#include "index/external_build.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/adaptive_build.h"
#include "index/bulk_loader.h"
#include "test_util.h"

namespace hdidx::index {
namespace {

class ExternalBuildTest : public ::testing::Test {
 protected:
  static constexpr size_t kN = 5000;
  static constexpr size_t kDim = 8;

  void SetUp() override {
    data_ = hdidx::testing::SmallClustered(kN, kDim, 21);
    topo_ = std::make_unique<TreeTopology>(kN, 25, 6);
  }

  ExternalBuildResult Build(size_t memory_points) {
    file_ = std::make_unique<io::PagedFile>(
        io::PagedFile::FromDataset(data_, io::DiskModel{}));
    ExternalBuildOptions options;
    options.topology = topo_.get();
    options.memory_points = memory_points;
    return BuildOnDisk(file_.get(), options);
  }

  data::Dataset data_{1};
  std::unique_ptr<TreeTopology> topo_;
  std::unique_ptr<io::PagedFile> file_;
};

TEST_F(ExternalBuildTest, TreeIsValidOverReorderedFile) {
  const ExternalBuildResult result = Build(600);
  // The file was physically reordered into leaf order; validate against it.
  const data::Dataset reordered(
      std::vector<float>(file_->raw().begin(), file_->raw().end()), kDim);
  hdidx::testing::ExpectValidTree(result.tree, reordered, 1);
  EXPECT_TRUE(result.tree.order().empty());  // identity order
}

TEST_F(ExternalBuildTest, FilePermutationOfOriginal) {
  const ExternalBuildResult result = Build(600);
  // Same multiset of points: compare sorted coordinate sums.
  auto digest = [&](std::span<const float> buf) {
    std::vector<double> sums(kN, 0.0);
    for (size_t i = 0; i < kN; ++i) {
      for (size_t k = 0; k < kDim; ++k) sums[i] += buf[i * kDim + k];
    }
    std::sort(sums.begin(), sums.end());
    return sums;
  };
  EXPECT_EQ(digest(file_->raw()), digest(data_.data()));
}

TEST_F(ExternalBuildTest, StructureMatchesInMemoryBuild) {
  const ExternalBuildResult external = Build(600);
  BulkLoadOptions options;
  options.topology = topo_.get();
  const RTree in_memory = BulkLoadInMemory(data_, options);
  EXPECT_EQ(external.tree.num_nodes(), in_memory.num_nodes());
  EXPECT_EQ(external.tree.num_leaves(), in_memory.num_leaves());
  EXPECT_EQ(external.tree.root_level(), in_memory.root_level());
  // Total leaf volume agrees closely (contents may differ on ties).
  EXPECT_NEAR(external.tree.TotalLeafVolume(), in_memory.TotalLeafVolume(),
              0.05 * std::max(1e-12, in_memory.TotalLeafVolume()));
}

TEST_F(ExternalBuildTest, ChargesSubstantialIo) {
  const ExternalBuildResult result = Build(600);
  const size_t data_pages = file_->num_pages();
  // Building externally costs multiple passes over the data.
  EXPECT_GT(result.io.page_transfers, 2 * data_pages);
  EXPECT_GT(result.io.page_seeks, 10u);
}

TEST_F(ExternalBuildTest, MoreMemoryMeansLessIo) {
  const ExternalBuildResult small = Build(300);
  const ExternalBuildResult large = Build(3000);
  EXPECT_LT(large.io.page_transfers, small.io.page_transfers);
}

TEST_F(ExternalBuildTest, WholeDatasetInMemoryIsTwoPasses) {
  const ExternalBuildResult result = Build(kN);
  const size_t data_pages = io::DiskModel{}.PagesForPoints(kN, kDim);
  // One read plus one write of the whole file, plus directory pages.
  EXPECT_LE(result.io.page_transfers, 2 * data_pages + 200);
  EXPECT_LE(result.io.page_seeks, 5u);
}

TEST_F(ExternalBuildTest, DuplicateHeavyDimensionStillTerminates) {
  // All points share the value 0.5 in every dimension except one: external
  // quickselect must fall back to midrange pivots and terminate.
  common::Rng rng(3);
  data::Dataset degenerate(4);
  for (size_t i = 0; i < 2000; ++i) {
    degenerate.Append(std::vector<float>{
        static_cast<float>(rng.NextDouble()), 0.5f, 0.5f, 0.5f});
  }
  io::PagedFile file = io::PagedFile::FromDataset(degenerate, io::DiskModel{});
  TreeTopology topo(2000, 20, 5);
  ExternalBuildOptions options;
  options.topology = &topo;
  options.memory_points = 100;
  const ExternalBuildResult result = BuildOnDisk(&file, options);
  EXPECT_EQ(result.tree.num_leaves(), topo.NumLeaves());
}

TEST_F(ExternalBuildTest, AllPointsIdenticalTerminates) {
  data::Dataset constant(3);
  for (size_t i = 0; i < 500; ++i) {
    constant.Append(std::vector<float>{1.f, 2.f, 3.f});
  }
  io::PagedFile file = io::PagedFile::FromDataset(constant, io::DiskModel{});
  TreeTopology topo(500, 10, 4);
  ExternalBuildOptions options;
  options.topology = &topo;
  options.memory_points = 50;
  const ExternalBuildResult result = BuildOnDisk(&file, options);
  EXPECT_EQ(result.tree.num_leaves(), topo.NumLeaves());
  // Every leaf is the same degenerate point-box.
  for (uint32_t id : result.tree.leaf_ids()) {
    EXPECT_EQ(result.tree.node(id).box.Volume(), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Adaptive single-pass pipeline (SplitStrategy::kAdaptiveSample): the
// sample pass plans the whole split tree, one streaming pass classifies,
// and the finish pass assembles — so data passes stay flat as N/M grows
// where external quickselect pays another pass per tree level.
// ---------------------------------------------------------------------------

class ExternalAdaptiveBuildTest : public ExternalBuildTest {
 protected:
  ExternalBuildResult BuildAdaptive(size_t memory_points,
                                    common::ExecutionContext* ctx = nullptr) {
    file_ = std::make_unique<io::PagedFile>(
        io::PagedFile::FromDataset(data_, io::DiskModel{}));
    ExternalBuildOptions options;
    options.topology = topo_.get();
    options.memory_points = memory_points;
    options.split_strategy = SplitStrategy::kAdaptiveSample;
    options.exec = ctx;
    return BuildOnDisk(file_.get(), options);
  }
};

TEST_F(ExternalAdaptiveBuildTest, TreeIsValidOverReorderedFile) {
  const ExternalBuildResult result = BuildAdaptive(600);
  const data::Dataset reordered(
      std::vector<float>(file_->raw().begin(), file_->raw().end()), kDim);
  hdidx::testing::ExpectValidTree(result.tree, reordered, 1);
  EXPECT_TRUE(result.tree.order().empty());
  EXPECT_EQ(result.tree.num_leaves(), topo_->NumLeaves());
}

TEST_F(ExternalAdaptiveBuildTest, FilePermutationOfOriginal) {
  const ExternalBuildResult result = BuildAdaptive(600);
  (void)result;
  auto digest = [&](std::span<const float> buf) {
    std::vector<double> sums(kN, 0.0);
    for (size_t i = 0; i < kN; ++i) {
      for (size_t k = 0; k < kDim; ++k) sums[i] += buf[i * kDim + k];
    }
    std::sort(sums.begin(), sums.end());
    return sums;
  };
  EXPECT_EQ(digest(file_->raw()), digest(data_.data()));
}

TEST_F(ExternalAdaptiveBuildTest, PhasesPartitionTheTotal) {
  const ExternalBuildResult result = BuildAdaptive(600);
  // BuildOnDisk already ran AuditExternalBuildIo (it CHECKs); re-assert
  // the partition here so the test documents the contract.
  EXPECT_TRUE(result.phases.Total() == result.io);
  EXPECT_GT(result.phases.sample.page_transfers, 0u);
  EXPECT_GT(result.phases.partition.page_transfers, 0u);
  EXPECT_GT(result.phases.finish.page_transfers, 0u);
}

TEST_F(ExternalAdaptiveBuildTest, HalvesDataPassesVersusQuickselect) {
  // ~8x the in-memory budget: quickselect pays a pass per split level,
  // the adaptive pipeline a constant number. The issue's bar: at least
  // 2x fewer passes over the data.
  const size_t memory_points = kN / 8;
  const ExternalBuildResult vamsplit = Build(memory_points);
  const ExternalBuildResult adaptive = BuildAdaptive(memory_points);
  const size_t data_pages = io::DiskModel{}.PagesForPoints(kN, kDim);
  const double vam_passes =
      static_cast<double>(vamsplit.io.page_transfers) /
      static_cast<double>(data_pages);
  const double adaptive_passes =
      static_cast<double>(adaptive.io.page_transfers) /
      static_cast<double>(data_pages);
  EXPECT_LE(adaptive_passes * 2.0, vam_passes)
      << "adaptive " << adaptive_passes << " passes vs vamsplit "
      << vam_passes;
  // And the trees agree on shape.
  EXPECT_EQ(adaptive.tree.num_leaves(), vamsplit.tree.num_leaves());
}

TEST_F(ExternalAdaptiveBuildTest, DeterministicAcrossThreads) {
  // The external source is single-owner and charges every chunk on the
  // calling thread in plan order, so the layout digest AND every I/O
  // counter are bit-identical whatever pool the caller passes.
  const ExternalBuildResult reference = BuildAdaptive(600);
  const uint64_t golden = TreeLayoutDigest(reference.tree);
  for (const size_t threads : {1u, 2u, 8u}) {
    common::ThreadPool pool(threads);
    common::ExecutionContext ctx(&pool);
    const ExternalBuildResult run = BuildAdaptive(600, &ctx);
    EXPECT_EQ(TreeLayoutDigest(run.tree), golden) << threads << " threads";
    EXPECT_TRUE(run.io == reference.io)
        << threads << " threads: " << run.io.page_seeks << "/"
        << run.io.page_transfers << " vs " << reference.io.page_seeks << "/"
        << reference.io.page_transfers;
    EXPECT_TRUE(run.phases.sample == reference.phases.sample);
    EXPECT_TRUE(run.phases.partition == reference.phases.partition);
    EXPECT_TRUE(run.phases.finish == reference.phases.finish);
    EXPECT_TRUE(run.phases.directory == reference.phases.directory);
  }
}

TEST_F(ExternalAdaptiveBuildTest, DegenerateDatasetsTerminate) {
  for (const bool identical : {false, true}) {
    data::Dataset degenerate(4);
    common::Rng rng(3);
    for (size_t i = 0; i < 2000; ++i) {
      degenerate.Append(std::vector<float>{
          identical ? 0.5f : static_cast<float>(rng.NextDouble()), 0.5f,
          0.5f, 0.5f});
    }
    io::PagedFile file =
        io::PagedFile::FromDataset(degenerate, io::DiskModel{});
    TreeTopology topo(2000, 20, 5);
    ExternalBuildOptions options;
    options.topology = &topo;
    options.memory_points = 100;
    options.split_strategy = SplitStrategy::kAdaptiveSample;
    const ExternalBuildResult result = BuildOnDisk(&file, options);
    EXPECT_EQ(result.tree.num_leaves(), topo.NumLeaves());
  }
}

TEST_F(ExternalAdaptiveBuildTest, TinyMemoryStillBuilds) {
  // Memory far below a single directory subtree: the buckets are single
  // leaves, gathered a few to a window.
  const ExternalBuildResult result = BuildAdaptive(120);
  const data::Dataset reordered(
      std::vector<float>(file_->raw().begin(), file_->raw().end()), kDim);
  hdidx::testing::ExpectValidTree(result.tree, reordered, 1);
}

// ---------------------------------------------------------------------------
// Exact I/O pins. The seeks and transfers of an on-disk build are a pure
// function of the data, the strategy and M, so they are pinned exactly —
// each phase, the total, the tree layout and the reordered file's bytes —
// for every strategy at two memory sizes. The values were captured at the
// commit just before the bulk loader's serial recursion and bucket-root
// splitter were folded into the one plan builder, and must not move: any
// change to the order of the source's seeks, window loads or flushes shows
// here.
// ---------------------------------------------------------------------------

struct PinnedBuild {
  SplitStrategy strategy;
  size_t memory_points;
  io::IoStats total;
  io::IoStats sample;
  io::IoStats partition;
  io::IoStats finish;
  io::IoStats directory;
  uint64_t layout_digest;
  uint64_t file_digest;
};

/// FNV-1a over the raw bytes of the file's points.
uint64_t FileDigest(const io::PagedFile& file) {
  const auto raw = file.raw();
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < raw.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

TEST_F(ExternalBuildTest, ExactIoPinnedForEveryStrategyAndMemorySize) {
  // At M = 120 the adaptive buckets are single leaves (a level-2 subtree
  // holds 150 points), gathered four to a window; at M = 600 they are
  // level-2 subtrees.
  ASSERT_EQ(AdaptiveBucketLevel(*topo_, topo_->height(), 1, 120), 1u);
  ASSERT_EQ(AdaptiveBucketLevel(*topo_, topo_->height(), 1, 600), 2u);

  using S = SplitStrategy;
  const PinnedBuild pins[] = {
      {S::kMaxVariance, 120, {2368, 3793}, {0, 0}, {2188, 3521}, {179, 231},
       {1, 41}, 17851680641878200069ull, 6401780301807197304ull},
      {S::kMaxVariance, 600, {267, 949}, {0, 0}, {237, 828}, {29, 80},
       {1, 41}, 13690250509856395585ull, 7318632255767046928ull},
      {S::kMaxExtent, 120, {2227, 3491}, {0, 0}, {1991, 3041}, {235, 409},
       {1, 41}, 7273197444741946947ull, 12336822756250114900ull},
      {S::kMaxExtent, 600, {267, 931}, {0, 0}, {225, 725}, {41, 165},
       {1, 41}, 16631803805155306488ull, 643936663531026840ull},
      {S::kRoundRobin, 120, {2170, 3333}, {0, 0}, {2000, 3073}, {169, 219},
       {1, 41}, 15189182000939409601ull, 1332517966248725200ull},
      {S::kRoundRobin, 600, {258, 847}, {0, 0}, {230, 733}, {27, 73},
       {1, 41}, 15189182000939409601ull, 5373094959888087292ull},
      {S::kAdaptiveSample, 120, {533, 681}, {1, 20}, {481, 549}, {50, 69},
       {1, 43}, 1448079837612210342ull, 11867090310286085192ull},
      {S::kAdaptiveSample, 600, {93, 229}, {1, 20}, {82, 140}, {9, 28},
       {1, 41}, 16604186611037779181ull, 8304722308659300436ull},
  };
  const auto expect_io = [](const io::IoStats& expected,
                            const io::IoStats& actual, const char* what) {
    EXPECT_EQ(actual.page_seeks, expected.page_seeks) << what;
    EXPECT_EQ(actual.page_transfers, expected.page_transfers) << what;
  };
  for (const PinnedBuild& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "strategy " << static_cast<int>(pin.strategy) << ", M "
                 << pin.memory_points);
    file_ = std::make_unique<io::PagedFile>(
        io::PagedFile::FromDataset(data_, io::DiskModel{}));
    ExternalBuildOptions options;
    options.topology = topo_.get();
    options.memory_points = pin.memory_points;
    options.split_strategy = pin.strategy;
    const ExternalBuildResult result = BuildOnDisk(file_.get(), options);
    expect_io(pin.total, result.io, "total");
    expect_io(pin.sample, result.phases.sample, "sample");
    expect_io(pin.partition, result.phases.partition, "partition");
    expect_io(pin.finish, result.phases.finish, "finish");
    expect_io(pin.directory, result.phases.directory, "directory");
    EXPECT_EQ(TreeLayoutDigest(result.tree), pin.layout_digest);
    EXPECT_EQ(FileDigest(*file_), pin.file_digest);
  }
}

using ExternalBuildDeathTest = ExternalBuildTest;

TEST_F(ExternalBuildDeathTest, AuditCatchesPhaseTallyMismatch) {
  // The accounting contract: phase tallies must sum exactly to the
  // IoStats delta the PagedFile observed. A build that loses (or
  // invents) a page CHECK-fails instead of shipping a wrong simulation.
  const ExternalBuildResult result = Build(600);
  ExternalBuildIo corrupted = result.phases;
  corrupted.partition.page_transfers += 1;
  EXPECT_DEATH(AuditExternalBuildIo(corrupted, result.io),
               "phase tallies drift from observed I/O");
}

}  // namespace
}  // namespace hdidx::index
