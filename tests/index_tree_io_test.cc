#include "index/tree_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/random.h"
#include "core/predictor.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "test_util.h"
#include "workload/query_workload.h"

namespace hdidx::index {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TreeIoTest, RoundTripPreservesEverything) {
  const auto data = hdidx::testing::SmallClustered(3000, 5, 1);
  const TreeTopology topo(data.size(), 25, 6);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree original = BulkLoadInMemory(data, options);

  const std::string path = TempPath("tree.hdrt");
  std::string error;
  ASSERT_TRUE(WriteTree(original, path, &error)) << error;
  const auto loaded = ReadTree(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  ASSERT_EQ(loaded->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded->root(), original.root());
  EXPECT_EQ(loaded->order(), original.order());
  EXPECT_EQ(loaded->num_leaves(), original.num_leaves());
  for (uint32_t id = 0; id < original.num_nodes(); ++id) {
    EXPECT_TRUE(loaded->node(id).box == original.node(id).box) << id;
    EXPECT_EQ(loaded->node(id).level, original.node(id).level);
    ASSERT_EQ(loaded->node(id).children.size(),
              original.node(id).children.size());
    EXPECT_TRUE(std::equal(loaded->node(id).children.begin(),
                           loaded->node(id).children.end(),
                           original.node(id).children.begin()));
    EXPECT_EQ(loaded->node(id).start, original.node(id).start);
    EXPECT_EQ(loaded->node(id).count, original.node(id).count);
  }
  std::remove(path.c_str());
}

TEST(TreeIoTest, ReloadedTreeAnswersQueriesIdentically) {
  const auto data = hdidx::testing::SmallClustered(2000, 6, 2);
  const TreeTopology topo(data.size(), 20, 5);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree original = BulkLoadInMemory(data, options);

  const std::string path = TempPath("tree_query.hdrt");
  std::string error;
  ASSERT_TRUE(WriteTree(original, path, &error)) << error;
  const auto loaded = ReadTree(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  common::Rng rng(3);
  const auto workload = workload::QueryWorkload::Create(data, 10, 5, &rng);
  io::IoStats original_io;
  io::IoStats loaded_io;
  EXPECT_EQ(core::MeasureLeafAccesses(original, workload, &original_io),
            core::MeasureLeafAccesses(*loaded, workload, &loaded_io));
  EXPECT_EQ(original_io.page_seeks, loaded_io.page_seeks);
  std::remove(path.c_str());
}

TEST(TreeIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad.hdrt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOT_A_TREE_FILE_AT_ALL______________";
  }
  std::string error;
  EXPECT_FALSE(ReadTree(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(TreeIoTest, TruncationRejected) {
  const auto data = hdidx::testing::SmallClustered(500, 3, 4);
  const TreeTopology topo(data.size(), 20, 5);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree tree = BulkLoadInMemory(data, options);
  const std::string path = TempPath("trunc.hdrt");
  std::string error;
  ASSERT_TRUE(WriteTree(tree, path, &error));
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() * 2 / 3));
  }
  EXPECT_FALSE(ReadTree(path, &error).has_value());
  std::remove(path.c_str());
}

TEST(TreeIoTest, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(ReadTree(TempPath("missing.hdrt"), &error).has_value());
}

}  // namespace
}  // namespace hdidx::index
