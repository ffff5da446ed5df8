#include "data/dataset_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"

namespace hdidx::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Writes a file with a well-formed header claiming `num_points` x `dim`
/// floats, followed by `payload_floats` zero floats.
void WriteCraftedFile(const std::string& path, uint64_t num_points,
                      uint64_t dim, size_t payload_floats) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint32_t version = 1;
  out.write("HDIX", 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_points), sizeof(num_points));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  const std::vector<float> payload(payload_floats, 0.0f);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(float)));
}

/// ReadDataset's error on a crafted file ("" if it loaded).
std::string CraftedFileError(uint64_t num_points, uint64_t dim,
                             size_t payload_floats) {
  const std::string path = TempPath("crafted.hdx");
  WriteCraftedFile(path, num_points, dim, payload_floats);
  std::string error;
  const bool loaded = ReadDataset(path, &error).has_value();
  std::remove(path.c_str());
  EXPECT_EQ(loaded, error.empty());
  return error;
}

TEST(DatasetIoTest, RoundTrip) {
  common::Rng rng(1);
  const Dataset original = GenerateUniform(257, 7, &rng);
  const std::string path = TempPath("roundtrip.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(original, path, &error)) << error;
  const auto loaded = ReadDataset(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(*loaded == original);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, EmptyDatasetRoundTrip) {
  const Dataset empty(3);
  const std::string path = TempPath("empty.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(empty, path, &error)) << error;
  const auto loaded = ReadDataset(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->dim(), 3u);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileFails) {
  std::string error;
  const auto loaded = ReadDataset(TempPath("does_not_exist.hdx"), &error);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(DatasetIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.hdx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAHDIXFILE____________________";
  }
  std::string error;
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, TruncatedPayloadRejected) {
  common::Rng rng(2);
  const Dataset original = GenerateUniform(100, 4, &rng);
  const std::string path = TempPath("truncated.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(original, path, &error));
  // Chop the file short.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, OversizedHeaderRejectedBeforeAllocating) {
  // A 24-byte file claiming 2^40 points of one float used to abort in the
  // payload allocation; beyond the 32-bit row id limit it is refused first.
  EXPECT_NE(CraftedFileError(uint64_t{1} << 40, 1, 0).find("32-bit"),
            std::string::npos);
  // Within that limit, a header claiming 2^32 - 1 points of 2^20 floats
  // (16 PiB) does not match the file either.
  EXPECT_NE(CraftedFileError(UINT32_MAX, uint64_t{1} << 20, 0)
                .find("but the file has 24 bytes"),
            std::string::npos);
}

TEST(DatasetIoTest, WrappedSizeRejected) {
  // 2^62 points x 4 floats x 4 bytes wraps to 0 payload bytes in 64 bits: it
  // used to "load" an empty dataset from a bare header.
  EXPECT_FALSE(CraftedFileError(uint64_t{1} << 62, 4, 0).empty());
  // A point count in range times a huge dimensionality overflows too.
  EXPECT_NE(CraftedFileError(UINT32_MAX, uint64_t{1} << 62, 0)
                .find("overflows"),
            std::string::npos);
  EXPECT_NE(CraftedFileError(2, uint64_t{1} << 62, 0).find("overflows"),
            std::string::npos);
}

TEST(DatasetIoTest, PayloadLengthMustMatchHeaderExactly) {
  EXPECT_EQ(CraftedFileError(10, 4, 40), "");
  // Truncated by one float, and one float (or one byte) past the end.
  EXPECT_NE(CraftedFileError(10, 4, 39).find("but the file has"),
            std::string::npos);
  EXPECT_NE(CraftedFileError(10, 4, 41).find("but the file has"),
            std::string::npos);
  const std::string path = TempPath("trailing_byte.hdx");
  WriteCraftedFile(path, 10, 4, 40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  std::string error;
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  EXPECT_NE(error.find("but the file has 185 bytes"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(DatasetIoTest, UnseekableInputRejectedWithClearError) {
  // A FIFO has no size to check the header against. The test holds it open
  // read-write, so opening it for reading does not wait for a writer, and
  // fills it with a header the reader would otherwise accept.
  const std::string path = TempPath("dataset.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  const int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const std::string crafted = TempPath("fifo_payload.hdx");
  WriteCraftedFile(crafted, 0, 4, 0);
  std::ifstream in(crafted, std::ios::binary);
  const std::string header((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  ASSERT_EQ(write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  std::string error;
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  EXPECT_NE(error.find("cannot determine the size of"), std::string::npos)
      << error;
  close(fd);
  std::remove(path.c_str());
  std::remove(crafted.c_str());
}

TEST(DatasetIoTest, UnwritablePathFails) {
  const Dataset d(1, 2);
  std::string error;
  EXPECT_FALSE(WriteDataset(d, "/nonexistent_dir_xyz/file.hdx", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace hdidx::data
