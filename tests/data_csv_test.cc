#include "data/csv.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace hdidx::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

TEST(CsvTest, ReadsSimpleFile) {
  const std::string path = TempPath("simple.csv");
  WriteFile(path, "1.5,2.5\n-3,0.25\n");
  std::string error;
  const auto data = ReadCsv(path, CsvOptions{}, &error);
  ASSERT_TRUE(data.has_value()) << error;
  EXPECT_EQ(data->size(), 2u);
  EXPECT_EQ(data->dim(), 2u);
  EXPECT_FLOAT_EQ(data->row(0)[0], 1.5f);
  EXPECT_FLOAT_EQ(data->row(1)[1], 0.25f);
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderAndSkipColumns) {
  const std::string path = TempPath("header.csv");
  WriteFile(path, "id,x,y\npoint-1,1,2\npoint-2,3,4\n");
  CsvOptions options;
  options.has_header = true;
  options.skip_columns = 1;
  std::string error;
  const auto data = ReadCsv(path, options, &error);
  ASSERT_TRUE(data.has_value()) << error;
  EXPECT_EQ(data->size(), 2u);
  EXPECT_EQ(data->dim(), 2u);
  EXPECT_FLOAT_EQ(data->row(1)[0], 3.0f);
  std::remove(path.c_str());
}

TEST(CsvTest, CustomDelimiterAndBlankLines) {
  const std::string path = TempPath("semi.csv");
  WriteFile(path, "1;2;3\n\n4;5;6\n   \n");
  CsvOptions options;
  options.delimiter = ';';
  std::string error;
  const auto data = ReadCsv(path, options, &error);
  ASSERT_TRUE(data.has_value()) << error;
  EXPECT_EQ(data->size(), 2u);
  EXPECT_EQ(data->dim(), 3u);
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsRaggedRows) {
  const std::string path = TempPath("ragged.csv");
  WriteFile(path, "1,2,3\n4,5\n");
  std::string error;
  EXPECT_FALSE(ReadCsv(path, CsvOptions{}, &error).has_value());
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsNonNumeric) {
  const std::string path = TempPath("alpha.csv");
  WriteFile(path, "1,2\n3,abc\n");
  std::string error;
  EXPECT_FALSE(ReadCsv(path, CsvOptions{}, &error).has_value());
  EXPECT_NE(error.find("abc"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsEmptyFile) {
  const std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  std::string error;
  EXPECT_FALSE(ReadCsv(path, CsvOptions{}, &error).has_value());
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(
      ReadCsv(TempPath("no_such.csv"), CsvOptions{}, &error).has_value());
}

TEST(CsvTest, RoundTrip) {
  // Nine significant digits name every float exactly, so text holding them
  // reads back to the very floats it was printed from: the largest and the
  // smallest normal float, negative zero and values with no short decimal
  // form.
  const std::string path = TempPath("roundtrip.csv");
  WriteFile(path,
            "0.100000001,-2.5,3.40282347e+38\n"
            "1.17549435e-38,1.00000002e-30,-0\n"
            "123456.789,-0.333333343,16777216\n");
  const std::vector<std::vector<float>> expected = {
      {0.1f, -2.5f, std::numeric_limits<float>::max()},
      {std::numeric_limits<float>::min(), 1e-30f, -0.0f},
      {123456.789f, -1.0f / 3.0f, 16777216.0f}};
  std::string error;
  const auto loaded = ReadCsv(path, CsvOptions{}, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), expected.size());
  ASSERT_EQ(loaded->dim(), 3u);
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(std::bit_cast<uint32_t>(loaded->row(i)[k]),
                std::bit_cast<uint32_t>(expected[i][k]))
          << "row " << i << " column " << k;
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, WhitespaceTolerantFields) {
  const std::string path = TempPath("spaces.csv");
  WriteFile(path, "1.0 ,2.0\r\n3.0,4.0\n");
  std::string error;
  const auto data = ReadCsv(path, CsvOptions{}, &error);
  ASSERT_TRUE(data.has_value()) << error;
  EXPECT_FLOAT_EQ(data->row(0)[1], 2.0f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hdidx::data
