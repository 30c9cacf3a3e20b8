// Unit tests for the CSV writer used by the figure benches.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "temp_path.hpp"

namespace nextgov {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("nextgov_csv_test.csv");
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv{path_, {"time_s", "fps"}};
    csv.row({1.0, 60.0});
    csv.row({2.0, 30.5});
  }
  EXPECT_EQ(read_all(path_), "time_s,fps\n1,60\n2,30.5\n");
}

TEST_F(CsvTest, StringRowsAreEscaped) {
  {
    CsvWriter csv{path_, {"app", "note"}};
    csv.row_strings({"facebook", "plain"});
    csv.row_strings({"a,b", "say \"hi\""});
  }
  EXPECT_EQ(read_all(path_), "app,note\nfacebook,plain\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, ShortWriteThrowsIoError) {
  // /dev/full opens and buffers, then fails every write that reaches it:
  // close() must report the lost rows, naming the file.
  CsvWriter csv{"/dev/full", {"time_s", "fps"}};
  for (int i = 0; i < 100; ++i) csv.row({static_cast<double>(i), 60.0});
  try {
    csv.close();
    ADD_FAILURE() << "close() on /dev/full did not throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string{e.what()}.find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST_F(CsvTest, CloseAfterFullWriteSucceeds) {
  CsvWriter csv{path_, {"time_s", "fps"}};
  csv.row({1.0, 60.0});
  csv.close();
  EXPECT_EQ(read_all(path_), "time_s,fps\n1,60\n");
}

TEST_F(CsvTest, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), IoError);
}

TEST_F(CsvTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), ConfigError);
}

TEST(CsvEscape, QuotingRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

}  // namespace
}  // namespace nextgov
