// Unit tests for the session recorder.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "sim/recorder.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

TEST(Recorder, StoresSamplesInOrder) {
  Recorder rec;
  for (int i = 0; i < 5; ++i) {
    Sample s;
    s.time_s = i;
    s.power_w = 2.0 + i;
    rec.add(s);
  }
  ASSERT_EQ(rec.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(rec.samples()[3].power_w, 5.0);
}

TEST(Recorder, ColumnExtraction) {
  Recorder rec;
  for (int i = 0; i < 3; ++i) {
    Sample s;
    s.fps = 10.0 * i;
    rec.add(s);
  }
  const auto fps = rec.column(&Sample::fps);
  ASSERT_EQ(fps.size(), 3u);
  EXPECT_DOUBLE_EQ(fps[2], 20.0);
}

TEST(Recorder, RejectsNonPositivePeriod) {
  EXPECT_THROW(Recorder{SimTime::zero()}, ConfigError);
}

TEST(Recorder, CsvHasHeaderAndAllRows) {
  const std::string path = test::unique_temp_path("recorder_test.csv");
  Recorder rec;
  Sample s;
  s.time_s = 1.0;
  s.fps = 60.0;
  rec.add(s);
  rec.save_csv(path);
  std::ifstream in{path};
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("time_s"), std::string::npos);
  EXPECT_NE(header.find("ppdw"), std::string::npos);
  std::string row;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, row)));
  EXPECT_FALSE(static_cast<bool>(std::getline(in, row)));
  std::remove(path.c_str());
}

TEST(Recorder, ClearEmpties) {
  Recorder rec;
  rec.add(Sample{});
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

}  // namespace
}  // namespace nextgov::sim
