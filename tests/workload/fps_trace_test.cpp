// Unit tests for FPS trace persistence.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/error.hpp"
#include "workload/fps_trace.hpp"
#include "temp_path.hpp"

namespace nextgov::workload {
namespace {

class FpsTraceTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("nextgov_trace_test.csv");
};

TEST_F(FpsTraceTest, RoundTripsThroughCsv) {
  FpsTrace trace;
  for (int i = 0; i < 160; ++i) {
    trace.add(SimTime::from_ms(i * 25), (i % 3 == 0) ? 60.0 : 30.5);
  }
  trace.save_csv(path_);
  const FpsTrace loaded = FpsTrace::load_csv(path_);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(loaded.samples()[i].time.seconds(), trace.samples()[i].time.seconds(), 1e-6);
    EXPECT_NEAR(loaded.samples()[i].fps, trace.samples()[i].fps, 1e-6);
  }
}

TEST_F(FpsTraceTest, EmptyTraceRoundTrips) {
  FpsTrace trace;
  trace.save_csv(path_);
  EXPECT_TRUE(FpsTrace::load_csv(path_).empty());
}

TEST(FpsTrace, LoadMissingFileThrows) {
  EXPECT_THROW(FpsTrace::load_csv("/nonexistent/trace.csv"), IoError);
}

}  // namespace
}  // namespace nextgov::workload
