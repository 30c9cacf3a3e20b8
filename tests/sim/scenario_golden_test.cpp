// Golden-trace regression net over the scenario library (ctest label:
// golden). Every library scenario runs under stock schedutil at its own
// seed and full duration, and the summary fingerprint (energy, peak
// temperatures, frame drops, PPDW, FPS) must match the checked-in table
// below. Any engine / thermal / workload / render change that shifts a
// trace fails here with a readable per-field diff - that is the point:
// behaviour changes must be deliberate, reviewed, and re-pinned.
//
// Regenerating after a deliberate change: run this binary (or
// `ctest -L golden`) and paste the replacement table it prints on
// mismatch, e.g.
//
//   ./build/tests/nextgov_golden_tests --gtest_filter='ScenarioGolden.*'
//
// (see bench/README.md, "Scenario library"). Fingerprints are exact on a
// given toolchain; the comparison allows 1e-9 relative slack so unrelated
// FP-contraction differences between compilers do not produce noise, while
// any real behavioural shift (orders of magnitude larger) still fails.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "sim/scenario.hpp"

namespace nextgov::sim {
namespace {

struct GoldenFingerprint {
  std::string_view scenario;
  double energy_j;
  double peak_temp_big_c;
  double peak_temp_device_c;
  std::int64_t frames_dropped;
  double avg_ppdw;
  double avg_fps;
};

// --- checked-in fingerprints (schedutil, scenario's base seed) -------------
// REGENERATE-BY: pasting the table printed on mismatch (see file header).
constexpr GoldenFingerprint kGolden[] = {
    {"fig1_session", 1023.5701398386586, 52.299999999999997, 31.600000000000001, 0, 0.21148897111782369, 10.578571428571429},
    {"fig1_session_90hz", 1059.3525682416707, 52.600000000000001, 31.800000000000001, 150, 0.20471414758167425, 14.503571428571428},
    {"fig1_session_120hz", 1082.7560046859287, 52.799999999999997, 31.899999999999999, 170, 0.25514493395845356, 18.439285714285713},
    {"fig1_session_15c", 992.25875931195515, 44.799999999999997, 25.100000000000001, 0, 0.22798221922758116, 10.578571428571429},
    {"fig1_session_25c", 1047.1205374566662, 57.5, 35.899999999999999, 0, 0.20026446647570925, 10.578571428571429},
    {"fig1_session_35c", 1117.72486736154, 71.099999999999994, 47, 0, 0.17274599252977896, 10.578571428571429},
    {"social_gaming", 1509.713406728036, 80.900000000000006, 36.700000000000003, 20, 0.19131205722831945, 38.707407407407409},
    {"commute_media", 1149.9477754348086, 53.799999999999997, 32.200000000000003, 42, 0.19031913808610823, 18.244444444444444},
    {"binge_watch", 1015.0058300053357, 46.899999999999999, 30.300000000000001, 10, 0.35656398828086033, 27.9375},
    {"spotify_bursty", 735.53272413978902, 61.5, 33.200000000000003, 0, 0.20523530586108299, 4.5333333333333332},
    {"pubg_hot35", 2471.1197170949918, 92.099999999999994, 55.799999999999997, 24, 0.1303106596377408, 58.223333333333336},
    {"lineage_120hz", 2502.5594795133165, 83.299999999999997, 43.200000000000003, 6915, 0.21509419130875032, 87.543333333333337},
};

[[nodiscard]] bool close(double actual, double expected) noexcept {
  const double tol = 1e-9 * std::max(1.0, std::abs(expected));
  return std::abs(actual - expected) <= tol;
}

[[nodiscard]] const GoldenFingerprint* find_golden(std::string_view name) noexcept {
  for (const auto& g : kGolden) {
    if (g.scenario == name) return &g;
  }
  return nullptr;
}

/// One readable line per field; only printed for mismatching fields.
void diff_field(const char* field, double expected, double actual, bool* ok) {
  if (close(actual, expected)) return;
  *ok = false;
  ADD_FAILURE() << "  " << field << ": golden " << expected << " vs actual " << actual
                << " (delta " << actual - expected << ")";
}

/// The whole replacement table, printed once per failing run so a
/// deliberate engine change is re-pinned by copy-paste, not by hand.
void print_replacement_table(std::span<const SessionResult> results,
                             std::span<const std::string_view> names) {
  std::printf("\n--- replacement golden table (paste into scenario_golden_test.cpp) ---\n");
  std::printf("constexpr GoldenFingerprint kGolden[] = {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("    {\"%.*s\", %.17g, %.17g, %.17g, %" PRId64 ", %.17g, %.17g},\n",
                static_cast<int>(names[i].size()), names[i].data(), r.energy_j,
                r.peak_temp_big_c, r.peak_temp_device_c, r.frames_dropped, r.avg_ppdw,
                r.avg_fps);
  }
  std::printf("};\n----------------------------------------------------------------------\n\n");
}

TEST(ScenarioGolden, LibraryFingerprintsAreStable) {
  const auto names = scenario_names();
  ASSERT_EQ(names.size(), std::size(kGolden))
      << "scenario library and golden table diverged: update kGolden";

  // All scenarios in one plan across the worker pool - the runner's
  // bit-identity contract makes this equivalent to running them serially.
  RunPlan plan;
  for (std::string_view name : names) {
    const ScenarioSpec spec = scenario(name);
    plan.add(spec.app_factory(), spec.name, spec.experiment_config(GovernorKind::kSchedutil));
  }
  const auto results = execute(plan);
  ASSERT_EQ(results.size(), names.size());

  bool all_ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GoldenFingerprint* golden = find_golden(names[i]);
    ASSERT_NE(golden, nullptr) << "no golden fingerprint for scenario " << names[i];
    const SessionResult& r = results[i];
    bool ok = true;
    SCOPED_TRACE(std::string{"scenario "} + std::string{names[i]});
    diff_field("energy_j", golden->energy_j, r.energy_j, &ok);
    diff_field("peak_temp_big_c", golden->peak_temp_big_c, r.peak_temp_big_c, &ok);
    diff_field("peak_temp_device_c", golden->peak_temp_device_c, r.peak_temp_device_c, &ok);
    diff_field("avg_ppdw", golden->avg_ppdw, r.avg_ppdw, &ok);
    diff_field("avg_fps", golden->avg_fps, r.avg_fps, &ok);
    if (r.frames_dropped != golden->frames_dropped) {
      ok = false;
      ADD_FAILURE() << "  frames_dropped: golden " << golden->frames_dropped << " vs actual "
                    << r.frames_dropped;
    }
    all_ok = all_ok && ok;
  }
  if (!all_ok) print_replacement_table(results, names);
}

}  // namespace
}  // namespace nextgov::sim
