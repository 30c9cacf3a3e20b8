// session_player - run any app or library scenario under any governor and
// inspect the session.
//
//   session_player [workload] [governor] [duration_s] [seed] [csv_path]
//   session_player --list
//
//   --list   : print every library scenario with a one-line description.
//   workload : a catalog app (facebook | spotify | web_browser | youtube |
//              lineage | pubg | home) or any named scenario from the
//              scenario library (fig1_session, fig1_session_90hz,
//              social_gaming, spotify_bursty, pubg_hot35, ...; see
//              --list). Default: facebook.
//   governor : schedutil | performance | powersave | ondemand | intqos
//              | next | next_trained           (default schedutil)
//   next_trained first trains the agent online on the same workload, then
//   deploys the learned Q-table for the measured session (the paper's
//   "fully trained" evaluation protocol).
//
//   duration_s : seconds as a plain decimal, at most 1e9; 0 (the default)
//                keeps the scenario's own duration.
//
// Prints the session summary and, when csv_path is given, the full 1 s
// time series for plotting.
#include <cstdio>
#include <map>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"

namespace {

using namespace nextgov;

void print_scenario_list() {
  std::puts("library scenarios:");
  for (std::string_view name : sim::scenario_names()) {
    const std::string_view desc = sim::scenario_description(name);
    std::printf("  %-20.*s %.*s\n", static_cast<int>(name.size()), name.data(),
                static_cast<int>(desc.size()), desc.data());
  }
}

void print_usage() {
  std::puts(
      "usage: session_player [workload] [governor] [duration_s] [seed] [csv_path]\n"
      "       session_player --list\n"
      "  duration_s: seconds, 0 <= duration_s <= 1e9 (0 = the workload's own)\n"
      "  workload: facebook spotify web_browser youtube lineage pubg home\n"
      "            or a library scenario (see below)\n"
      "  governor: schedutil performance powersave ondemand intqos next next_trained");
  print_scenario_list();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload_name = argc > 1 ? argv[1] : "facebook";
  if (workload_name == "--list" || workload_name == "-l") {
    print_scenario_list();
    return 0;
  }
  const std::string gov_name = argc > 2 ? argv[2] : "schedutil";
  // Default 0 = the scenario's own duration (paper session length for
  // catalog apps, the full session for library scenarios). Strict parse: a
  // mistyped duration is a usage error, and the bound keeps every accepted
  // value far inside SimTime's int64 microseconds.
  constexpr double kMaxDurationS = 1e9;
  double duration_s = 0.0;
  if (argc > 3 && !parse_seconds(argv[3], kMaxDurationS, duration_s)) {
    std::fprintf(stderr,
                 "session_player: duration_s must be a decimal number of seconds in "
                 "[0, 1e9], got '%s'\n\n",
                 argv[3]);
    print_usage();
    return 2;
  }
  // Strict parse: strtoull silently wrapped "-1" to 2^64 - 1 and accepted
  // trailing garbage; a mistyped seed should be a usage error, not a
  // surprise trajectory.
  std::uint64_t seed = 1;
  if (argc > 4 && !parse_u64(argv[4], seed)) {
    std::fprintf(stderr, "session_player: seed must be a non-negative integer, got '%s'\n\n",
                 argv[4]);
    print_usage();
    return 2;
  }
  const std::string csv_path = argc > 5 ? argv[5] : "";

  const std::map<std::string, workload::AppId> apps{
      {"home", workload::AppId::kHome},         {"facebook", workload::AppId::kFacebook},
      {"spotify", workload::AppId::kSpotify},   {"web_browser", workload::AppId::kWebBrowser},
      {"youtube", workload::AppId::kYoutube},   {"lineage", workload::AppId::kLineage},
      {"pubg", workload::AppId::kPubg}};
  const std::map<std::string, sim::GovernorKind> governors{
      {"schedutil", sim::GovernorKind::kSchedutil},
      {"performance", sim::GovernorKind::kPerformance},
      {"powersave", sim::GovernorKind::kPowersave},
      {"ondemand", sim::GovernorKind::kOndemand},
      {"intqos", sim::GovernorKind::kIntQos},
      {"next", sim::GovernorKind::kNext},
      {"next_trained", sim::GovernorKind::kNext}};

  // Any workload resolves to a ScenarioSpec: catalog apps via the per-app
  // scenario ("fig1session" kept as an alias for the library's
  // fig1_session), everything else looked up in the scenario library.
  sim::ScenarioSpec spec;
  if (const auto app_it = apps.find(workload_name); app_it != apps.end()) {
    spec = sim::app_scenario(app_it->second);
  } else {
    try {
      spec = sim::scenario(workload_name == "fig1session" ? "fig1_session" : workload_name);
    } catch (const ConfigError&) {
      print_usage();
      return 1;
    }
  }
  const auto gov_it = governors.find(gov_name);
  if (gov_it == governors.end()) {
    print_usage();
    return 1;
  }
  if (duration_s > 0.0) spec.duration = SimTime::from_seconds(duration_s);

  sim::ExperimentConfig config = spec.experiment_config(gov_it->second, seed);

  sim::TrainingResult training{rl::QTable{9}, false, 0, 0, 0, 0, 0};
  if (gov_name == "next_trained") {
    sim::TrainingOptions opts = spec.training_options(sim::TrainingOptions{});
    opts.seed = seed + 1000;
    training = sim::train_next_on(spec.app_factory(), config.next_config, opts);
    std::printf("trained: converged=%d sim=%.0fs wall=%.2fs states=%zu mean_reward=%.3f\n",
                training.converged ? 1 : 0, training.sim_seconds, training.wall_seconds,
                training.states_visited, training.final_mean_reward);
    config.trained_table = &training.table;
  }

  sim::RunPlan plan;
  plan.add(spec.app_factory(), spec.name, config);
  const sim::SessionResult r = std::move(sim::execute(plan).front());

  std::printf("workload=%s governor=%s duration=%.0fs seed=%llu ambient=%.0fC refresh=%.0fHz\n",
              r.app.c_str(), r.governor.c_str(), r.duration_s,
              static_cast<unsigned long long>(seed), spec.ambient.value(), spec.refresh_hz);
  std::printf("  avg power     : %7.3f W (peak %.3f W)\n", r.avg_power_w, r.peak_power_w);
  std::printf("  big CPU temp  : %7.2f C avg, %7.2f C peak\n", r.avg_temp_big_c,
              r.peak_temp_big_c);
  std::printf("  device temp   : %7.2f C avg, %7.2f C peak\n", r.avg_temp_device_c,
              r.peak_temp_device_c);
  std::printf("  FPS           : %7.2f avg (%lld presented, %lld dropped)\n", r.avg_fps,
              static_cast<long long>(r.frames_presented),
              static_cast<long long>(r.frames_dropped));
  std::printf("  energy        : %7.1f J   avg PPDW: %.4f\n", r.energy_j, r.avg_ppdw);

  if (!csv_path.empty()) {
    sim::Recorder rec;
    for (const auto& s : r.series) rec.add(s);
    try {
      rec.save_csv(csv_path);
    } catch (const IoError& e) {
      std::fprintf(stderr, "session_player: %s\n", e.what());
      return 1;
    }
    std::printf("  series -> %s (%zu samples)\n", csv_path.c_str(), r.series.size());
  }
  return 0;
}
