// federated_training - Section IV-C: "a new type of machine learning called
// federated learning could be utilized to train the agent more effectively
// by leveraging the computational power of the cloud."
//
// Simulates a calm fleet with sim::FleetServer: N devices (each with its
// own user seed) train Next on the same app concurrently across the
// runner's worker pool, and every round the server FedAvg-merges their
// uploads into the global table they all warm-start from next round - with
// no churn configured this is plain synchronous federated averaging. A
// brand-new device then deploys the global table without any local
// training.
//
//   usage: example_federated_training [devices] [rounds] [--out PATH]
//
// Defaults stay laptop-friendly (12 devices x 3 rounds x 150 s); the fleet
// path itself scales to hundreds of devices, e.g.
//   example_federated_training 200 3
// Round 0's uploads travel in full; every later upload travels as a delta
// against the warm-start table its device trained from, so only the states
// it touched cross the wire. --out writes the final global table's
// canonical serialized bytes to PATH (a failed or short write exits 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "sim/fleet_server.hpp"
#include "workload/apps.hpp"

namespace {

// Strict common parser (rejects "-5", which strtoul silently wrapped to
// eighteen quintillion devices) plus this example's "positive" requirement.
bool parse_positive(const char* arg, std::size_t& out) {
  std::size_t value = 0;
  if (!nextgov::parse_count(arg, value) || value == 0) return false;
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nextgov;

  const auto app = workload::AppId::kLineage;
  sim::FleetServerOptions fleet;
  fleet.devices = 12;
  std::size_t rounds = 3;
  std::string out_path;
  std::vector<const char*> positional;
  bool flags_ok = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        flags_ok = false;
        break;
      }
      out_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t n_pos = positional.size();
  const bool args_ok = flags_ok &&
                       (n_pos < 1 || parse_positive(positional[0], fleet.devices)) &&
                       (n_pos < 2 || parse_positive(positional[1], rounds));
  if (!args_ok || n_pos > 2) {
    std::fprintf(stderr,
                 "usage: %s [devices] [rounds] [--out PATH]\n"
                 "       both positive integers (default 12 3)\n",
                 argv[0]);
    return 1;
  }
  // Each device trains for a small slice of the single-device budget per
  // round: the point of federation is pooling short, cheap sessions.
  fleet.round_duration = SimTime::from_seconds(150.0);
  fleet.base_seed = 100;

  std::printf("federating %zu devices, %zu merge rounds x %.0f s on '%s'\n\n", fleet.devices,
              rounds, fleet.round_duration.seconds(),
              std::string{workload::to_string(app)}.c_str());

  sim::FleetServer server{app, fleet};
  double wall_seconds = 0.0;
  server.run_rounds(rounds, [&](const sim::FleetServerRoundStats& stats) {
    wall_seconds += stats.wall_seconds;
    std::printf("  round %zu: mean reward %.3f, %zu/%zu uploads merged, %zu global states, "
                "%llu upload bytes (%zu deltas)\n",
                stats.round, stats.mean_reward, stats.quorum, stats.training_devices,
                stats.global_states, static_cast<unsigned long long>(stats.upload_bytes),
                stats.delta_uploads);
  });
  const rl::QTable& global = *server.global();
  const sim::FleetServerStats totals = server.stats();

  const rl::CloudTimingModel timing{};
  std::printf("\nglobal aggregate: %zu states, %.1f s wall for %.0f device-sim-seconds "
              "(+%.0f s comm overhead)\n",
              global.state_count(), wall_seconds,
              static_cast<double>(fleet.devices * rounds) * fleet.round_duration.seconds(),
              timing.comm_overhead_s);
  std::printf("upload wire: %llu full (%llu B) + %llu delta (%llu B)\n",
              static_cast<unsigned long long>(totals.uploads_full),
              static_cast<unsigned long long>(totals.upload_bytes_full),
              static_cast<unsigned long long>(totals.uploads_delta),
              static_cast<unsigned long long>(totals.upload_bytes_delta));

  if (!out_path.empty()) {
    // Canonical serialized bytes of the learned global table: two runs that
    // claim identical training can be compared with a plain `cmp` of these
    // files.
    ByteWriter canonical;
    global.serialize(canonical);
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    const bool ok = std::fwrite(canonical.data().data(), 1, canonical.size(), f) ==
                    canonical.size();
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "short write to %s\n", out_path.c_str());
      return 1;
    }
    std::printf("canonical global table -> %s (%zu bytes)\n", out_path.c_str(),
                canonical.data().size());
  }

  // A fresh device receives the global table and runs with zero training;
  // compare against stock on the same never-seen user session.
  sim::ExperimentConfig cfg;
  cfg.duration = workload::paper_session_length(app);
  cfg.seed = 999;  // a user none of the training devices saw

  sim::RunPlan plan;
  cfg.governor = sim::GovernorKind::kSchedutil;
  plan.add(app, cfg);
  cfg.governor = sim::GovernorKind::kNext;
  cfg.trained_table = &global;
  plan.add(app, cfg);
  const auto results = sim::execute(plan);
  const sim::SessionResult& stock = results[0];
  const sim::SessionResult& fed = results[1];

  std::printf("\n%-28s %12s %16s %10s %9s\n", "configuration", "avg_power_W",
              "peak_big_temp_C", "avg_FPS", "states");
  std::printf("%-28s %12.3f %16.1f %10.1f %9s\n", "schedutil (stock)", stock.avg_power_w,
              stock.peak_temp_big_c, stock.avg_fps, "-");
  std::printf("%-28s %12.3f %16.1f %10.1f %9zu\n", "Next (global aggregate)", fed.avg_power_w,
              fed.peak_temp_big_c, fed.avg_fps, global.state_count());
  std::printf("\nfederated vs stock: %.1f%% power saved on a never-trained device.\n",
              100.0 * (1.0 - fed.avg_power_w / stock.avg_power_w));
  return 0;
}
