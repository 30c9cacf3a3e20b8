// ab_step - a paired, in-process A/B of the engine step across two source
// trees. Both trees' src/ are linked into this one binary (tree B's under
// the namespace nextgov_b), and the same work alternates between them:
//
//   * phone: deployed Next sessions of perfbench's phone_deploy mix, in
//     1000-step blocks (one simulated second), A then B, then B then A;
//   * fleet: whole rounds of perfbench's fleet_churn server.
//
// Host drift moves both sides of a pair alike, so the median of the
// per-pair B/A time ratios resolves a few percent where separate runs
// spread by tens of percent. Every session's energy, reward, decision count
// and table size (and every round's reward, global table size and
// decisions) must be equal on both sides; the tool exits 1 if one is not.
//
//   cmake -S tools/ab_step -B build-ab -DAB_TREE_A=<baseline checkout>
//   cmake --build build-ab -j
//   build-ab/ab_step [--seed N] [--phone-sessions N] [--fleet-rounds N]
//                    [--scratch DIR]
//
// Tree B defaults to the checkout holding this tool; with AB_TREE_A left
// at its default too, the run is an A/A check of the method itself.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "side.hpp"

namespace {

constexpr std::int64_t kBlockSteps = 1000;
constexpr std::size_t kFleetWarmRounds = 4;

struct Args {
  std::uint64_t seed{1};
  std::size_t phone_sessions{24};
  std::size_t fleet_rounds{20};
  std::filesystem::path scratch;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ab_step [--seed N] [--phone-sessions N] [--fleet-rounds N] "
               "[--scratch DIR]\n");
  std::exit(2);
}

std::uint64_t parse_count(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage();
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  a.scratch = std::filesystem::temp_directory_path() / ("ab_step-" + std::to_string(::getpid()));
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (flag == "--seed") {
      a.seed = parse_count(value);
    } else if (flag == "--phone-sessions") {
      a.phone_sessions = parse_count(value);
    } else if (flag == "--fleet-rounds") {
      a.fleet_rounds = parse_count(value);
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      usage();
    }
  }
  return a;
}

template <typename F>
double timed(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The p-quantile of `v` (nearest rank); 0 when empty.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

void report(const char* what, const std::vector<double>& ratios, double a_s, double b_s) {
  std::printf("%s: %zu pairs, median B/A %.4f (quartiles %.4f-%.4f), total A %.3f s, B %.3f s\n",
              what, ratios.size(), quantile(ratios, 0.5), quantile(ratios, 0.25),
              quantile(ratios, 0.75), a_s, b_s);
}

bool same(const char* what, std::size_t index, const ab::Outcome& a, const ab::Outcome& b) {
  if (a == b) return true;
  std::printf(
      "%s %zu differs:\n  A energy %.17g J, reward %.17g, decisions %llu, states %zu\n"
      "  B energy %.17g J, reward %.17g, decisions %llu, states %zu\n",
      what, index, a.energy_j, a.reward, static_cast<unsigned long long>(a.decisions),
      a.table_states, b.energy_j, b.reward, static_cast<unsigned long long>(b.decisions),
      b.table_states);
  return false;
}

/// Runs `f(side)` on both sides, A first when `a_first`; adds each side's
/// time to its total and returns B's time over A's.
template <typename F>
double pair(bool a_first, ab::Side& a, ab::Side& b, double& a_total, double& b_total, F&& f) {
  double ta = 0.0;
  double tb = 0.0;
  if (a_first) {
    ta = timed([&] { f(a); });
    tb = timed([&] { f(b); });
  } else {
    tb = timed([&] { f(b); });
    ta = timed([&] { f(a); });
  }
  a_total += ta;
  b_total += tb;
  return tb / ta;
}

bool phone(const Args& args, ab::Side& a, ab::Side& b) {
  bool ok = same("training", 0, a.phone_train(), b.phone_train());
  std::vector<double> ratios;
  double a_s = 0.0;
  double b_s = 0.0;
  for (std::size_t k = 0; k < args.phone_sessions; ++k) {
    const std::int64_t steps = a.phone_open(args.seed, k);
    if (b.phone_open(args.seed, k) != steps) {
      std::printf("session %zu: step counts differ\n", k);
      return false;
    }
    for (std::int64_t done = 0; done < steps; done += kBlockSteps) {
      const std::int64_t n = std::min(kBlockSteps, steps - done);
      const double r = pair(ratios.size() % 2 == 0, a, b, a_s, b_s,
                            [n](ab::Side& side) { side.phone_steps(n); });
      if (n == kBlockSteps) ratios.push_back(r);
    }
    ok = same("session", k, a.phone_close(), b.phone_close()) && ok;
  }
  report("phone", ratios, a_s, b_s);
  return ok;
}

bool fleet(const Args& args, ab::Side& a, ab::Side& b) {
  std::filesystem::create_directories(args.scratch);
  a.fleet_open(args.seed, (args.scratch / "ring_a").string(), kFleetWarmRounds);
  b.fleet_open(args.seed, (args.scratch / "ring_b").string(), kFleetWarmRounds);
  bool ok = true;
  std::vector<double> ratios;
  double a_s = 0.0;
  double b_s = 0.0;
  for (std::size_t r = 0; r < args.fleet_rounds; ++r) {
    ab::Outcome out_a;
    ab::Outcome out_b;
    ratios.push_back(pair(r % 2 == 0, a, b, a_s, b_s, [&](ab::Side& side) {
      (&side == &a ? out_a : out_b) = side.fleet_round();
    }));
    ok = same("round", r, out_a, out_b) && ok;
  }
  report("fleet", ratios, a_s, b_s);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto a = ab::make_side_a();
  const auto b = ab::make_side_b();
  bool ok = phone(args, *a, *b);
  ok = fleet(args, *a, *b) && ok;
  std::filesystem::remove_all(args.scratch);
  std::printf("%s\n", ok ? "results identical" : "RESULTS DIFFER");
  return ok ? 0 : 1;
}
