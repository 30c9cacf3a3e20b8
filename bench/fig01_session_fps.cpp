// fig01_session_fps - reproduces the paper's Fig. 1: FPS generation and
// big/LITTLE operating frequencies under stock schedutil across a
// home -> Facebook -> Spotify session (~280 s), sampled every 3 s.
//
// The paper's observation this bench must reproduce:
//   * FPS varies wildly within and across apps (user-interaction driven);
//   * during Spotify, FPS sits near 0 while the big/LITTLE frequencies
//     stay high - the waste that motivates Next.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"

int main() {
  using namespace nextgov;
  using namespace nextgov::bench;

  print_header("Fig. 1", "FPS + big/LITTLE frequency under schedutil (home->Facebook->Spotify)");

  // The canonical session comes from the scenario library; only the
  // figure's 3 s sampling cadence is local to this bench.
  sim::ScenarioSpec spec = sim::scenario("fig1_session");
  spec.record_period = SimTime::from_seconds(3.0);

  sim::RunPlan plan;
  plan.add(spec.app_factory(), spec.name,
           spec.experiment_config(sim::GovernorKind::kSchedutil));
  const sim::SessionResult r = std::move(sim::execute(plan).front());

  std::printf("%8s %10s %8s %14s %14s\n", "time_s", "app", "fps", "f_big_MHz", "f_little_MHz");
  for (const auto& s : r.series) {
    const char* app = s.time_s < 30.0 ? "home" : (s.time_s < 150.0 ? "facebook" : "spotify");
    std::printf("%8.0f %10s %8.1f %14.0f %14.0f\n", s.time_s, app, s.fps, s.f_big_mhz,
                s.f_little_mhz);
  }

  // The paper's qualitative claims, quantified per segment.
  RunningStats spotify_fps;
  RunningStats spotify_fbig;
  RunningStats fb_fps;
  for (const auto& s : r.series) {
    if (s.time_s >= 150.0) {
      spotify_fps.add(s.fps);
      spotify_fbig.add(s.f_big_mhz);
    } else if (s.time_s >= 30.0) {
      fb_fps.add(s.fps);
    }
  }
  std::printf("\nsegment summary:\n");
  std::printf("  facebook  mean FPS %.1f (bursty: min %.0f / max %.0f)\n", fb_fps.mean(),
              fb_fps.min(), fb_fps.max());
  std::printf("  spotify   mean FPS %.1f with mean big frequency %.0f MHz\n",
              spotify_fps.mean(), spotify_fbig.mean());
  std::printf("  -> paper's waste pattern reproduced: %s\n",
              (spotify_fps.mean() < 15.0 && spotify_fbig.mean() > 1200.0) ? "YES" : "NO");

  sim::Recorder rec{SimTime::from_seconds(3.0)};
  for (const auto& s : r.series) rec.add(s);
  const std::string csv = out_dir() + "/fig01_session_fps.csv";
  rec.save_csv(csv);
  std::printf("series -> %s\n\n", csv.c_str());
  return 0;
}
