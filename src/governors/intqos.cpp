#include "governors/intqos.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "soc/soc.hpp"

namespace nextgov::governors {

IntQosGovernor::IntQosGovernor(IntQosParams params) : params_{params} {
  require(params_.period.us() > 0, "IntQos period must be positive");
  require(params_.rls_forgetting > 0.5 && params_.rls_forgetting <= 1.0,
          "RLS forgetting factor in (0.5, 1]");
  reset();
}

void IntQosGovernor::reset() {
  fps_avg_ = 0.0;
  fps_avg_init_ = false;
  // Mild physical prior: a/b chosen so a 2 GHz CPU + 0.5 GHz GPU frame
  // costs ~12 ms; keeps early decisions sane until RLS converges.
  theta_ = {4.0e-3, 3.5e-3, 1.0e-3};  // seconds per (1/GHz), and offset
  p_ = {1e2, 0, 0, 0, 1e2, 0, 0, 0, 1e2};
}

void IntQosGovernor::rls_update(const std::array<double, 3>& x, double y) noexcept {
  // Standard RLS with forgetting factor lambda.
  const double lambda = params_.rls_forgetting;
  // k = P x / (lambda + x' P x)
  std::array<double, 3> px{};
  for (int r = 0; r < 3; ++r) {
    px[static_cast<std::size_t>(r)] = p_[static_cast<std::size_t>(r * 3)] * x[0] +
                                      p_[static_cast<std::size_t>(r * 3 + 1)] * x[1] +
                                      p_[static_cast<std::size_t>(r * 3 + 2)] * x[2];
  }
  const double denom = lambda + x[0] * px[0] + x[1] * px[1] + x[2] * px[2];
  std::array<double, 3> k{px[0] / denom, px[1] / denom, px[2] / denom};
  const double err = y - (theta_[0] * x[0] + theta_[1] * x[1] + theta_[2] * x[2]);
  for (std::size_t i = 0; i < 3; ++i) theta_[i] += k[i] * err;
  // P = (P - k x' P) / lambda
  std::array<double, 9> p_new{};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      p_new[r * 3 + c] = (p_[r * 3 + c] - k[r] * px[c]) / lambda;
    }
  }
  p_ = p_new;
  // Keep the physical coefficients non-negative (work cannot be negative).
  theta_[0] = std::max(theta_[0], 0.0);
  theta_[1] = std::max(theta_[1], 0.0);
  theta_[2] = std::max(theta_[2], 0.0);
}

double IntQosGovernor::predict_frame_time(double f_cpu_ghz, double f_gpu_ghz) const noexcept {
  return theta_[0] / f_cpu_ghz + theta_[1] / f_gpu_ghz + theta_[2];
}

void IntQosGovernor::control(const Observation& obs, soc::Soc& soc) {
  const double fps = obs.fps.value();
  if (!fps_avg_init_) {
    fps_avg_ = std::max(fps, params_.min_target_fps);
    fps_avg_init_ = true;
  } else {
    fps_avg_ += params_.fps_window_alpha * (fps - fps_avg_);
  }

  auto& big = soc.big();
  auto& gpu = soc.gpu();

  // Learn the frame-time model from the observed operating point whenever
  // the pipeline is actually rendering.
  if (fps >= 5.0) {
    const std::array<double, 3> x{1.0 / obs.clusters[soc::ClusterIndex::kBig].frequency.ghz(),
                                  1.0 / obs.clusters[soc::ClusterIndex::kGpu].frequency.ghz(),
                                  1.0};
    rls_update(x, 1.0 / fps);
  }

  const double target = std::max(params_.min_target_fps, fps_avg_);
  const double budget = 1.0 / target;

  // Exhaustive search over the (big, GPU) OPP grid - 18 x 6 points - for
  // the cheapest pair predicted to meet the frame-time budget.
  double best_cost = 0.0;
  std::size_t best_cpu = big.opps().size() - 1;
  std::size_t best_gpu = gpu.opps().size() - 1;
  bool found = false;
  for (std::size_t ci = 0; ci < big.opps().size(); ++ci) {
    const auto& copp = big.opps()[ci];
    for (std::size_t gi = 0; gi < gpu.opps().size(); ++gi) {
      const auto& gopp = gpu.opps()[gi];
      const double t = predict_frame_time(copp.frequency.ghz(), gopp.frequency.ghz());
      if (t > budget) continue;
      const double vc = copp.voltage.value();
      const double vg = gopp.voltage.value();
      const double cost = vc * vc * copp.frequency.ghz() +
                          params_.gpu_cost_weight * vg * vg * gopp.frequency.ghz();
      if (!found || cost < best_cost) {
        best_cost = cost;
        best_cpu = ci;
        best_gpu = gi;
        found = true;
      }
    }
  }
  // Infeasible budget -> run flat out (the original falls back to max).
  big.set_max_cap_index(best_cpu);
  gpu.set_max_cap_index(best_gpu);
}

}  // namespace nextgov::governors
