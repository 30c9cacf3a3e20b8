// simple_governors.hpp - trivial baseline governors.
//
// performance / powersave pin every cluster at its cap ends; they bound the
// achievable envelope (and provide PPDW_best / PPDW_worst operating points
// for Fig. 4's worst-case series). ondemand is the classic load-threshold
// governor, included as an extra baseline for the ablation benches.
#pragma once

#include "governors/governor.hpp"

namespace nextgov::governors {

/// Pins every cluster to its maxfreq cap.
class PerformanceGovernor final : public FreqGovernor {
 public:
  [[nodiscard]] SimTime period() const override { return SimTime::from_ms(100); }
  void control(const Observation& obs, soc::Soc& soc) override;
  [[nodiscard]] std::string_view name() const override { return "performance"; }
};

/// Pins every cluster to its lowest OPP.
class PowersaveGovernor final : public FreqGovernor {
 public:
  [[nodiscard]] SimTime period() const override { return SimTime::from_ms(100); }
  void control(const Observation& obs, soc::Soc& soc) override;
  [[nodiscard]] std::string_view name() const override { return "powersave"; }
};

/// Classic ondemand: jump to max above the up-threshold, otherwise step
/// down one OPP when utilization would stay below the threshold.
class OndemandGovernor final : public FreqGovernor {
 public:
  explicit OndemandGovernor(double up_threshold = 0.80, SimTime period = SimTime::from_ms(50));
  [[nodiscard]] SimTime period() const override { return period_; }
  void control(const Observation& obs, soc::Soc& soc) override;
  [[nodiscard]] std::string_view name() const override { return "ondemand"; }

 private:
  double up_threshold_;
  SimTime period_;
};

}  // namespace nextgov::governors
