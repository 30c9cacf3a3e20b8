// side.hpp - what the A/B driver asks of one source tree. side.cpp
// implements it once per tree (see CMakeLists.txt); this header names no
// simulator type, so the driver sees both trees through it alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace ab {

/// What must come out equal on both sides, bit for bit.
struct Outcome {
  double energy_j{0.0};
  double reward{0.0};
  std::uint64_t decisions{0};
  std::size_t table_states{0};

  [[nodiscard]] bool operator==(const Outcome&) const = default;
};

class Side {
 public:
  Side() = default;
  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;
  Side(Side&&) = delete;
  Side& operator=(Side&&) = delete;
  virtual ~Side() = default;

  /// The phone mix: trains one Next table per mix scenario (the deployed
  /// policy) and returns their summed training outcome.
  virtual Outcome phone_train() = 0;
  /// Opens deployed session `k` of the seeded mix; returns its step count.
  virtual std::int64_t phone_open(std::uint64_t seed, std::size_t k) = 0;
  /// Steps the open session `steps` times.
  virtual void phone_steps(std::int64_t steps) = 0;
  /// The open session's outcome; closes it.
  virtual Outcome phone_close() = 0;

  /// A churned fleet server with its snapshot ring at `ring_prefix`,
  /// after `warm_rounds` untimed rounds.
  virtual void fleet_open(std::uint64_t seed, const std::string& ring_prefix,
                          std::size_t warm_rounds) = 0;
  /// One round; returns the round's outcome (reward, global table size).
  virtual Outcome fleet_round() = 0;
};

std::unique_ptr<Side> make_side_a();
std::unique_ptr<Side> make_side_b();

}  // namespace ab
