// mutation.hpp - the structure-blind mutator and the allocation check shared
// by the decoder mutation tests in tests/alloc/.
//
// The CRCs of a snapshot container stop random damage before any parser
// sees it, so the tests mutate section *payloads* and rebuild the container
// around them (SnapshotWriter stamps fresh CRCs): the decoder itself meets
// the damage. Each mutant must either decode or be refused with
// SerializeError, and decoding it may allocate at most a fixed multiple of
// its size (counted by the replaced operator new in counting_new.*).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "counting_new.hpp"
#include "sim/fleet_server.hpp"

namespace nextgov::test {

/// Mutants per run: a short fixed budget for the unit tier, raised by the
/// NEXTGOV_MUTANTS environment variable for a longer run.
inline int mutant_budget() {
  const char* env = std::getenv("NEXTGOV_MUTANTS");
  return env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 600;
}

/// A fast churning fleet with delta uploads: short simulated rounds, so a
/// restored mutant can run a round in milliseconds. After a few rounds its
/// ring entry holds warm bases, delta-stored uploads and pending uploads.
inline sim::FleetServerOptions fuzz_server(const std::string& prefix) {
  sim::FleetServerOptions options;
  options.devices = 4;
  options.round_duration = SimTime::from_seconds(4.0);
  options.round_deadline = SimTime::from_seconds(8.0);
  options.episode_length = SimTime::from_seconds(2.0);
  options.heartbeat_period = SimTime::from_seconds(0.5);
  options.lease_timeout = SimTime::from_seconds(1.0);
  options.upload_latency = SimTime::from_seconds(0.2);
  options.retry_backoff = SimTime::from_seconds(0.5);
  options.churn.depart_rate = 0.2;
  options.churn.straggle_rate = 0.4;
  options.churn.rejoin_after_rounds = 1;
  options.delta_uploads = true;
  options.snapshot_ring = 1;
  options.snapshot_prefix = prefix;
  return options;
}

inline void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The payload bytes of section `name`.
inline std::vector<std::uint8_t> payload(const SnapshotReader& container, const char* name) {
  ByteReader in = container.section(name);
  std::vector<std::uint8_t> out;
  out.reserve(in.remaining());
  while (!in.done()) out.push_back(in.u8());
  return out;
}

/// One to four structure-blind edits: flip a bit, set a byte, overwrite a
/// 4- or 8-byte field with a boundary value (counts and rounds are u32 and
/// u64 fields), cut the tail, duplicate a span or delete one.
inline void mutate(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng() % n); };
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    switch (rng() % 6) {
      case 0:
        bytes[pick(bytes.size())] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1:
        bytes[pick(bytes.size())] = static_cast<std::uint8_t>(rng());
        break;
      case 2: {
        const std::size_t width = rng() % 2 == 0 ? 4 : 8;
        if (bytes.size() < width) break;
        const std::uint64_t values[] = {0, 1, 2, 5, 0x7F, 0xFF, 0xFFFF, 0x7FFFFFFF,
                                        0xFFFFFFFF, ~std::uint64_t{0}, rng()};
        const std::uint64_t v = values[pick(std::size(values))];
        const std::size_t at = pick(bytes.size() - width + 1);
        for (std::size_t i = 0; i < width; ++i) bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        break;
      }
      case 3:
        bytes.resize(pick(bytes.size()));
        break;
      case 4: {
        const std::size_t at = pick(bytes.size());
        const std::size_t len = std::min<std::size_t>(1 + pick(64), bytes.size() - at);
        const std::vector<std::uint8_t> span(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                                             bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pick(bytes.size() + 1)),
                     span.begin(), span.end());
        break;
      }
      default: {
        const std::size_t at = pick(bytes.size());
        const std::size_t len = std::min<std::size_t>(1 + pick(64), bytes.size() - at);
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                    bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
        break;
      }
    }
  }
}

/// Decoded/refused counts and the worst allocation factor of one mutation
/// run, plus the allocation bound every decode is held to.
class MutationTally {
 public:
  /// A decode may allocate `factor` times its input, plus `floor_bytes`
  /// for allocations a decode makes whatever its size (a table's first
  /// index, for one).
  MutationTally(std::uint64_t factor, std::uint64_t floor_bytes)
      : factor_{factor}, floor_bytes_{floor_bytes} {}

  /// Runs `decode` under the allocation counter. Returns true when it
  /// decoded, false when it threw SerializeError; any other exception
  /// escapes and fails the test.
  template <typename Decode>
  bool run(std::uint64_t input_bytes, Decode&& decode) {
    const std::uint64_t live_before = live_bytes();
    reset_peak_bytes();
    bool ok = false;
    try {
      decode();
      ok = true;
    } catch (const SerializeError&) {
    }
    const std::uint64_t peak = peak_bytes() - live_before;
    // The factor the bound holds: bytes beyond the floor per input byte.
    const std::uint64_t above_floor = peak > floor_bytes_ ? peak - floor_bytes_ : 0;
    worst_factor_ = std::max(worst_factor_, static_cast<double>(above_floor) /
                                                static_cast<double>(std::max<std::uint64_t>(input_bytes, 1)));
    EXPECT_LE(peak, factor_ * input_bytes + floor_bytes_)
        << "decode peak " << peak << " B for a " << input_bytes << " B input";
    ok ? ++decoded_ : ++refused_;
    return ok;
  }

  /// Records the counts and the worst factor (bytes beyond the floor per
  /// input byte) as test properties and checks
  /// that both outcomes are common, or the mutator is not reaching the
  /// parser.
  void expect_both_outcomes_common(int mutants) const {
    ::testing::Test::RecordProperty("decoded", decoded_);
    ::testing::Test::RecordProperty("refused", refused_);
    ::testing::Test::RecordProperty("worst_allocation_factor", std::to_string(worst_factor_));
    EXPECT_GT(decoded_, mutants / 20);
    EXPECT_GT(refused_, mutants / 4);
  }

 private:
  std::uint64_t factor_;
  std::uint64_t floor_bytes_;
  int decoded_{0};
  int refused_{0};
  double worst_factor_{0.0};
};

}  // namespace nextgov::test
