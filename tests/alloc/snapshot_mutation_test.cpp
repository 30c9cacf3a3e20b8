// Seeded mutation test of the fleet server's ring-entry decoder.
//
// The CRCs of a snapshot container stop random damage before any parser
// sees it, so on their own they hide how the parsers under them treat
// hostile bytes. This test mutates the "fleet_state" and "server_state"
// payloads of a churning version-4 ring entry (warm bases, delta-stored
// uploads, pending uploads) and re-stamps every section CRC, so the
// decoder itself meets the damage. Each mutant must either decode into a
// state the server restores and runs a round from, or be refused with
// SerializeError, which the server answers by quarantining the slot; and
// decoding it may allocate at most a fixed multiple of its size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

/// Mutants per run: a short fixed budget for the unit tier, raised by the
/// NEXTGOV_MUTANTS environment variable for a longer run.
int mutant_budget() {
  const char* env = std::getenv("NEXTGOV_MUTANTS");
  return env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 600;
}
/// Peak bytes a decode may allocate, as a multiple of the entry's size. A
/// decoded entry holds every upload as a full table, one per device and
/// pending upload, where the entry stores most as small deltas, and each
/// table's index starts at 16 KB: the unmutated entry decodes at about 8x
/// its size, and so did the worst of 20,000 mutants.
constexpr std::uint64_t kAllocationFactor = 32;

/// A fast churning fleet with delta uploads: short simulated rounds, so a
/// restored mutant can run a round in milliseconds.
FleetServerOptions fuzz_server(const std::string& prefix) {
  FleetServerOptions options;
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

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> payload(const SnapshotReader& entry, const char* name) {
  ByteReader in = entry.section(name);
  std::vector<std::uint8_t> out;
  out.reserve(in.remaining());
  while (!in.done()) out.push_back(in.u8());
  return out;
}

/// One to four structure-blind edits: flip a bit, set a byte, overwrite a
/// 4- or 8-byte field with a boundary value (counts and rounds are u32 and
/// u64 fields), cut the tail, duplicate a span or delete one.
void mutate(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng) {
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

TEST(SnapshotMutation, EveryMutantRestoresOrIsRefusedWithBoundedAllocation) {
  const std::string source_prefix = test::unique_temp_path("nextgov_fuzz_source");
  const FleetServerOptions source_options = fuzz_server(source_prefix);
  {
    FleetServer server{workload::AppId::kFacebook, source_options, {.workers = 1}};
    server.run_rounds(5);
  }
  const SnapshotReader entry = SnapshotReader::from_file(source_prefix + ".0");
  ASSERT_EQ(entry.version(), kSnapshotVersion);
  const FleetSnapshot original = read_fleet_state_sections(entry);
  // The entry must exercise what the decoder adds in version 4.
  ASSERT_FALSE(original.warm_bases.empty());
  ASSERT_FALSE(original.pending_uploads.empty()) << "retune: no pending upload at the boundary";
  ASSERT_TRUE(std::any_of(original.uploads.begin(), original.uploads.end(),
                          [](const auto& u) { return u.has_value() && u->ring.has_value(); }));

  const std::vector<std::uint8_t> options_bytes = payload(entry, "fleet_server_options");
  const std::vector<std::uint8_t> sections[] = {payload(entry, "fleet_state"),
                                                payload(entry, "server_state")};
  const std::vector<std::uint8_t> sync = payload(entry, "sync_state");

  const std::string prefix = test::unique_temp_path("nextgov_fuzz_ring");
  const FleetServerOptions options = fuzz_server(prefix);
  std::mt19937_64 rng{20200309};
  const int mutants = mutant_budget();
  int decoded = 0;
  int refused = 0;
  double worst_factor = 0.0;
  for (int i = 0; i < mutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<std::uint8_t> state = sections[0];
    std::vector<std::uint8_t> server = sections[1];
    mutate(i % 2 == 0 ? state : server, rng);
    SnapshotWriter out;
    out.section("fleet_server_options").bytes(options_bytes);
    out.section("fleet_state").bytes(state);
    out.section("server_state").bytes(server);
    out.section("sync_state").bytes(sync);
    std::vector<std::uint8_t> bytes = out.bytes();
    const std::uint64_t input = bytes.size();

    // The decode alone, under the allocation bound.
    const std::uint64_t live_before = test::live_bytes();
    test::reset_peak_bytes();
    bool ok = false;
    try {
      const FleetSnapshot snap = read_fleet_state_sections(SnapshotReader{std::move(bytes), "mutant"});
      ok = true;
    } catch (const SerializeError&) {
    }
    const std::uint64_t peak = test::peak_bytes() - live_before;
    worst_factor = std::max(worst_factor, static_cast<double>(peak) / static_cast<double>(input));
    EXPECT_LE(peak, kAllocationFactor * input) << "decode peak " << peak << " B for a "
                                               << input << " B entry";
    ok ? ++decoded : ++refused;

    // Through the server: a decodable mutant that fits the server restores
    // and serves a round; anything else is quarantined and the server
    // starts cold. Nothing escapes the constructor or the round.
    write_file(prefix + ".0", out.bytes());
    try {
      FleetServer restarted{workload::AppId::kFacebook, options, {.workers = 1}};
      if (restarted.restored()) {
        EXPECT_TRUE(ok);
        const std::size_t round = restarted.round();
        restarted.run_round();
        EXPECT_EQ(restarted.round(), round + 1);
      } else {
        EXPECT_EQ(restarted.stats().snapshots_quarantined, 1u);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped the server: " << e.what();
    }
    std::filesystem::remove(prefix + ".0");
    std::filesystem::remove(prefix + ".0.corrupt");
  }
  RecordProperty("decoded", decoded);
  RecordProperty("refused", refused);
  RecordProperty("worst_allocation_factor", std::to_string(worst_factor));
  // Both outcomes must be common, or the mutator is not reaching the parser.
  EXPECT_GT(decoded, mutants / 20);
  EXPECT_GT(refused, mutants / 4);
}

}  // namespace
}  // namespace nextgov::sim
