// Seeded mutation test of the fleet server's ring-entry decoder.
//
// This test mutates the "fleet_state" and "server_state" payloads of a
// churning version-4 ring entry (warm bases, delta-stored uploads, pending
// uploads) and re-stamps every section CRC, so the decoder itself meets the
// damage (mutator and allocation check: mutation.hpp). Each mutant must
// either decode into a state the server restores and runs a round from, or
// be refused with SerializeError, which the server answers by quarantining
// the slot; and decoding it may allocate at most a fixed multiple of its
// size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "mutation.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

using test::fuzz_server;
using test::payload;

/// Peak bytes a decode may allocate, as a multiple of the entry's size. A
/// decoded entry holds what the entry stores - the aggregate, the warm
/// bases, a small delta per upload - plus the entry's bytes and an index
/// per table, which starts at 16 KB: the worst of 20,000 mutants decoded
/// at 3.9x its size.
constexpr std::uint64_t kAllocationFactor = 8;

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
                          [](const auto& u) {
                            return u.has_value() && std::holds_alternative<RingDelta>(u->held);
                          }));

  const std::vector<std::uint8_t> options_bytes = payload(entry, "fleet_server_options");
  const std::vector<std::uint8_t> sections[] = {payload(entry, "fleet_state"),
                                                payload(entry, "server_state")};
  const std::vector<std::uint8_t> sync = payload(entry, "sync_state");

  const std::string prefix = test::unique_temp_path("nextgov_fuzz_ring");
  const FleetServerOptions options = fuzz_server(prefix);
  std::mt19937_64 rng{20200309};
  const int mutants = test::mutant_budget();
  test::MutationTally tally{kAllocationFactor, 0};
  for (int i = 0; i < mutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<std::uint8_t> state = sections[0];
    std::vector<std::uint8_t> server = sections[1];
    test::mutate(i % 2 == 0 ? state : server, rng);
    SnapshotWriter out;
    out.section("fleet_server_options").bytes(options_bytes);
    out.section("fleet_state").bytes(state);
    out.section("server_state").bytes(server);
    out.section("sync_state").bytes(sync);
    std::vector<std::uint8_t> bytes = out.bytes();
    const std::uint64_t input = bytes.size();

    // The decode alone, under the allocation bound.
    const bool ok = tally.run(input, [&] {
      (void)read_fleet_state_sections(SnapshotReader{std::move(bytes), "mutant"});
    });

    // Through the server: a decodable mutant that fits the server restores
    // and serves a round; anything else is quarantined and the server
    // starts cold. Nothing escapes the constructor or the round.
    test::write_file(prefix + ".0", out.bytes());
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
  tally.expect_both_outcomes_common(mutants);
}

}  // namespace
}  // namespace nextgov::sim
