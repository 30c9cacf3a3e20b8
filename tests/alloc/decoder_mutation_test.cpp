// Seeded mutation tests of the decoders below the ring entry: a Q-table
// payload (QTable::deserialize), a Q-table delta applied to its base
// (QTableDelta::deserialize + apply_delta), the upload wire (decode_upload
// on a real full upload blob and a real delta upload blob), and the
// "sync_state" section of a ring entry.
//
// Every source is real: the upload, its warm base and its ring delta come
// from a churning fleet server's ring entry. Each mutant (mutation.hpp) must
// either decode into a value that round-trips - encode it again, decode
// that, and get the same value - or be refused with SerializeError, and
// decoding it may allocate at most a fixed multiple of its size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "mutation.hpp"
#include "rl/qtable_delta.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_server.hpp"
#include "temp_path.hpp"

namespace nextgov::sim {
namespace {

/// A decode may allocate this multiple of its input, plus kFloorBytes. A
/// decoded table costs about its serialized size (rows are stored as they
/// are sent) and its index 4 B per slot at most 3/4 full; applying a delta
/// copies the base, then grows the copy's rows. Unmutated sources decode at
/// their size plus one index.
constexpr std::uint64_t kAllocationFactor = 4;
/// What a one-row table costs whatever its size: its index's first 4096
/// slots (16 KB), once for the decoded table and once for a delta base's
/// copy.
constexpr std::uint64_t kFloorBytes = 2 * 16 * 1024;
/// Round length of the source fleet for the table and upload tests: its
/// aggregate holds about 400 states (24 KB), more than one index.
constexpr double kRoundSeconds = 60.0;

/// A churning server's ring entry and, from it, the global aggregate and a
/// standing upload stored as a ring delta together with the warm base it
/// was made against.
struct Sources {
  FleetServerOptions options;
  std::optional<SnapshotReader> entry;
  rl::QTable aggregate{1};
  rl::QTable upload{1};
  rl::QTable base{1};
  rl::QTableDelta delta;
};

/// The sources after five rounds of `round_s` simulated seconds: longer
/// rounds visit more states, so the tables outgrow their fixed index cost.
Sources real_sources(double round_s) {
  Sources out;
  out.options = test::fuzz_server(test::unique_temp_path("nextgov_fuzz_source"));
  out.options.round_duration = SimTime::from_seconds(round_s);
  out.options.round_deadline = SimTime::from_seconds(2 * round_s);
  const std::string& prefix = out.options.snapshot_prefix;
  {
    FleetServer server{workload::AppId::kFacebook, out.options, {.workers = 1}};
    server.run_rounds(5);
  }
  out.entry = SnapshotReader::from_file(prefix + ".0");
  const FleetSnapshot snap = read_fleet_state_sections(*out.entry);
  if (snap.last_aggregate.has_value()) out.aggregate = *snap.last_aggregate;
  for (const auto& upload : snap.uploads) {
    const auto* ring = upload.has_value() ? std::get_if<RingDelta>(&upload->held) : nullptr;
    if (ring == nullptr) continue;
    const WarmBase* base = find_warm_base(snap.warm_bases, ring->base_round);
    if (base == nullptr) continue;
    out.upload = rl::apply_delta(base->table, ring->delta);
    out.base = base->table;
    out.delta = ring->delta;
    return out;
  }
  ADD_FAILURE() << "retune: no delta-stored upload in the ring entry";
  return out;
}

/// A one-section container around `payload`, as the upload wire sends it.
std::vector<std::uint8_t> container(const char* section, const std::vector<std::uint8_t>& payload) {
  SnapshotWriter out;
  out.section(section).bytes(payload);
  return out.bytes();
}

std::vector<std::uint8_t> bytes_of(const rl::QTable& t) {
  ByteWriter w;
  t.serialize(w);
  return w.take();
}

TEST(DecoderMutation, QTablePayloadRoundTripsOrIsRefused) {
  const Sources src = real_sources(kRoundSeconds);
  ASSERT_GT(src.aggregate.state_count(), 100u);
  const std::vector<std::uint8_t> original = bytes_of(src.aggregate);
  std::mt19937_64 rng{20200310};
  const int mutants = test::mutant_budget();
  test::MutationTally tally{kAllocationFactor, kFloorBytes};
  for (int i = 0; i < mutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<std::uint8_t> bytes = original;
    test::mutate(bytes, rng);
    std::optional<rl::QTable> decoded;
    if (!tally.run(bytes.size(), [&] {
          ByteReader in{bytes, "mutant"};
          decoded = rl::QTable::deserialize(in);
        })) {
      continue;
    }
    const std::vector<std::uint8_t> again = bytes_of(*decoded);
    ByteReader in{again, "re-encoded"};
    EXPECT_TRUE(rl::QTable::deserialize(in) == *decoded);
    EXPECT_TRUE(in.done());
  }
  tally.expect_both_outcomes_common(mutants);
}

TEST(DecoderMutation, QTableDeltaAppliesAndRoundTripsOrIsRefused) {
  const Sources src = real_sources(kRoundSeconds);
  ASSERT_FALSE(src.delta.changes.empty());
  ByteWriter w;
  src.delta.serialize(w);
  const std::vector<std::uint8_t> original = w.take();
  // Applying copies the base, so the base counts as input too.
  const std::uint64_t base_bytes = src.base.serialized_size();
  std::mt19937_64 rng{20200311};
  const int mutants = test::mutant_budget();
  test::MutationTally tally{kAllocationFactor, kFloorBytes};
  for (int i = 0; i < mutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<std::uint8_t> bytes = original;
    test::mutate(bytes, rng);
    std::optional<rl::QTable> applied;
    if (!tally.run(bytes.size() + base_bytes, [&] {
          ByteReader in{bytes, "mutant"};
          applied = rl::apply_delta(src.base, rl::QTableDelta::deserialize(in));
        })) {
      continue;
    }
    // An applied delta only adds to its base, so it encodes as a delta
    // again, and that delta rebuilds the same table.
    const std::optional<rl::QTableDelta> again = rl::try_make_delta(src.base, *applied);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(rl::apply_delta(src.base, *again) == *applied);
  }
  tally.expect_both_outcomes_common(mutants);
}

/// Mutates the one section of a real upload blob and decodes it with
/// decode_upload against `base` (nullptr for a full upload).
void fuzz_upload_blob(const std::vector<std::uint8_t>& blob, const char* section,
                      const rl::QTable* base, std::uint64_t seed) {
  const std::vector<std::uint8_t> original = test::payload(SnapshotReader{blob, "blob"}, section);
  std::mt19937_64 rng{seed};
  const int mutants = test::mutant_budget();
  test::MutationTally tally{kAllocationFactor, kFloorBytes};
  for (int i = 0; i < mutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<std::uint8_t> bytes = original;
    test::mutate(bytes, rng);
    std::vector<std::uint8_t> mutant = container(section, bytes);
    const std::uint64_t input = mutant.size() + (base != nullptr ? base->serialized_size() : 0);
    std::optional<rl::QTable> decoded;
    if (!tally.run(input, [&] { decoded = decode_upload(std::move(mutant), base, "mutant"); })) {
      continue;
    }
    EXPECT_TRUE(decode_upload(encode_upload(*decoded, base), base, "re-encoded") == *decoded);
    // An accepted payload is exactly one encoding, with nothing after it.
    ByteReader in{bytes, "accepted"};
    if (base == nullptr) {
      (void)rl::QTable::deserialize(in);
    } else {
      (void)rl::QTableDelta::deserialize(in);
    }
    EXPECT_TRUE(in.done()) << in.remaining() << " trailing bytes accepted";
  }
  tally.expect_both_outcomes_common(mutants);
}

TEST(DecoderMutation, FullUploadBlobDecodesOrIsRefused) {
  const Sources src = real_sources(kRoundSeconds);
  const std::vector<std::uint8_t> blob = encode_upload(src.upload, nullptr);
  ASSERT_TRUE(SnapshotReader(blob, "upload").has("upload"));
  fuzz_upload_blob(blob, "upload", nullptr, 20200312);
}

TEST(DecoderMutation, DeltaUploadBlobDecodesOrIsRefused) {
  const Sources src = real_sources(kRoundSeconds);
  const std::vector<std::uint8_t> blob = encode_upload(src.upload, &src.base);
  ASSERT_TRUE(SnapshotReader(blob, "delta").has("delta"));
  fuzz_upload_blob(blob, "delta", &src.base, 20200313);
}

TEST(DecoderMutation, SyncStateSectionRestoresOrIsRefused) {
  const Sources src = real_sources(4.0);
  const char* const sections[] = {"fleet_server_options", "fleet_state", "server_state",
                                  "sync_state"};
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const char* name : sections) payloads.push_back(test::payload(*src.entry, name));

  // Short rounds, so each restored mutant serves its round quickly; the
  // restarted server takes the source's options (its identity blob).
  FleetServerOptions options = src.options;
  options.snapshot_prefix = test::unique_temp_path("nextgov_fuzz_sync");
  const std::string& prefix = options.snapshot_prefix;
  std::mt19937_64 rng{20200314};
  const int mutants = test::mutant_budget();
  // The decode reads the whole entry, as the ring mutation test's does; the
  // worst of 20,000 mutants allocated 4.7x its size.
  test::MutationTally tally{8, 0};
  for (int i = 0; i < mutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<std::uint8_t> sync = payloads[3];
    test::mutate(sync, rng);
    SnapshotWriter out;
    for (std::size_t s = 0; s < 3; ++s) out.section(sections[s]).bytes(payloads[s]);
    out.section(sections[3]).bytes(sync);
    std::optional<FleetSnapshot> decoded;
    const bool ok = tally.run(out.bytes().size(), [&] {
      decoded = read_fleet_state_sections(SnapshotReader{out.bytes(), "mutant"});
    });
    if (ok) {
      SnapshotWriter again;
      again.section(sections[0]).bytes(payloads[0]);
      write_fleet_state_sections(again, *decoded);
      const FleetSnapshot back = read_fleet_state_sections(SnapshotReader{again.bytes(), "again"});
      EXPECT_EQ(back.sync.upload_bytes_full, decoded->sync.upload_bytes_full);
      EXPECT_EQ(back.sync.upload_bytes_delta, decoded->sync.upload_bytes_delta);
      EXPECT_EQ(back.sync.uploads_full, decoded->sync.uploads_full);
      EXPECT_EQ(back.sync.uploads_delta, decoded->sync.uploads_delta);
    }
    // A decodable entry restores and serves a round; anything else is
    // quarantined and the server starts cold.
    test::write_file(prefix + ".0", out.bytes());
    try {
      FleetServer restarted{workload::AppId::kFacebook, options, {.workers = 1}};
      EXPECT_EQ(restarted.restored(), ok);
      if (restarted.restored()) {
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
