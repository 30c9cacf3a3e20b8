// Tests for the versioned snapshot container (common/serialize.hpp):
// primitive round trips, pinned little-endian byte layout, the CRC32
// known-answer and its agreement with a bytewise reference, and - the
// point of the layer - that every damage mode (bad magic, future version,
// truncation, bit flips, missing sections, trailing garbage) is a
// descriptive SerializeError, never UB or a silent partial load.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "temp_path.hpp"

namespace nextgov {
namespace {

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0x7f);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f32(3.25f);
  w.f64(-0.1);
  w.boolean(true);
  w.boolean(false);
  w.str("nextgov");
  ByteReader r{w.data(), "test"};
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "nextgov");
  EXPECT_TRUE(r.done());
}

TEST(ByteCodec, NonFiniteAndDenormalDoublesAreBitExact) {
  const double values[] = {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           -0.0};
  ByteWriter w;
  for (const double v : values) w.f64(v);
  ByteReader r{w.data(), "test"};
  for (const double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(ByteCodec, LayoutIsLittleEndianAndPinned) {
  // The wire format is part of the persistence contract: these exact bytes
  // must never change without a version bump.
  ByteWriter w;
  w.u32(0x11223344u);
  w.u64(0x0102030405060708ULL);
  const std::vector<std::uint8_t> expected = {0x44, 0x33, 0x22, 0x11, 0x08, 0x07,
                                              0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.data(), expected);
}

TEST(ByteCodec, TruncatedReadThrowsWithContext) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.data(), "agent state"};
  try {
    (void)r.u64();  // only 4 bytes available
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("agent state"), std::string::npos) << e.what();
  }
}

TEST(ByteCodec, StringLengthBeyondPayloadThrows) {
  ByteWriter w;
  w.u32(1000);  // claims a 1000-byte string, provides none
  ByteReader r{w.data(), "test"};
  EXPECT_THROW((void)r.str(), SerializeError);
}

TEST(Crc32, KnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3 / zlib / PNG).
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32({p, s.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32({p, std::size_t{0}}), 0x00000000u);
}

/// One byte through the CRC-32 register, straight from the reflected
/// polynomial: no table, so it checks the library's tables rather than
/// sharing them.
std::uint32_t reference_crc_step(std::uint32_t reg, std::uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) reg = (reg & 1u) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  return reg;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Every length 0..4096 at every start offset 0..7, so each alignment and
  // each tail length of the eight-byte stride is covered. The reference
  // register advances one byte per length step.
  std::mt19937_64 rng{20200309};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<std::uint8_t> buf(offset + 4096);
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= 4096; ++len) {
      if (len > 0) reg = reference_crc_step(reg, buf[offset + len - 1]);
      const std::uint32_t got = crc32({buf.data() + offset, len});
      if (got != (reg ^ 0xFFFFFFFFu)) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
        return;
      }
    }
  }
}

TEST(Crc32, SectionCrcIsVersionSeededReference) {
  // A v3 section CRC is the CRC-32 of the little-endian version word
  // followed by the payload. A container built by hand with the reference
  // CRC must equal SnapshotWriter's bytes and pass SnapshotReader; one flipped
  // CRC bit must fail it. Name lengths 1..8 move the payload across every
  // alignment inside the container.
  std::mt19937_64 rng{1};
  for (std::size_t name_len = 1; name_len <= 8; ++name_len) {
    for (const std::size_t len : {0, 1, 7, 8, 9, 63, 64, 65, 1000, 4096}) {
      SCOPED_TRACE("name length " + std::to_string(name_len) + ", payload " +
                   std::to_string(len));
      const std::string name(name_len, 's');
      std::vector<std::uint8_t> payload(len);
      for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng());
      std::uint32_t reg = 0xFFFFFFFFu;
      for (int i = 0; i < 4; ++i) {
        reg = reference_crc_step(reg, static_cast<std::uint8_t>(kSnapshotVersion >> (8 * i)));
      }
      for (const std::uint8_t b : payload) reg = reference_crc_step(reg, b);
      ByteWriter want;
      want.u32(kSnapshotMagic);
      want.u32(kSnapshotVersion);
      want.u32(1);
      want.str(name);
      want.u64(len);
      want.u32(reg ^ 0xFFFFFFFFu);
      want.bytes(payload);

      SnapshotWriter writer;
      writer.section(name).bytes(payload);
      EXPECT_EQ(writer.bytes(), want.data());
      const SnapshotReader snap{want.data(), "test"};
      EXPECT_EQ(snap.section(name).remaining(), len);

      std::vector<std::uint8_t> bad = want.data();
      bad[12 + 4 + name_len + 8] ^= 0x01;  // lowest bit of the stored CRC
      EXPECT_THROW((void)SnapshotReader(std::move(bad), "test"), SerializeError);
    }
  }
}

std::vector<std::uint8_t> two_section_snapshot() {
  SnapshotWriter w;
  ByteWriter& a = w.section("alpha");
  a.u64(123);
  a.str("payload");
  ByteWriter& b = w.section("beta");
  b.f64(2.5);
  return w.bytes();
}

/// Synthesizes a genuine old-version container from a current one: rewrites
/// the version field and re-stamps every section CRC with the plain payload
/// checksum pre-v3 writers used (from v3 on the section CRC is seeded with
/// the version word, so merely poking the version byte would - by design -
/// fail every CRC).
std::vector<std::uint8_t> as_version(std::vector<std::uint8_t> bytes, std::uint32_t version) {
  bytes[4] = static_cast<std::uint8_t>(version);
  bytes[5] = static_cast<std::uint8_t>(version >> 8);
  bytes[6] = static_cast<std::uint8_t>(version >> 16);
  bytes[7] = static_cast<std::uint8_t>(version >> 24);
  ByteReader in{bytes, "rewrite"};
  in.skip(8);  // magic + version
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)in.str();
    const std::uint64_t size = in.u64();
    const std::size_t crc_pos = in.pos();
    (void)in.u32();
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>{bytes.data() + in.pos(), size});
    bytes[crc_pos] = static_cast<std::uint8_t>(crc);
    bytes[crc_pos + 1] = static_cast<std::uint8_t>(crc >> 8);
    bytes[crc_pos + 2] = static_cast<std::uint8_t>(crc >> 16);
    bytes[crc_pos + 3] = static_cast<std::uint8_t>(crc >> 24);
    in.skip(static_cast<std::size_t>(size));
  }
  return bytes;
}

TEST(SnapshotContainer, RoundTripsSections) {
  const SnapshotReader snap{two_section_snapshot(), "test"};
  EXPECT_EQ(snap.version(), kSnapshotVersion);
  EXPECT_TRUE(snap.has("alpha"));
  EXPECT_TRUE(snap.has("beta"));
  EXPECT_FALSE(snap.has("gamma"));
  ByteReader a = snap.section("alpha");
  EXPECT_EQ(a.u64(), 123u);
  EXPECT_EQ(a.str(), "payload");
  EXPECT_TRUE(a.done());
  ByteReader b = snap.section("beta");
  EXPECT_EQ(b.f64(), 2.5);
}

TEST(SnapshotContainer, MissingSectionThrows) {
  const SnapshotReader snap{two_section_snapshot(), "test"};
  EXPECT_THROW((void)snap.section("gamma"), SerializeError);
}

TEST(SnapshotContainer, BadMagicThrows) {
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[0] ^= 0xff;
  try {
    const SnapshotReader snap{std::move(bytes), "test"};
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, FutureVersionIsRefused) {
  // Refuse-forward: a snapshot written by a newer release must be rejected,
  // not misparsed. The version is the u32 after the magic.
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  try {
    const SnapshotReader snap{std::move(bytes), "test"};
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, PreviousVersionsAreStillReadable) {
  // Back-compat window: version-1 (pre fleet-server) and version-2 (pre
  // delta-upload) snapshots must keep decoding after the version-3 bump.
  // The framing is identical across the window; only the section-CRC
  // seeding differs, which as_version() reproduces.
  for (std::uint32_t v = kSnapshotVersionMin; v < kSnapshotVersion; ++v) {
    SCOPED_TRACE(v);
    const SnapshotReader snap{as_version(two_section_snapshot(), v), "test"};
    EXPECT_EQ(snap.version(), v);
    ByteReader a = snap.section("alpha");
    EXPECT_EQ(a.u64(), 123u);
    EXPECT_EQ(a.str(), "payload");
  }
}

TEST(SnapshotContainer, InWindowVersionFlipTripsTheSeededCrc) {
  // The version word itself is outside any checksum, so from v3 on it seeds
  // every section CRC: corrupting a v3 container's version down to a still-
  // accepted v2 must fail the CRC check instead of silently decoding under
  // the wrong version's rules.
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion - 1);
  EXPECT_THROW((void)SnapshotReader(std::move(bytes), "test"), SerializeError);
}

TEST(SnapshotContainer, VersionBelowTheWindowIsRefused) {
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersionMin - 1);
  try {
    const SnapshotReader snap{std::move(bytes), "test"};
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, EveryTruncationIsDetected) {
  const std::vector<std::uint8_t> good = two_section_snapshot();
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<std::uint8_t> cut(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)SnapshotReader(std::move(cut), "test"), SerializeError)
        << "truncation to " << len << " of " << good.size() << " bytes not detected";
  }
}

TEST(SnapshotContainer, EverySingleByteFlipIsDetected) {
  // CRC32 detects all single-byte payload corruptions; header/framing
  // damage trips the magic/version/length checks instead. Either way no
  // flipped byte may yield a readable snapshot whose sections differ, and
  // the only exception a damaged container may raise is SerializeError.
  // The high-bit masks turn the section count into billions, which must be
  // refused before it sizes an allocation.
  const std::vector<std::uint8_t> good = two_section_snapshot();
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= mask;
      bool detected = false;
      try {
        const SnapshotReader snap{std::move(bad), "test"};
        // A flip inside a section *name* can survive framing + CRC (the CRC
        // covers the payload); the snapshot is then valid but must expose
        // the altered name, not the original.
        detected = !snap.has("alpha") || !snap.has("beta");
      } catch (const SerializeError&) {
        detected = true;
      }
      EXPECT_TRUE(detected) << "flip 0x" << std::hex << int{mask} << " at byte " << std::dec
                            << i << " went unnoticed";
    }
  }
  // A bare 12-byte header claiming 0xFFFFFFFF sections: nothing follows to
  // hold them, so it is damage, not an allocation request.
  ByteWriter hostile;
  hostile.u32(kSnapshotMagic);
  hostile.u32(kSnapshotVersion);
  hostile.u32(0xFFFFFFFFu);
  EXPECT_THROW((void)SnapshotReader(hostile.data(), "hostile"), SerializeError);
}

TEST(SnapshotContainer, TrailingGarbageThrows) {
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes.push_back(0xee);
  EXPECT_THROW((void)SnapshotReader(std::move(bytes), "test"), SerializeError);
}

TEST(SnapshotContainer, FileRoundTripIsAtomic) {
  const std::string path = test::unique_temp_path("serialize_test_snapshot.bin");
  SnapshotWriter w;
  w.section("data").u64(99);
  w.write_file(path);
  const SnapshotReader snap = SnapshotReader::from_file(path);
  ByteReader r = snap.section("data");
  EXPECT_EQ(r.u64(), 99u);
  EXPECT_THROW((void)SnapshotReader::from_file(path + ".does-not-exist"), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nextgov
