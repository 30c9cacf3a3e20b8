// serialize.hpp - versioned, endian-stable binary snapshot format.
//
// Everything the repo persists (Q-tables and the fleet server's snapshot
// ring) goes through this one layer so corruption handling, version
// policy and byte order are decided exactly once:
//
//   * ByteWriter/ByteReader encode fixed-width little-endian primitives
//     (floats via their IEEE-754 bit patterns), so snapshot bytes are
//     identical across hosts and a snapshot written on one machine restores
//     bit-identically on another;
//   * SnapshotWriter/SnapshotReader wrap payloads in a sectioned container:
//     magic + format version + named sections, each with a length and a
//     CRC32 over its payload. The reader validates all of it up front and
//     throws SerializeError with a descriptive message on bad magic,
//     unsupported version, truncation or checksum mismatch - a damaged
//     snapshot is always a reported error, never UB or a silent partial
//     load.
//
// Write path cost. A fleet-server ring entry is megabytes of Q-table rows,
// so the writer works per field and per row, never per byte: ByteWriter
// appends each fixed-width field with one sized write and a row of floats
// with one bulk write (f32s), a table encoder grows the buffer once for all
// its rows and fills them in place (append + store_le), an encoder that
// knows its size reserves it exactly up front (reserve), crc32 is a
// slicing-by-8 table CRC (eight bytes per step, same polynomial and values
// as the bytewise form), and SnapshotWriter::write_file streams the header
// and each section straight to the file instead of assembling the container
// a second time. None of this changes a byte:
// FleetResumeGolden.RingEntryBytesArePinned holds ring entries and upload
// blobs to fixed digests.
//
// Version policy (documented in ROADMAP.md, "Snapshot format & fault
// tolerance"): writers always emit kSnapshotVersion; readers refuse
// anything newer ("refuse-forward") and read back at most one version
// (kSnapshotVersionMin), so a rolling fleet upgrade can always restore the
// previous release's checkpoints.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace nextgov {

/// Corruption, truncation or version mismatch detected while decoding a
/// snapshot. Derives from IoError so existing persistence call sites that
/// handle IoError keep working. kind() tells damaged bytes from a valid
/// container this build will not read, so callers branch on it instead of
/// on the message text.
class SerializeError : public IoError {
 public:
  enum class Kind {
    kCorrupt,        ///< bad magic, truncation, CRC mismatch, implausible field
    kVersionWindow,  ///< intact container outside [kSnapshotVersionMin, kSnapshotVersion]
  };

  explicit SerializeError(const std::string& what, Kind kind = Kind::kCorrupt)
      : IoError{what}, kind_{kind} {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant): crc32 of
/// "123456789" is 0xCBF43926. Detects all single-byte corruptions and any
/// truncation the length fields miss.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Writes `v`'s little-endian bytes at `at` and returns the byte after them:
/// the in-place form of ByteWriter's fixed-width fields, for encoders that
/// fill a region from ByteWriter::append.
template <typename T>
std::uint8_t* store_le(std::uint8_t* at, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return at + sizeof(T);
}

/// store_le of each value's IEEE-754 bit pattern in turn, in one copy on
/// little-endian hosts.
inline std::uint8_t* store_f32s(std::uint8_t* at, std::span<const float> values) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) std::memcpy(at, values.data(), values.size_bytes());
    return at + values.size_bytes();
  } else {
    for (const float v : values) at = store_le(at, std::bit_cast<std::uint32_t>(v));
    return at;
  }
}

/// Appends fixed-width little-endian primitives to a growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern, bit-exact round trip.
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  /// IEEE-754 bit pattern, bit-exact round trip.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u32) UTF-8 bytes.
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> data);
  /// The same bytes as f32() on each value in turn, in one append.
  void f32s(std::span<const float> values);

  /// Appends `n` bytes for the caller to fill in place (with store_le): an
  /// encoder that lays out many rows grows the buffer once instead of once
  /// per field. The span is invalidated by the next append of any kind.
  [[nodiscard]] std::span<std::uint8_t> append(std::size_t n);

  /// Makes room for `n` more bytes. When the buffer must grow it grows to
  /// exactly size() + n, so an encoder that knows its size up front
  /// allocates once and no more than it writes.
  void reserve(std::size_t n);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// Moves the encoded bytes out, leaving the writer empty.
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  /// Appends an unsigned integer's little-endian bytes in one sized write.
  template <typename T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    store_le(buf_.data() + at, v);
  }

  std::vector<std::uint8_t> buf_;
};

/// Decodes what ByteWriter encoded. Every read is bounds-checked: running
/// past the payload throws SerializeError naming `context` (set it to the
/// section/file being decoded so the error says *what* was truncated).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data, std::string context = "snapshot")
      : data_{data}, context_{std::move(context)} {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::string str();

  /// Skips `n` payload bytes (bounds-checked like every read).
  void skip(std::size_t n);

  /// Checks a count read from the payload against the bytes left: each of
  /// its items takes at least `item_bytes`, so a count the remaining bytes
  /// cannot hold is damage. Throws SerializeError("<context>: <what> <count>
  /// exceeds what the remaining <n> bytes can hold"), otherwise returns the
  /// count. Every count that sizes an allocation goes through here first,
  /// which keeps a decoder's allocations O(input) whatever its header says.
  [[nodiscard]] std::size_t bounded_count(std::uint64_t count, std::size_t item_bytes,
                                          std::string_view what) const;

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] const std::string& context() const noexcept { return context_; }

  /// Throws SerializeError("<context>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  std::string context_;
};

inline constexpr std::uint32_t kSnapshotMagic = 0x4e585353;  // "NXSS"
/// Version 3 (delta-upload era): fleet snapshots may carry an additional
/// `sync_state` section: four cumulative upload-wire counters (full/delta
/// upload counts and bytes) behind an always-empty placeholder list left by
/// the retired shard tier - see sim/fleet.hpp. Version 2 (fleet-server era) added the optional
/// `server_state` section (device leases, deadline clock, pending late
/// uploads). The container framing itself is unchanged across all three
/// versions: older files simply lack the newer sections and decode through
/// the same path with those fields defaulted.
inline constexpr std::uint32_t kSnapshotVersion = 3;
/// Oldest container version the reader still accepts. The nominal policy is
/// read-back-one (a rolling fleet upgrade can always restore the previous
/// release's checkpoints), but because every addition since v1 has been an
/// optional section, the window is kept at 1: refusing v1 would cost
/// compatibility without retiring any decode path.
inline constexpr std::uint32_t kSnapshotVersionMin = 1;

/// Assembles a sectioned snapshot. Sections are written in call order;
/// names must be unique and are the reader's lookup keys.
class SnapshotWriter {
 public:
  /// Starts a new named section and returns the writer for its payload.
  /// The returned reference is invalidated by the next section() call.
  ByteWriter& section(std::string name);

  /// The assembled container (magic, version, section table + payloads,
  /// per-section CRC32), in one exactly-sized buffer.
  [[nodiscard]] std::vector<std::uint8_t> bytes() const;

  /// Writes the container to `path` atomically (temp file + rename), so a
  /// crash mid-write can never leave a half-written snapshot at `path`.
  /// The header and each section go straight to the file, so the payloads
  /// are never copied into a second buffer; the bytes equal bytes().
  /// Throws IoError on filesystem failure.
  void write_file(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    ByteWriter payload;
  };
  std::vector<Section> sections_;
};

/// Parses and validates a snapshot container: magic, version window
/// [kSnapshotVersionMin, kSnapshotVersion], section framing and every
/// section's CRC32 are all checked in the constructor, so a SnapshotReader
/// that exists is known-good.
class SnapshotReader {
 public:
  /// `label` names the snapshot in error messages (usually the file path).
  SnapshotReader(std::vector<std::uint8_t> bytes, std::string label = "snapshot");

  /// Reads and validates `path`. Throws IoError if unreadable,
  /// SerializeError if damaged.
  [[nodiscard]] static SnapshotReader from_file(const std::string& path);

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] bool has(std::string_view name) const noexcept;
  /// Payload reader for a section; throws SerializeError when missing.
  [[nodiscard]] ByteReader section(std::string_view name) const;

 private:
  struct Section {
    std::string name;
    std::size_t offset{0};
    std::size_t size{0};
  };
  std::vector<std::uint8_t> bytes_;
  std::vector<Section> sections_;
  std::uint32_t version_{0};
  std::string label_;
};

}  // namespace nextgov
