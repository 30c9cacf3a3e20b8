#include "common/serialize.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace nextgov {

namespace {

/// CRC-32 lookup table for the reflected IEEE polynomial 0xEDB88320,
/// generated once at static-init time (256 * 8 shifts, negligible).
std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  return table;
}

std::uint32_t crc32_accumulate(std::uint32_t crc,
                               std::span<const std::uint8_t> data) noexcept {
  const auto& table = crc_table();
  for (const std::uint8_t byte : data) crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc;
}

/// Section checksum for a container of the given format version. From v3 on
/// the CRC is seeded with the version word itself, so the (otherwise
/// unprotected) version field cannot be flipped to another in-window value
/// without every section check failing: a v3 file misread as v2 verifies
/// with the plain payload CRC and mismatches, and vice versa. v1/v2 files
/// keep their original plain-payload checksum, which is what preserves
/// read-back compatibility.
std::uint32_t section_crc(std::uint32_t version, std::span<const std::uint8_t> payload) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  if (version >= 3) {
    const std::array<std::uint8_t, 4> seed{
        static_cast<std::uint8_t>(version), static_cast<std::uint8_t>(version >> 8),
        static_cast<std::uint8_t>(version >> 16), static_cast<std::uint8_t>(version >> 24)};
    crc = crc32_accumulate(crc, seed);
  }
  return crc32_accumulate(crc, payload) ^ 0xFFFFFFFFu;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_accumulate(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

// --- ByteReader -------------------------------------------------------------

void ByteReader::fail(const std::string& what) const {
  throw SerializeError(context_ + ": " + what);
}

void ByteReader::need(std::size_t n) {
  if (remaining() < n) {
    fail("truncated (wanted " + std::to_string(n) + " more bytes, " +
         std::to_string(remaining()) + " left)");
  }
}

void ByteReader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

std::size_t ByteReader::bounded_count(std::uint64_t count, std::size_t item_bytes,
                                      std::string_view what) const {
  if (count > remaining() / item_bytes) {
    fail(std::string(what) + " " + std::to_string(count) + " exceeds what the remaining " +
         std::to_string(remaining()) + " bytes can hold");
  }
  return static_cast<std::size_t>(count);
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint32_t>(data_[pos_]) | static_cast<std::uint32_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                          static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                          static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                          static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | hi << 32;
}

float ByteReader::f32() { return std::bit_cast<float>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("corrupt boolean value " + std::to_string(v));
  return v == 1;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

// --- SnapshotWriter ---------------------------------------------------------

ByteWriter& SnapshotWriter::section(std::string name) {
  for (const Section& s : sections_) {
    require(s.name != name, "snapshot section name used twice");
  }
  sections_.push_back(Section{std::move(name), ByteWriter{}});
  return sections_.back().payload;
}

std::vector<std::uint8_t> SnapshotWriter::bytes() const {
  ByteWriter out;
  out.u32(kSnapshotMagic);
  out.u32(kSnapshotVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    out.str(s.name);
    out.u64(s.payload.size());
    out.u32(section_crc(kSnapshotVersion, s.payload.data()));
    out.bytes(s.payload.data());
  }
  return out.data();
}

void SnapshotWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> blob = bytes();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw IoError("cannot open snapshot for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) throw IoError("failed writing snapshot: " + tmp);
  }
  // POSIX rename atomically replaces `path`: a reader sees either the old
  // complete snapshot or the new complete snapshot, never a torn write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot move snapshot into place: " + path);
  }
}

// --- SnapshotReader ---------------------------------------------------------

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes, std::string label)
    : bytes_{std::move(bytes)}, label_{std::move(label)} {
  ByteReader in{bytes_, label_};
  const std::uint32_t magic = in.u32();
  if (magic != kSnapshotMagic) in.fail("not a nextgov snapshot (bad magic)");
  version_ = in.u32();
  if (version_ > kSnapshotVersion) {
    throw SerializeError(label_ + ": snapshot format version " + std::to_string(version_) +
                             " is newer than this build supports (" +
                             std::to_string(kSnapshotVersion) + "); refusing to guess",
                         SerializeError::Kind::kVersionWindow);
  }
  if (version_ < kSnapshotVersionMin) {
    throw SerializeError(label_ + ": snapshot format version " + std::to_string(version_) +
                             " is older than the supported window [" +
                             std::to_string(kSnapshotVersionMin) + ", " +
                             std::to_string(kSnapshotVersion) + "]",
                         SerializeError::Kind::kVersionWindow);
  }
  // Every section header takes at least 16 bytes (name length, payload
  // length, CRC).
  const std::size_t count = in.bounded_count(in.u32(), 16, "section count");
  sections_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Section s;
    s.name = in.str();
    const std::uint64_t size = in.u64();
    const std::uint32_t expected_crc = in.u32();
    if (in.remaining() < size) {
      in.fail("section '" + s.name + "' truncated (header claims " + std::to_string(size) +
              " bytes, " + std::to_string(in.remaining()) + " left)");
    }
    s.offset = in.pos();
    s.size = static_cast<std::size_t>(size);
    const std::span<const std::uint8_t> payload{bytes_.data() + s.offset, s.size};
    const std::uint32_t actual_crc = section_crc(version_, payload);
    if (actual_crc != expected_crc) {
      in.fail("section '" + s.name + "' failed its CRC32 check (stored " +
              std::to_string(expected_crc) + ", computed " + std::to_string(actual_crc) +
              ") - snapshot is corrupt");
    }
    in.skip(s.size);  // validated payload; next section header follows
    sections_.push_back(std::move(s));
  }
  if (!in.done()) in.fail("trailing garbage after the last section");
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) throw IoError("cannot open snapshot: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw IoError("failed reading snapshot: " + path);
  return SnapshotReader{std::move(bytes), path};
}

bool SnapshotReader::has(std::string_view name) const noexcept {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

ByteReader SnapshotReader::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return ByteReader{std::span<const std::uint8_t>{bytes_.data() + s.offset, s.size},
                        label_ + " section '" + s.name + "'"};
    }
  }
  throw SerializeError(label_ + ": missing required section '" + std::string(name) + "'");
}

}  // namespace nextgov
