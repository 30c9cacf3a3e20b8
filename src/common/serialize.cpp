#include "common/serialize.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace nextgov {

namespace {

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial 0xEDB88320.
/// Row 0 is the bytewise table; row k advances a byte through k more zero
/// bytes, so one step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian u32 at `p`, on any host (compilers fold this to one load
/// where the host is little-endian).
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t crc32_accumulate(std::uint32_t crc,
                               std::span<const std::uint8_t> data) noexcept {
  const CrcTables& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

/// Section checksum for a container of the given format version: the CRC
/// is seeded with the version word itself, so the (otherwise unprotected)
/// version field cannot be flipped to another in-window value without every
/// section check failing - a v4 file misread as v3 fails its CRCs, and vice
/// versa.
std::uint32_t section_crc(std::uint32_t version, std::span<const std::uint8_t> payload) noexcept {
  const std::array<std::uint8_t, 4> seed{
      static_cast<std::uint8_t>(version), static_cast<std::uint8_t>(version >> 8),
      static_cast<std::uint8_t>(version >> 16), static_cast<std::uint8_t>(version >> 24)};
  return crc32_accumulate(crc32_accumulate(0xFFFFFFFFu, seed), payload) ^ 0xFFFFFFFFu;
}

}  // namespace

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::f32s(std::span<const float> values) {
  store_f32s(append(values.size_bytes()).data(), values);
}

std::span<std::uint8_t> ByteWriter::append(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return {buf_.data() + at, n};
}

void ByteWriter::reserve(std::size_t n) {
  if (buf_.capacity() - buf_.size() < n) buf_.reserve(buf_.size() + n);
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

namespace {

constexpr std::size_t kContainerHeaderBytes = 12;  // magic, version, section count

void put_container_header(ByteWriter& out, std::size_t sections) {
  out.u32(kSnapshotMagic);
  out.u32(kSnapshotVersion);
  out.u32(static_cast<std::uint32_t>(sections));
}

/// Name, payload length and CRC: everything of a section but its payload.
void put_section_header(ByteWriter& out, const std::string& name,
                        std::span<const std::uint8_t> payload) {
  out.str(name);
  out.u64(payload.size());
  out.u32(section_crc(kSnapshotVersion, payload));
}

std::size_t section_header_bytes(const std::string& name) { return 4 + name.size() + 8 + 4; }

void write_all(std::ofstream& out, std::span<const std::uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

ByteWriter& SnapshotWriter::section(std::string name) {
  for (const Section& s : sections_) {
    require(s.name != name, "snapshot section name used twice");
  }
  sections_.push_back(Section{std::move(name), ByteWriter{}});
  return sections_.back().payload;
}

std::vector<std::uint8_t> SnapshotWriter::bytes() const {
  std::size_t total = kContainerHeaderBytes;
  for (const Section& s : sections_) total += section_header_bytes(s.name) + s.payload.size();
  ByteWriter out;
  out.reserve(total);
  put_container_header(out, sections_.size());
  for (const Section& s : sections_) {
    put_section_header(out, s.name, s.payload.data());
    out.bytes(s.payload.data());
  }
  return out.take();
}

void SnapshotWriter::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw IoError("cannot open snapshot for writing: " + tmp);
    ByteWriter header;
    put_container_header(header, sections_.size());
    write_all(out, header.data());
    for (const Section& s : sections_) {
      ByteWriter section_header;
      put_section_header(section_header, s.name, s.payload.data());
      write_all(out, section_header.data());
      write_all(out, s.payload.data());
    }
    out.close();
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
