// crc32.hpp - bytewise CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant),
// the reference the snapshot container's slicing-by-8 section CRC is held to.
//
// Straight from the reflected polynomial, with no table, so it checks the
// library's tables rather than sharing them: crc32 of "123456789" is
// 0xCBF43926.
#pragma once

#include <cstdint>
#include <span>

namespace nextgov::test {

/// One byte through the CRC-32 register.
inline std::uint32_t crc32_step(std::uint32_t reg, std::uint8_t byte) noexcept {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) reg = (reg & 1u) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  return reg;
}

inline std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t reg = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) reg = crc32_step(reg, b);
  return reg ^ 0xFFFFFFFFu;
}

}  // namespace nextgov::test
