// CRC-32 (IEEE 802.3 polynomial, the zlib variant). It names content and
// guards durable state: every chunk id embeds the CRC of its payload (the
// server hashes each submitted input on its chunk grid, and the agent
// re-hashes every cached chunk it serves), and every journal record carries
// one so a torn write is distinguishable from a valid short record during
// crash recovery.
//
// Slicing-by-16: sixteen bytes per step through sixteen 256-entry tables
// (16 KiB), then one eight-byte step; only a tail of fewer than 8 bytes
// takes the byte-at-a-time loop. On a 4-vCPU Xeon VM this runs at ~2 GB/s,
// against ~1.4 GB/s for slicing-by-8 and ~0.27 GB/s byte at a time
// (BM_Crc32). Words are assembled byte by byte in little-endian order, so
// the result does not depend on host endianness or alignment. Header-only;
// the tables are built at compile time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace cwc {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

/// tables[0] is the classic byte table; tables[k][i] is the CRC of byte i
/// followed by k zero bytes, which lets one step fold up to 16 bytes.
inline constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace detail

/// CRC-32 of `data`, optionally chained via `seed` (pass a previous
/// result to continue over split buffers).
inline std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // clang-format off
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t a = detail::load_le32(p) ^ crc;
    const std::uint32_t b = detail::load_le32(p + 4);
    const std::uint32_t c = detail::load_le32(p + 8);
    const std::uint32_t d = detail::load_le32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
          t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^ t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^ t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  if (n >= 8) {
    const std::uint32_t a = detail::load_le32(p) ^ crc;
    const std::uint32_t b = detail::load_le32(p + 4);
    crc = t[7][a & 0xFFu] ^ t[6][(a >> 8) & 0xFFu] ^ t[5][(a >> 16) & 0xFFu] ^ t[4][a >> 24] ^
          t[3][b & 0xFFu] ^ t[2][(b >> 8) & 0xFFu] ^ t[1][(b >> 16) & 0xFFu] ^ t[0][b >> 24];
    p += 8;
    n -= 8;
  }
  // clang-format on
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

}  // namespace cwc
