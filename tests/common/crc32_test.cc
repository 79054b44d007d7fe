// CRC-32 (IEEE/zlib): known answers, equality with a bitwise reference at
// every tail length and unaligned start, and seed chaining across splits.
// Chunk ids and journal record headers embed this CRC, so any change in its
// output would orphan every agent cache and journal written before it.
#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace cwc {
namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// One bit at a time, straight from the polynomial: shares no table with
/// the implementation under test.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const auto buffer = random_bytes(64 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::uint8_t> data(buffer.data() + offset, length);
      ASSERT_EQ(crc32(data), crc32_bitwise(data)) << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32(data, 0x12345678u), crc32_bitwise(data, 0x12345678u))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, ChainedOverRandomSplitsEqualsSinglePass) {
  const auto buffer = random_bytes(1 << 20, 11);
  const std::uint32_t whole = crc32(buffer);
  EXPECT_EQ(whole, crc32_bitwise(buffer));
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::uint32_t chained = 0;
    std::size_t pos = 0;
    while (pos < buffer.size()) {
      // Mix tiny pieces (all below one 8-byte slice) with large ones.
      const std::int64_t cap = rng.chance(0.5) ? 9 : 70000;
      const auto len = std::min<std::size_t>(static_cast<std::size_t>(rng.uniform_int(0, cap)),
                                             buffer.size() - pos);
      chained = crc32(std::span<const std::uint8_t>(buffer.data() + pos, len), chained);
      pos += len;
    }
    ASSERT_EQ(chained, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cwc
