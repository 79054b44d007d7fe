// Content-addressed chunk store: grid chunking, the agent-side payload
// cache (LRU + CRC-verified lookups), and the server-side id directory
// that mirrors it.
#include "common/chunk.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace cwc {
namespace {

std::vector<std::uint8_t> pattern_blob(std::size_t bytes, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> blob(bytes);
  std::uint8_t v = seed;
  for (auto& b : blob) b = v = static_cast<std::uint8_t>(v * 31 + 7);
  return blob;
}

TEST(ChunkId, EmbedsSizeAndGuardsContent) {
  const auto blob = pattern_blob(1000);
  const ChunkId id = make_chunk_id(blob);
  EXPECT_EQ(chunk_size_of(id), 1000u);
  EXPECT_TRUE(chunk_matches(id, blob));
  auto tampered = blob;
  tampered[500] ^= 0x01;
  EXPECT_FALSE(chunk_matches(id, tampered));
}

TEST(ChunkId, GoldenValue) {
  // Agents keep cached chunks across runs and advertise their ids on
  // register; a change in the id of the same bytes would turn every cached
  // chunk into a miss.
  EXPECT_EQ(make_chunk_id(pattern_blob(64 * 1024)), 0xB958575E00010000ull);
}

TEST(ChunkBlob, GridCoversBlobExactlyOnce) {
  const auto blob = pattern_blob(10 * 1024 + 37);  // last chunk short
  const auto chunks = chunk_blob(blob, 4 * 1024);
  ASSERT_EQ(chunks.size(), 3u);
  std::size_t total = 0;
  std::uint64_t expect_offset = 0;
  for (const ChunkRef& ref : chunks) {
    EXPECT_EQ(ref.offset, expect_offset);
    const std::size_t size = chunk_size_of(ref.id);
    EXPECT_TRUE(chunk_matches(
        ref.id, std::span<const std::uint8_t>(blob.data() + ref.offset, size)));
    expect_offset += size;
    total += size;
  }
  EXPECT_EQ(total, blob.size());
}

TEST(ChunkBlob, IdenticalContentSharesIds) {
  const auto blob = pattern_blob(8 * 1024);
  const auto a = chunk_blob(blob, 2 * 1024);
  const auto b = chunk_blob(blob, 2 * 1024);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(ChunksCovering, ReturnsOverlappingGridChunks) {
  const auto blob = pattern_blob(16 * 1024);
  // [5k, 9k) overlaps grid chunks 1 and 2 on a 4k grid.
  const auto covering = chunks_covering(blob, 4 * 1024, 5 * 1024, 9 * 1024);
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[0].offset, 4u * 1024);
  EXPECT_EQ(covering[1].offset, 8u * 1024);
  const auto grid = chunk_blob(blob, 4 * 1024);
  EXPECT_EQ(covering[0].id, grid[1].id);
  EXPECT_EQ(covering[1].id, grid[2].id);
  EXPECT_TRUE(chunks_covering(blob, 4 * 1024, 2048, 2048).empty());
}

TEST(ChunkCache, EvictsLeastRecentlyUsed) {
  ChunkCache cache(3 * 1024);
  const auto a = pattern_blob(1024, 1);
  const auto b = pattern_blob(1024, 2);
  const auto c = pattern_blob(1024, 3);
  const auto d = pattern_blob(1024, 4);
  const ChunkId ia = make_chunk_id(a), ib = make_chunk_id(b);
  const ChunkId ic = make_chunk_id(c), id = make_chunk_id(d);
  cache.insert(ia, a);
  cache.insert(ib, b);
  cache.insert(ic, c);
  ASSERT_NE(cache.find(ia), nullptr);  // refresh a: b is now oldest
  EXPECT_EQ(cache.insert(id, d), 1024u);
  EXPECT_FALSE(cache.contains(ib));
  EXPECT_TRUE(cache.contains(ia));
  EXPECT_TRUE(cache.contains(ic));
  EXPECT_TRUE(cache.contains(id));
  EXPECT_EQ(cache.bytes(), 3u * 1024);
}

TEST(ChunkCache, FindIsCrcVerified) {
  ChunkCache cache(64 * 1024);
  const auto payload = pattern_blob(2048);
  const ChunkId id = make_chunk_id(payload);
  cache.insert(id, payload);
  ASSERT_NE(cache.find(id), nullptr);
  ASSERT_TRUE(cache.corrupt_for_test(id));
  // The corrupted entry reads as absent and is evicted on the failed find.
  EXPECT_EQ(cache.find(id), nullptr);
  EXPECT_FALSE(cache.contains(id));
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ChunkCache, OversizedPayloadIsNotStored) {
  ChunkCache cache(1024);
  const auto big = pattern_blob(4096);
  cache.insert(make_chunk_id(big), big);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ChunkCache, ManifestReplaysIntoDirectoryIdentically) {
  ChunkCache cache(8 * 1024);
  for (std::uint8_t k = 0; k < 5; ++k) {
    const auto payload = pattern_blob(1024, static_cast<std::uint8_t>(k + 1));
    cache.insert(make_chunk_id(payload), payload);
  }
  ChunkDirectory dir(8 * 1024);
  const auto manifest = cache.ids_oldest_first();
  dir.seed(manifest);
  EXPECT_EQ(dir.ids_oldest_first(), manifest);
  EXPECT_EQ(dir.bytes(), cache.bytes());
}

TEST(ChunkDirectory, LruMatchesCachePolicy) {
  // Same insert/touch sequence -> same survivors on both sides, the
  // property that keeps the server's mirror honest without round-trips.
  ChunkCache cache(3 * 1024);
  ChunkDirectory dir(3 * 1024);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint8_t k = 0; k < 6; ++k) {
    payloads.push_back(pattern_blob(1024, static_cast<std::uint8_t>(k + 1)));
  }
  const auto step = [&](std::size_t k) {
    const ChunkId id = make_chunk_id(payloads[k]);
    if (dir.contains(id)) {
      dir.touch(id);
      (void)cache.find(id);
    } else {
      dir.insert(id);
      cache.insert(id, payloads[k]);
    }
  };
  for (std::size_t k : {0u, 1u, 2u, 0u, 3u, 4u, 2u, 5u}) step(k);
  EXPECT_EQ(dir.ids_oldest_first(), cache.ids_oldest_first());
}

TEST(ChunkDirectory, SeedDropsOverBudgetOldestFirst) {
  ChunkDirectory dir(2 * 1024);
  std::vector<ChunkId> ids;
  for (std::uint8_t k = 0; k < 4; ++k) {
    ids.push_back(make_chunk_id(pattern_blob(1024, static_cast<std::uint8_t>(k + 1))));
  }
  dir.seed(ids);
  EXPECT_EQ(dir.size(), 2u);
  EXPECT_FALSE(dir.contains(ids[0]));
  EXPECT_FALSE(dir.contains(ids[1]));
  EXPECT_TRUE(dir.contains(ids[2]));
  EXPECT_TRUE(dir.contains(ids[3]));
}

}  // namespace
}  // namespace cwc
