#include "common/label_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/binary_io.h"

namespace hc2l {
namespace {

constexpr uint32_t kSentinel = UINT32_MAX;

TEST(LabelArena, AllocationIsCacheAlignedAndSentinelFilled) {
  LabelArena arena;
  arena.Reset(33);  // rounds up to 48 entries (3 cache lines)
  EXPECT_EQ(arena.size(), 48u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.data()) % 64, 0u);
  for (size_t i = 0; i < arena.size(); ++i) {
    ASSERT_EQ(arena.data()[i], kSentinel);
  }
}

TEST(LabelArena, EmptyResetHasNoStorage) {
  LabelArena arena;
  arena.Reset(0);
  EXPECT_EQ(arena.size(), 0u);
}

TEST(LabelStore, ArraysArePackedBackToBack) {
  // Three vertices with level arrays of awkward lengths (including empty).
  std::vector<std::vector<uint32_t>> data = {
      {1, 2, 3, 4, 5},     // v0: arrays [1,2,3] and [4,5]
      {},                  // v1: one empty array
      {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23},
  };
  std::vector<std::vector<uint32_t>> lens = {{3, 2}, {0}, {17}};
  LabelStore store;
  store.BuildFrom(&data, &lens);

  ASSERT_EQ(store.base.size(), 4u);
  EXPECT_EQ(store.base[0], 0u);
  EXPECT_EQ(store.base[1], 2u);
  EXPECT_EQ(store.base[2], 3u);
  EXPECT_EQ(store.base[3], 4u);
  ASSERT_EQ(store.level_start.size(), 4u);
  ASSERT_EQ(store.level_len.size(), 4u);
  EXPECT_EQ(store.level_len[0], 3u);
  EXPECT_EQ(store.level_len[1], 2u);
  EXPECT_EQ(store.level_len[2], 0u);
  EXPECT_EQ(store.level_len[3], 17u);
  // Each array starts exactly where the previous one ends.
  EXPECT_EQ(store.level_start[0], 0u);
  for (size_t i = 0; i + 1 < store.level_start.size(); ++i) {
    EXPECT_EQ(store.level_start[i + 1],
              store.level_start[i] + store.level_len[i])
        << "array " << i;
  }

  // The 22 entries fill the arena from its start with no gaps; only the
  // arena's total is rounded up to whole cache lines (22 -> 32 entries),
  // and that tail keeps its sentinel fill.
  const uint32_t* arena = store.arena.data();
  const std::vector<uint32_t> packed = {1,  2,  3,  4,  5,  7,  8,  9,
                                        10, 11, 12, 13, 14, 15, 16, 17,
                                        18, 19, 20, 21, 22, 23};
  ASSERT_EQ(store.arena.size(), 32u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena) % LabelArena::kAlignBytes, 0u);
  for (size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(arena[i], packed[i]) << "entry " << i;
  }
  for (size_t i = packed.size(); i < store.arena.size(); ++i) {
    EXPECT_EQ(arena[i], kSentinel) << "entry " << i;
  }

  // Accumulators were consumed.
  EXPECT_TRUE(data[0].empty());
  EXPECT_TRUE(lens[2].empty());
}

TEST(LabelStore, ValidateAcceptsBuiltStoresAndRejectsCorruptTables) {
  const auto make_store = [] {
    std::vector<std::vector<uint32_t>> data = {{1, 2, 3, 4, 5}, {}, {7, 8}};
    std::vector<std::vector<uint32_t>> lens = {{3, 2}, {0}, {2}};
    LabelStore store;
    store.BuildFrom(&data, &lens);
    return store;
  };
  const LabelStore built = make_store();
  EXPECT_TRUE(io::ValidateLabelShape(built, built.arena.size()));
  // The packed arrays hold 7 entries: an arena of exactly 7 suffices, one
  // entry fewer is an overrun by one entry.
  EXPECT_TRUE(io::ValidateLabelShape(built, 7));
  EXPECT_FALSE(io::ValidateLabelShape(built, 6));

  {
    LabelStore s = make_store();  // array pushed past the arena
    s.level_len.Set(s.level_len.size() - 1,
                    static_cast<uint32_t>(s.arena.size()));
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // last array one entry past the arena
    const size_t last = s.level_len.size() - 1;
    s.level_len.Set(last, static_cast<uint32_t>(s.arena.size() -
                                                s.level_start[last] + 1));
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // overlapping arrays: [2, 4) and [0, 3)
    s.level_start.Set(1, s.level_start[0] + s.level_len[0] - 1);
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // base not a partition of the array list
    s.base.Set(s.base.size() - 1, s.base.back() + 3);
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    LabelStore s = make_store();  // decreasing base
    s.base.Set(1, s.base[2] + 1);
    EXPECT_FALSE(io::ValidateLabelShape(s, s.arena.size()));
  }
  {
    // Arrays padded to whole cache lines, as older builds laid them out:
    // in order and disjoint, so still accepted.
    LabelStore s;
    s.arena.Reset(3 * LabelArena::kAlignEntries);
    for (const uint32_t v : {0u, 2u, 3u, 4u}) s.base.push_back(v);
    for (const uint32_t v : {0u, 16u, 32u, 32u}) s.level_start.push_back(v);
    for (const uint32_t v : {3u, 2u, 0u, 16u}) s.level_len.push_back(v);
    EXPECT_TRUE(io::ValidateLabelShape(s, s.arena.size()));
  }
}

TEST(LabelStore, ResidentBytesCountArenaAndTables) {
  std::vector<std::vector<uint32_t>> data = {{1, 2}};
  std::vector<std::vector<uint32_t>> lens = {{2}};
  LabelStore store;
  store.BuildFrom(&data, &lens);
  // One 2-entry array: the arena rounds up to one cache line; tables:
  // 1 start + 1 len + 2 base entries.
  EXPECT_EQ(store.arena.SizeBytes(), 64u);
  EXPECT_EQ(store.MetadataBytes(), 4 * sizeof(uint32_t));
  EXPECT_EQ(store.ResidentBytes(), 64u + 4 * sizeof(uint32_t));
}

}  // namespace
}  // namespace hc2l
