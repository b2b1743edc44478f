// Unit + parameterized property tests: set-associative cache model.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "mem/cache.hpp"

namespace dwarn {
namespace {

CacheConfig small_cfg() {
  return CacheConfig{.name = "t", .size_bytes = 4096, .assoc = 2, .line_bytes = 64,
                     .banks = 4};
}

TEST(Cache, FirstAccessMissesThenHits) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  EXPECT_FALSE(c.access(0x1000, false, 1).hit);
  EXPECT_TRUE(c.access(0x1000, false, 10).hit);
  EXPECT_TRUE(c.access(0x1038, false, 20).hit);  // same 64B line
}

TEST(Cache, SeparateLinesAreSeparate) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x1000, false, 1);
  EXPECT_FALSE(c.access(0x1040, false, 2).hit);  // next line
}

TEST(Cache, LruEvictsOldestWay) {
  StatSet stats;
  Cache c(small_cfg(), stats);  // 4KB/64B/2-way -> 32 sets; set stride 2KB
  const Addr a = 0x0, b = 0x800, d = 0x1000;  // all map to set 0
  c.access(a, false, 1);
  c.access(b, false, 2);
  c.access(a, false, 3);        // refresh a; b is now LRU
  c.access(d, false, 4);        // evicts b
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyVictimReportsWriteback) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, true, 1);    // dirty
  c.access(0x800, false, 2);
  const auto r = c.access(0x1000, false, 3);  // evicts dirty 0x0
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0x0u);
}

TEST(Cache, CleanVictimNoWriteback) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 1);
  c.access(0x800, false, 2);
  const auto r = c.access(0x1000, false, 3);
  EXPECT_TRUE(r.evicted);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 1);
  c.access(0x0, true, 2);  // dirty via write hit
  c.access(0x800, false, 3);
  const auto r = c.access(0x1000, false, 4);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, BankConflictAddsDelay) {
  StatSet stats;
  Cache c(small_cfg(), stats);  // 4 banks: lines 0 and 4 share bank 0
  c.access(0x0, false, 5);
  const auto r = c.access(0x100, false, 5);  // line 4 -> bank 0, same cycle
  EXPECT_GT(r.bank_delay, 0u);
  EXPECT_EQ(stats.value("t.bank_conflicts"), 1u);
}

TEST(Cache, DifferentBanksNoConflict) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 5);
  const auto r = c.access(0x40, false, 5);  // line 1 -> bank 1
  EXPECT_EQ(r.bank_delay, 0u);
}

TEST(Cache, InvalidateRemovesLine) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x2000, false, 1);
  ASSERT_TRUE(c.probe(0x2000));
  c.invalidate(0x2000);
  EXPECT_FALSE(c.probe(0x2000));
}

TEST(Cache, CountersTrackAccessesAndMisses) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 1);
  c.access(0x0, false, 2);
  c.access(0x40, false, 3);
  EXPECT_EQ(stats.value("t.accesses"), 3u);
  EXPECT_EQ(stats.value("t.misses"), 2u);
}

// ---- Parameterized geometry sweep -----------------------------------------

struct Geometry {
  std::uint64_t size;
  std::uint32_t assoc;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHitsAfterWarmup) {
  const auto [size, assoc] = GetParam();
  StatSet stats;
  Cache c(CacheConfig{.name = "g", .size_bytes = size, .assoc = assoc,
                      .line_bytes = 64, .banks = 1},
          stats);
  // Touch exactly half the capacity twice: second pass must fully hit.
  const std::uint64_t lines = size / 64 / 2;
  Cycle now = 0;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false, ++now);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.access(i * 64, false, ++now).hit) << "line " << i;
  }
}

TEST_P(CacheGeometry, StreamBeyondCapacityAlwaysMisses) {
  const auto [size, assoc] = GetParam();
  StatSet stats;
  Cache c(CacheConfig{.name = "g", .size_bytes = size, .assoc = assoc,
                      .line_bytes = 64, .banks = 1},
          stats);
  const std::uint64_t lines = 4 * size / 64;  // 4x capacity, cyclic twice
  Cycle now = 0;
  std::uint64_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < lines; ++i) {
      hits += c.access(i * 64, false, ++now).hit ? 1 : 0;
    }
  }
  EXPECT_EQ(hits, 0u);  // LRU + reuse distance beyond capacity: all miss
}

TEST_P(CacheGeometry, OccupancyReachesFullUnderStream) {
  const auto [size, assoc] = GetParam();
  StatSet stats;
  Cache c(CacheConfig{.name = "g", .size_bytes = size, .assoc = assoc,
                      .line_bytes = 64, .banks = 1},
          stats);
  Cycle now = 0;
  for (std::uint64_t i = 0; i < 2 * size / 64; ++i) c.access(i * 64, false, ++now);
  EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(Geometry{4096, 1}, Geometry{4096, 2},
                                           Geometry{8192, 4}, Geometry{65536, 2},
                                           Geometry{524288, 2}, Geometry{16384, 8}));

}  // namespace
}  // namespace dwarn
