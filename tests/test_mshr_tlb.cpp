// Unit tests: MSHR file and per-context DTLB.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "mem/mshr.hpp"
#include "mem/tlb.hpp"

namespace dwarn {
namespace {

TEST(Mshr, AllocateAndLookup) {
  MshrFile m(4);
  EXPECT_FALSE(m.lookup(0x1000).has_value());
  EXPECT_TRUE(m.allocate(0x1000, 110));
  ASSERT_TRUE(m.lookup(0x1000).has_value());
  EXPECT_EQ(*m.lookup(0x1000), 110u);
  EXPECT_EQ(m.in_flight(), 1u);
}

TEST(Mshr, ExpireRemovesCompleted) {
  MshrFile m(4);
  m.allocate(0x1000, 50);
  m.allocate(0x2000, 100);
  m.expire(60);
  EXPECT_FALSE(m.lookup(0x1000).has_value());
  EXPECT_TRUE(m.lookup(0x2000).has_value());
}

TEST(Mshr, FullFileRefusesAllocation) {
  MshrFile m(2);
  EXPECT_TRUE(m.allocate(0x0, 10));
  EXPECT_TRUE(m.allocate(0x40, 10));
  EXPECT_FALSE(m.allocate(0x80, 10));
  m.expire(11);
  EXPECT_TRUE(m.allocate(0x80, 20));
}

TEST(Mshr, MergeCountsSecondaryMisses) {
  MshrFile m(2);
  m.allocate(0x1000, 100);
  m.merge(0x1000);
  m.merge(0x1000);
  EXPECT_EQ(m.in_flight(), 1u);  // merges do not allocate
}

TEST(Tlb, MissThenHitOnSamePage) {
  StatSet stats;
  Tlb t(TlbConfig{.name = "t", .entries = 8, .assoc = 2, .page_bytes = 8192}, stats);
  EXPECT_FALSE(t.access(0x0));
  EXPECT_TRUE(t.access(0x1000));  // same 8KB page
  EXPECT_FALSE(t.access(0x2000));  // next page
  EXPECT_EQ(stats.value("t.misses"), 2u);
}

TEST(Tlb, LruReplacementWithinSet) {
  StatSet stats;
  // 4 sets x 2 ways; pages p, p+4, p+8 map to the same set.
  Tlb t(TlbConfig{.name = "t", .entries = 8, .assoc = 2, .page_bytes = 8192}, stats);
  const Addr page = 8192;
  t.access(0 * 4 * page);
  t.access(1 * 4 * page);
  t.access(0 * 4 * page);      // refresh
  t.access(2 * 4 * page);      // evicts 1*4*page
  EXPECT_TRUE(t.probe(0));
  EXPECT_FALSE(t.probe(1 * 4 * page));
  EXPECT_TRUE(t.probe(2 * 4 * page));
}

}  // namespace
}  // namespace dwarn
