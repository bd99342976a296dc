#include "llama/cache_manager.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace costperf::llama {
namespace {

CacheOptions WithClock(VirtualClock* clock, EvictionPolicy policy,
                       uint64_t budget = 1 << 20) {
  CacheOptions o;
  o.clock = clock;
  o.policy = policy;
  o.memory_budget_bytes = budget;
  o.breakeven_interval_seconds = 45.0;
  return o;
}

TEST(CacheManagerTest, InsertTracksBytes) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  cm.Insert(1, 100);
  cm.Insert(2, 200);
  EXPECT_EQ(cm.resident_bytes(), 300u);
  EXPECT_TRUE(cm.Contains(1));
  EXPECT_FALSE(cm.Contains(3));
}

TEST(CacheManagerTest, EraseReleasesBytes) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  cm.Insert(1, 100);
  cm.Erase(1);
  EXPECT_EQ(cm.resident_bytes(), 0u);
  EXPECT_FALSE(cm.Contains(1));
  cm.Erase(1);  // idempotent
}

TEST(CacheManagerTest, ResizeAdjustsAccounting) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  cm.Insert(1, 100);
  cm.Resize(1, 350);
  EXPECT_EQ(cm.resident_bytes(), 350u);
  cm.Resize(1, 50);
  EXPECT_EQ(cm.resident_bytes(), 50u);
}

TEST(CacheManagerTest, OverBudgetDetection) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru, /*budget=*/250));
  cm.Insert(1, 100);
  EXPECT_FALSE(cm.OverBudget());
  cm.Insert(2, 200);
  EXPECT_TRUE(cm.OverBudget());
}

TEST(CacheManagerTest, LruEvictsLeastRecentlyTouched) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  cm.Insert(1, 100);
  clock.AdvanceNanos(10);
  cm.Insert(2, 100);
  clock.AdvanceNanos(10);
  cm.Insert(3, 100);
  clock.AdvanceNanos(10);
  cm.Touch(1);  // 2 becomes LRU
  auto victims = cm.PickVictims(100);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);
}

TEST(CacheManagerTest, LruPicksEnoughBytes) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  for (mapping::PageId p = 0; p < 10; ++p) {
    cm.Insert(p, 100);
    clock.AdvanceNanos(1);
  }
  auto victims = cm.PickVictims(450);
  EXPECT_EQ(victims.size(), 5u);  // 5 x 100 >= 450
  // In LRU order: oldest first.
  EXPECT_EQ(victims[0], 0u);
  EXPECT_EQ(victims[4], 4u);
}

TEST(CacheManagerTest, CostBasedEvictsOnlyPastBreakeven) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kCostBased));
  cm.Insert(1, 100);
  clock.AdvanceSeconds(50.0);  // page 1 idle 50s > 45s breakeven
  cm.Insert(2, 100);
  clock.AdvanceSeconds(10.0);  // page 2 idle 10s < breakeven
  auto victims = cm.PickVictims(0);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 1u);
}

TEST(CacheManagerTest, CostBasedNoVictimsWhenAllHot) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kCostBased));
  cm.Insert(1, 100);
  cm.Insert(2, 100);
  clock.AdvanceSeconds(1.0);
  EXPECT_TRUE(cm.PickVictims(0).empty());
}

TEST(CacheManagerTest, CostBasedHonorsHardBudget) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kCostBased, 150));
  cm.Insert(1, 100);
  clock.AdvanceSeconds(1.0);
  cm.Insert(2, 100);  // over budget, but nobody past breakeven
  ASSERT_TRUE(cm.OverBudget());
  auto victims = cm.PickVictims(50);
  ASSERT_FALSE(victims.empty());
  EXPECT_EQ(victims[0], 1u) << "falls back to LRU order";
}

TEST(CacheManagerTest, CostBasedMixesBreakevenAndBudgetVictims) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kCostBased));
  cm.Insert(1, 100);
  clock.AdvanceSeconds(60);
  cm.Insert(2, 100);
  clock.AdvanceSeconds(1);
  cm.Insert(3, 100);
  // Want 250 bytes: page 1 (past breakeven) + pages 2,3 via LRU fallback.
  auto victims = cm.PickVictims(250);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 2u);
  EXPECT_EQ(victims[2], 3u);
}

TEST(CacheManagerTest, TouchRefreshesIdleTime) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kCostBased));
  cm.Insert(1, 100);
  clock.AdvanceSeconds(44.0);
  cm.Touch(1);
  clock.AdvanceSeconds(10.0);
  EXPECT_NEAR(cm.IdleSeconds(1), 10.0, 1e-6);
  EXPECT_TRUE(cm.PickVictims(0).empty());
}

TEST(CacheManagerTest, IdleSecondsUnknownPage) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  EXPECT_LT(cm.IdleSeconds(42), 0.0);
}

TEST(CacheManagerTest, StatsAccumulate) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  cm.Insert(1, 10);
  cm.Insert(2, 10);
  cm.Touch(1);
  cm.Erase(2);
  auto s = cm.stats();
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.touches, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_pages, 1u);
  EXPECT_EQ(s.resident_bytes, 10u);
}

TEST(CacheManagerTest, ReinsertActsAsResizeTouch) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  cm.Insert(1, 100);
  clock.AdvanceNanos(5);
  cm.Insert(2, 100);
  clock.AdvanceNanos(5);
  cm.Insert(1, 300);  // re-insert: resize + move to MRU
  EXPECT_EQ(cm.resident_bytes(), 400u);
  auto victims = cm.PickVictims(100);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);
}

TEST(CacheManagerTest, PolicyNames) {
  EXPECT_EQ(EvictionPolicyName(EvictionPolicy::kLru), "lru");
  EXPECT_EQ(EvictionPolicyName(EvictionPolicy::kCostBased), "cost-based");
}

}  // namespace
}  // namespace costperf::llama
