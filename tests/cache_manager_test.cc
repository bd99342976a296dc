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
  EXPECT_LE(cm.resident_bytes(), cm.options().memory_budget_bytes);
  cm.Insert(2, 200);
  ASSERT_GT(cm.resident_bytes(), cm.options().memory_budget_bytes);
  // The excess is what a store's eviction step asks the pick to cover.
  EXPECT_EQ(cm.PickVictims(cm.resident_bytes() -
                           cm.options().memory_budget_bytes),
            (std::vector<mapping::PageId>{1}));
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
  ASSERT_GT(cm.resident_bytes(), cm.options().memory_budget_bytes);
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
  // Idle 10 s since the touch, not 54 s since the insert.
  EXPECT_EQ(cm.PickDemotionCandidates(1, 10.0),
            (std::vector<mapping::PageId>{1}));
  EXPECT_TRUE(cm.PickDemotionCandidates(1, 10.5).empty());
  EXPECT_TRUE(cm.PickVictims(0).empty());
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

// Inserts pids [0, n), each one second after the last: pid order is LRU
// order, coldest first.
void InsertAscending(CacheManager* cm, VirtualClock* clock, uint64_t n,
                     uint64_t bytes = 100) {
  for (mapping::PageId p = 0; p < n; ++p) {
    cm->Insert(p, bytes);
    clock->AdvanceSeconds(1.0);
  }
}

TEST(CacheManagerTest, TierPicksAreExactLruWhenTheTierFitsOneSample) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  // Ten pages, touched out of insertion order: recency order is
  // 2, 5, 7, 9, 0, 1, 3, 4, 6, 8 (coldest first).
  InsertAscending(&cm, &clock, 10);
  for (mapping::PageId p : {0, 1, 3, 4, 6, 8}) {
    cm.Touch(p);
    clock.AdvanceSeconds(1.0);
  }
  // Four pages need a sample of 32 entries: the whole cache.
  ASSERT_GE(CacheManager::kSampleFactor * 4, 10u);
  using Pids = std::vector<mapping::PageId>;
  EXPECT_EQ(cm.PickVictims(~0ull, 4), (Pids{2, 5, 7, 9}));
  // The idle floor, at t = 16 s: 5.5 s admits pages last touched by
  // t = 10 s, and the pick stops at the first younger one.
  EXPECT_EQ(cm.PickDemotionCandidates(4, 3.0), (Pids{2, 5, 7, 9}));
  EXPECT_EQ(cm.PickDemotionCandidates(10, 5.5), (Pids{2, 5, 7, 9, 0}));
  EXPECT_EQ(cm.PickDemotionCandidates(2, 0.0), (Pids{2, 5}));

  // Six pages leave DRAM; the other four are picked in the same order.
  for (mapping::PageId p : {9, 2, 4, 0, 8, 6}) cm.Erase(p);
  EXPECT_EQ(cm.PickVictims(~0ull, 4), (Pids{5, 7, 1, 3}));
  EXPECT_EQ(cm.PickDemotionCandidates(4, 0.0), (Pids{5, 7, 1, 3}));
}

TEST(CacheManagerTest, UnboundedPickOrdersTheWholeTier) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  InsertAscending(&cm, &clock, 3000);
  // 3000 pages are far more than any sample a small pick takes; the
  // unbounded overload still returns exact LRU order.
  const std::vector<mapping::PageId> victims = cm.PickVictims(100 * 500);
  ASSERT_EQ(victims.size(), 500u);
  for (size_t i = 0; i < victims.size(); ++i) EXPECT_EQ(victims[i], i);
}

TEST(CacheManagerTest, SuccessiveBoundedPicksSeeEveryPage) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  constexpr uint64_t kPages = 600;
  constexpr size_t kPick = 2;
  constexpr size_t kSample = CacheManager::kSampleFactor * kPick;
  constexpr size_t kRound = (kPages + kSample - 1) / kSample;
  InsertAscending(&cm, &clock, kPages);
  // One page at a time is the only one idle past the floor, so a pick
  // returns it exactly when its sample contained it. Each round starts
  // where the last one left the hand; a round's last sample may wrap
  // onto the pages its first one saw.
  for (mapping::PageId target = 0; target < kPages; ++target) {
    clock.AdvanceSeconds(10.0);
    for (mapping::PageId p = 0; p < kPages; ++p) {
      if (p != target) cm.Touch(p);
    }
    size_t found = 0;
    for (size_t call = 0; call < kRound; ++call) {
      for (mapping::PageId p : cm.PickDemotionCandidates(kPick, 5.0)) {
        EXPECT_EQ(p, target);
        ++found;
      }
    }
    ASSERT_GE(found, 1u) << "page " << target << " missed by " << kRound
                         << " picks of " << kSample;
    ASSERT_LE(found, 2u);
  }
}

TEST(CacheManagerTest, EachBoundedPickReturnsTheColdestItSaw) {
  VirtualClock clock;
  CacheManager cm(WithClock(&clock, EvictionPolicy::kLru));
  constexpr uint64_t kPages = 2000;
  constexpr size_t kPick = 4;
  constexpr size_t kSample = CacheManager::kSampleFactor * kPick;
  constexpr size_t kRound = (kPages + kSample - 1) / kSample;
  InsertAscending(&cm, &clock, kPages);
  // Three cold pages; every other page is touched later, one second
  // apart, so recency is a strict order. last_touch[p] is that order.
  const std::vector<mapping::PageId> cold = {17, 999, 1500};
  std::vector<uint64_t> last_touch(kPages);
  for (mapping::PageId p = 0; p < kPages; ++p) {
    last_touch[p] = p;
    if (std::find(cold.begin(), cold.end(), p) != cold.end()) continue;
    cm.Touch(p);
    last_touch[p] = kPages + p;
    clock.AdvanceSeconds(1.0);
  }
  std::vector<mapping::PageId> seen;
  for (size_t call = 0; call < kRound; ++call) {
    const std::vector<mapping::PageId> picked = cm.PickVictims(~0ull, kPick);
    ASSERT_EQ(picked.size(), kPick);
    // Coldest first, and a cold page the sample held comes before any
    // page touched since.
    for (size_t i = 1; i < picked.size(); ++i) {
      EXPECT_LT(last_touch[picked[i - 1]], last_touch[picked[i]]);
    }
    seen.insert(seen.end(), picked.begin(), picked.end());
  }
  // One round's samples cover every page, and a cold page is among the
  // coldest kPick of whichever sample held it.
  for (mapping::PageId p : cold) {
    EXPECT_GE(std::count(seen.begin(), seen.end(), p), 1) << p;
  }
}

TEST(CacheManagerTest, PolicyNames) {
  EXPECT_EQ(EvictionPolicyName(EvictionPolicy::kLru), "lru");
  EXPECT_EQ(EvictionPolicyName(EvictionPolicy::kCostBased), "cost-based");
}

}  // namespace
}  // namespace costperf::llama
