#include <gtest/gtest.h>

#include <memory>

#include "core/caching_store.h"
#include "core/memory_store.h"
#include "workload/workload.h"

namespace costperf::core {
namespace {

CachingStoreOptions SmallStoreOptions(VirtualClock* clock = nullptr) {
  CachingStoreOptions o;
  o.memory_budget_bytes = 512 << 10;
  o.device.capacity_bytes = 256ull << 20;
  o.device.max_iops = 0;
  o.tree.max_page_bytes = 2048;
  o.maintenance_interval_ops = 64;
  o.clock = clock;
  return o;
}

TEST(CachingStoreTest, BasicCrud) {
  CachingStore store(SmallStoreOptions());
  ASSERT_TRUE(store.Put("k", "v").ok());
  EXPECT_EQ(*store.Get("k"), "v");
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
}

TEST(CachingStoreTest, StaysNearMemoryBudgetUnderLoad) {
  CachingStore store(SmallStoreOptions());
  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(20'000);
  workload::Workload w(spec);
  ASSERT_TRUE(w.Load(&store).ok());
  store.Maintain();
  // Resident bytes should be within ~2 maintenance intervals of budget.
  EXPECT_LT(store.cache()->resident_bytes(),
            store.options().memory_budget_bytes * 2);
  // Data remains correct despite evictions.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(store.Get(w.KeyAt(i * 97 % 20'000)).ok());
  }
  EXPECT_GT(store.tree()->stats().full_evictions, 0u);
  EXPECT_GT(store.tree()->stats().ss_ops, 0u);
}

TEST(CachingStoreTest, EvictAllForcesColdCache) {
  CachingStore store(SmallStoreOptions());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        store.Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.EvictAll().ok());
  EXPECT_EQ(store.tree()->resident_leaves(), 0u);
  EXPECT_EQ(*store.Get("key123"), "val123");
}

TEST(CachingStoreTest, CheckpointThenReadBack) {
  CachingStore store(SmallStoreOptions());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_GT(store.device()->stats().writes, 0u);
}

TEST(CachingStoreTest, GcReclaimsDeadSegments) {
  auto opts = SmallStoreOptions();
  opts.maintenance_interval_ops = 0;  // manual control
  CachingStore store(opts);
  std::string val(500, 'x');
  // Two full overwrite rounds leave the early segments mostly dead.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store.Put("k" + std::to_string(i), val).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  uint64_t occupied_before = store.device()->stats().occupied_bytes;
  ASSERT_TRUE(store.RunGc(0.5).ok());
  EXPECT_LT(store.device()->stats().occupied_bytes, occupied_before);
  for (int i = 0; i < 2000; i += 37) {
    ASSERT_TRUE(store.Get("k" + std::to_string(i)).ok()) << i;
  }
}

TEST(CachingStoreTest, FullDeviceDegradesTheStore) {
  // Segment offsets only grow, so a small device fills, and from then on
  // every append that needs a new segment fails with OutOfRange. The
  // store must count that as a write failure and degrade, not keep
  // acknowledging Puts it can no longer persist.
  CachingStoreOptions o = SmallStoreOptions();
  o.device.capacity_bytes = 4ull << 20;
  o.memory_budget_bytes = 256 << 10;
  CachingStore store(o);
  const std::string value(400, 'v');
  int failed_puts = 0;
  Status last_failure;
  for (int i = 0; i < 40'000; ++i) {
    Status s = store.Put("key" + std::to_string(i % 8000), value);
    if (!s.ok()) {
      ++failed_puts;
      last_failure = s;
    }
  }
  EXPECT_EQ(store.health(), HealthStatus::kDegraded);
  EXPECT_GT(failed_puts, 0);
  EXPECT_EQ(last_failure.code(), StatusCode::kOutOfRange)
      << last_failure.ToString();
  EXPECT_EQ(store.Stats().health, HealthStatus::kDegraded);
}

TEST(CachingStoreTest, CostBasedPolicyEvictsIdlePages) {
  VirtualClock clock(1'000'000'000);
  auto opts = SmallStoreOptions(&clock);
  opts.eviction_policy = llama::EvictionPolicy::kCostBased;
  opts.breakeven_interval_seconds = 45.0;
  opts.memory_budget_bytes = 0;  // no budget pressure: pure cost policy
  opts.maintenance_interval_ops = 0;
  CachingStore store(opts);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), std::string(100, 'v')).ok());
  }
  EXPECT_GT(store.tree()->resident_leaves(), 0u);
  clock.AdvanceSeconds(60.0);  // everything past breakeven
  store.Maintain();
  EXPECT_EQ(store.tree()->resident_leaves(), 0u)
      << "cost-based policy must evict pages idle past T_i";
}

TEST(CachingStoreTest, LruPolicyKeepsPagesWithoutPressure) {
  VirtualClock clock(1'000'000'000);
  auto opts = SmallStoreOptions(&clock);
  opts.eviction_policy = llama::EvictionPolicy::kLru;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  CachingStore store(opts);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Put("k" + std::to_string(i), std::string(100, 'v')).ok());
  }
  clock.AdvanceSeconds(60.0);
  store.Maintain();
  EXPECT_GT(store.tree()->resident_leaves(), 0u)
      << "LRU without budget pressure evicts nothing";
}

TEST(CachingStoreTest, DebugStringMentionsComponents) {
  CachingStore store(SmallStoreOptions());
  ASSERT_TRUE(store.Put("a", "b").ok());
  // DebugString() is display-only by contract; this is a spot-check of
  // the human-readable rendering, which stays supported.
  std::string s = store.DebugString();
  EXPECT_NE(s.find("bwtree:"), std::string::npos);
  EXPECT_NE(s.find("device:"), std::string::npos);
  EXPECT_NE(s.find("cache:"), std::string::npos);
}


TEST(CachingStoreTest, MaintenanceMergesUnderfullLeaves) {
  auto opts = SmallStoreOptions();
  opts.merge_fill_target = 0.5;
  opts.maintenance_interval_ops = 0;
  opts.memory_budget_bytes = 0;
  CachingStore store(opts);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Put("key" + std::to_string(100000 + i),
                          std::string(100, 'v'))
                    .ok());
  }
  size_t leaves_before = store.tree()->LeafPageIds().size();
  for (int i = 100; i < 2000; ++i) {
    ASSERT_TRUE(store.Delete("key" + std::to_string(100000 + i)).ok());
  }
  store.Maintain();
  EXPECT_GT(store.tree()->stats().leaf_merges, 0u);
  EXPECT_LT(store.tree()->LeafPageIds().size(), leaves_before);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(store.Get("key" + std::to_string(100000 + i)).ok()) << i;
  }
}

TEST(KvStoreStatsTest, ListGeneratesSumDeltaAndText) {
  // Distinct four-digit values, so no printed value is a prefix of
  // another.
  KvStoreStats a, b;
  uint64_t next = 1000;
#define COSTPERF_FILL(name, kind, line) \
  a.name = next++;                      \
  b.name = next++;
  COSTPERF_KV_STORE_STATS(COSTPERF_FILL)
#undef COSTPERF_FILL
  b.health = HealthStatus::kDegraded;

  KvStoreStats sum = a;
  sum += b;
  const KvStoreStats delta = sum - b;
#define COSTPERF_CHECK(name, kind, line)                          \
  EXPECT_EQ(sum.name, a.name + b.name) << #name;                 \
  EXPECT_EQ(delta.name,                                          \
            StatKind::kind == StatKind::kCount ? a.name : sum.name) \
      << #name;
  COSTPERF_KV_STORE_STATS(COSTPERF_CHECK)
#undef COSTPERF_CHECK

  // A sum is degraded when either side is; a delta keeps the later
  // snapshot's health.
  EXPECT_EQ(sum.health, HealthStatus::kDegraded);
  KvStoreStats reversed = b;
  reversed += a;
  EXPECT_EQ(reversed.health, HealthStatus::kDegraded);
  EXPECT_EQ(delta.health, HealthStatus::kDegraded);
  KvStoreStats healed = sum;
  healed.health = HealthStatus::kHealthy;
  EXPECT_EQ((healed - b).health, HealthStatus::kHealthy);

  const std::string text = a.ToString();
#define COSTPERF_PRINTED(name, kind, line)                          \
  EXPECT_NE(text.find(" " #name "=" + std::to_string(a.name)),     \
            std::string::npos) << #name;
  COSTPERF_KV_STORE_STATS(COSTPERF_PRINTED)
#undef COSTPERF_PRINTED
}

TEST(MemoryStoreTest, BasicCrudAndScan) {
  MemoryStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("b", "2").ok());
  ASSERT_TRUE(store.Put("c", "3").ok());
  EXPECT_EQ(*store.Get("b"), "2");
  ASSERT_TRUE(store.Delete("b").ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(store.Scan("a", 10, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, "a");
  EXPECT_EQ(out[1].first, "c");
}

TEST(MemoryStoreTest, FootprintLargerThanCachingStoreForSameData) {
  // The M_x > 1 property the paper measures (Eq. 7). Same records in
  // both stores, both fully in memory.
  MemoryStore mass;
  CachingStoreOptions copts;
  copts.memory_budget_bytes = 0;  // fully cached
  copts.device.capacity_bytes = 256ull << 20;
  copts.device.max_iops = 0;
  copts.maintenance_interval_ops = 0;
  CachingStore bw(copts);

  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(20'000);
  workload::Workload w1(spec), w2(spec);
  ASSERT_TRUE(w1.Load(&mass).ok());
  ASSERT_TRUE(w2.Load(&bw).ok());
  bw.Maintain();

  double mx = static_cast<double>(mass.MemoryFootprintBytes()) /
              static_cast<double>(bw.MemoryFootprintBytes());
  EXPECT_GT(mx, 1.0) << "MassTree must use more memory than the Bw-tree";
  EXPECT_LT(mx, 10.0) << "but not absurdly more";
}

TEST(WorkloadStoresTest, BothStoresAgreeUnderYcsbA) {
  MemoryStore mass;
  CachingStore bw(SmallStoreOptions());
  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbA(2'000);
  spec.value_size = 32;
  workload::Workload loader(spec);
  ASSERT_TRUE(loader.Load(&mass).ok());
  workload::Workload loader2(spec);
  ASSERT_TRUE(loader2.Load(&bw).ok());

  // Same op stream applied to both stores must produce identical reads.
  workload::Workload ops_a(spec, 7), ops_b(spec, 7);
  for (int i = 0; i < 5'000; ++i) {
    auto op_a = ops_a.NextOp();
    auto op_b = ops_b.NextOp();
    ASSERT_EQ(op_a.key, op_b.key);
    switch (op_a.type) {
      case workload::OpType::kRead: {
        auto ra = mass.Get(Slice(op_a.key));
        auto rb = bw.Get(Slice(op_b.key));
        ASSERT_EQ(ra.ok(), rb.ok()) << op_a.key;
        if (ra.ok()) {
          ASSERT_EQ(*ra, *rb);
        }
        break;
      }
      default:
        ASSERT_TRUE(mass.Put(Slice(op_a.key), Slice(op_a.value)).ok());
        ASSERT_TRUE(bw.Put(Slice(op_b.key), Slice(op_b.value)).ok());
        break;
    }
  }
}

}  // namespace
}  // namespace costperf::core
