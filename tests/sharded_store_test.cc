#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/caching_store.h"
#include "core/sharded_store.h"
#include "costmodel/five_minute_rule.h"

namespace costperf::core {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu", (unsigned long long)i);
  return buf;
}

TEST(ShardedStoreTest, BasicCrudRoutesByHash) {
  auto store = ShardedStore::OfMemory(4);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 500; ++i) {
    auto r = store->Get(Key(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->Delete(Key(7)).ok());
  EXPECT_TRUE(store->Get(Key(7)).status().IsNotFound());

  // Hash placement actually spreads load: every shard owns some keys.
  for (size_t s = 0; s < store->shard_count(); ++s) {
    EXPECT_GT(store->shard(s)->Stats().writes, 0u) << "shard " << s;
  }
  // Placement is stable and consistent with ShardIndexOf.
  for (int i = 0; i < 50; ++i) {
    size_t idx = store->ShardIndexOf(Key(i));
    auto r = store->shard(idx)->Get(Key(i));
    if (i != 7) {
      EXPECT_TRUE(r.ok()) << "key " << i << " not on its shard";
    }
  }
}

TEST(ShardedStoreTest, CrossShardScanIsGloballyOrdered) {
  auto store = ShardedStore::OfMemory(5);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store->Put(Key(i), std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(store->Scan(Key(10), 25, &out).ok());
  ASSERT_EQ(out.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(out[i].first, Key(10 + i));
    EXPECT_EQ(out[i].second, std::to_string(10 + i));
  }
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));

  // Scan past the end returns the remaining records only.
  ASSERT_TRUE(store->Scan(Key(295), 100, &out).ok());
  EXPECT_EQ(out.size(), 5u);

  // Zero limit is a no-op.
  ASSERT_TRUE(store->Scan(Key(0), 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ShardedStoreTest, StatsAggregateAcrossShards) {
  auto store = ShardedStore::OfMemory(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put(Key(i), "v").ok());
  }
  for (int i = 0; i < 40; ++i) (void)store->Get(Key(i));

  KvStoreStats total = store->Stats();
  EXPECT_EQ(total.writes, 100u);
  EXPECT_EQ(total.reads, 40u);
  EXPECT_GT(total.memory_bytes, 0u);

  KvStoreStats manual;
  for (size_t s = 0; s < store->shard_count(); ++s) {
    manual += store->shard(s)->Stats();
  }
  EXPECT_EQ(total.reads, manual.reads);
  EXPECT_EQ(total.writes, manual.writes);
  EXPECT_EQ(total.memory_bytes, manual.memory_bytes);
  EXPECT_EQ(total.memory_bytes, store->MemoryFootprintBytes());

  // DebugString is a display-only rendering of Stats(); a spot-check that
  // the rendering exists is all the coverage it needs — the counters
  // above are asserted structurally.
  EXPECT_NE(store->DebugString().find("sharded[3]"), std::string::npos);
}

TEST(ShardedStoreTest, BreakevensAggregateFromSummedAccumulators) {
  CachingStoreOptions opts;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.device.capacity_bytes = 64ull << 20;
  opts.device.max_iops = 0;
  auto store = ShardedStore::OfCaching(2, opts);
  // Shard 0 holds a few short records, shard 1 many long ones, so the two
  // shards demote very different page sizes.
  const int want[2] = {20, 400};
  int placed[2] = {0, 0};
  for (int i = 0; placed[0] < want[0] || placed[1] < want[1]; ++i) {
    const std::string key = Key(i);
    const size_t shard = store->ShardIndexOf(key);
    if (placed[shard] == want[shard]) continue;
    ++placed[shard];
    const std::string value(shard == 0 ? 16 : 200,
                            static_cast<char>('a' + i % 4));
    ASSERT_TRUE(store->Put(key, value).ok());
  }
  for (size_t s = 0; s < store->shard_count(); ++s) {
    auto* tree = static_cast<CachingStore*>(store->shard(s))->tree();
    for (auto pid : tree->LeafPageIds()) {
      bwtree::EvictResult res;
      ASSERT_TRUE(
          tree->EvictPage(pid, &res).ok());
      ASSERT_TRUE(res.demoted);
    }
  }
  const KvStoreStats a = store->shard(0)->Stats();
  const KvStoreStats b = store->shard(1)->Stats();
  ASSERT_GT(a.tier_demotions, 0u);
  ASSERT_GT(b.tier_demotions, 0u);
  ASSERT_NE(a.MeasuredTiSeconds(), b.MeasuredTiSeconds());

  // The aggregate is Eq. 6 / Fig. 8 at the pooled page size and ratio,
  // not either shard's value.
  costmodel::CostParams pooled = costmodel::CostParams::PaperDefaults();
  pooled.page_size_bytes =
      static_cast<double>(a.css_raw_bytes + b.css_raw_bytes) /
      static_cast<double>(a.tier_demotions + b.tier_demotions);
  costmodel::CompressionParams ratio;
  ratio.compression_ratio =
      static_cast<double>(a.css_stored_bytes + b.css_stored_bytes) /
      static_cast<double>(a.css_raw_bytes + b.css_raw_bytes);
  const KvStoreStats total = store->Stats();
  EXPECT_DOUBLE_EQ(total.MeasuredTiSeconds(),
                   costmodel::BreakevenIntervalSeconds(pooled));
  EXPECT_DOUBLE_EQ(total.MeasuredCssBreakevenOps(),
                   costmodel::CssSsBreakevenOpsPerSec(pooled, ratio));
  EXPECT_DOUBLE_EQ(total.ModeledTiSeconds(), a.ModeledTiSeconds());
}

TEST(ShardedStoreTest, MultiGetPreservesInputOrder) {
  auto store = ShardedStore::OfMemory(4);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  std::vector<std::string> keys;
  for (int i = 49; i >= 0; i -= 7) keys.push_back(Key(i));
  keys.push_back(Key(999));  // absent

  BatchReadResult result;
  ASSERT_TRUE(store->MultiGet(keys, &result).ok());
  ASSERT_EQ(result.size(), keys.size());
  size_t k = 0;
  for (int i = 49; i >= 0; i -= 7, ++k) {
    ASSERT_TRUE(result.statuses[k].ok()) << keys[k];
    EXPECT_EQ(result.values[k], "v" + std::to_string(i));
  }
  EXPECT_TRUE(result.statuses.back().IsNotFound());
  EXPECT_EQ(result.found(), keys.size() - 1);
}

TEST(ShardedStoreTest, MultiGetReusesValueBuffersAcrossBatches) {
  auto store = ShardedStore::OfMemory(4);
  ASSERT_TRUE(store->Put(Key(1), std::string(500, 'x')).ok());
  ASSERT_TRUE(store->Put(Key(2), "small").ok());

  BatchReadResult result;
  std::vector<std::string> keys = {Key(1)};
  ASSERT_TRUE(store->MultiGet(keys, &result).ok());
  const size_t cap = result.values[0].capacity();
  ASSERT_GE(cap, 500u);

  // A second batch through the same result object keeps slot 0's buffer.
  keys[0] = Key(2);
  ASSERT_TRUE(store->MultiGet(keys, &result).ok());
  EXPECT_EQ(result.values[0], "small");
  EXPECT_GE(result.values[0].capacity(), cap);
}

TEST(ShardedStoreTest, MultiGetGroupsPerShard) {
  auto store = ShardedStore::OfMemory(4);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store->Put(Key(i), "v").ok());
  }
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(Key(i));

  BatchReadResult result;
  ASSERT_TRUE(store->MultiGet(keys, &result).ok());

  // Grouping stats: one batch, 64 keys, and at most one group visit per
  // shard — the wire/batch paths are provably not per-key loops through
  // the composite.
  KvStoreStats stats = store->Stats();
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, 64u);
  EXPECT_GE(stats.multiget_shard_groups, 1u);
  EXPECT_LE(stats.multiget_shard_groups, store->shard_count());
}

TEST(ShardedStoreTest, MultiGetHonorsMaxValueBytes) {
  auto store = ShardedStore::OfMemory(2);
  ASSERT_TRUE(store->Put(Key(1), std::string(1000, 'x')).ok());
  ASSERT_TRUE(store->Put(Key(2), "ok").ok());

  std::vector<std::string> keys = {Key(1), Key(2)};
  ReadOptions opts;
  opts.max_value_bytes = 64;
  BatchReadResult result;
  Status s = store->MultiGet(keys, opts, &result);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.statuses[0].code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(result.statuses[1].ok());
  EXPECT_EQ(result.values[1], "ok");
}

TEST(ShardedStoreTest, WriteBatchAppliesEveryEntry) {
  auto store = ShardedStore::OfMemory(4);
  std::vector<KvEntry> entries;
  for (int i = 0; i < 200; ++i) entries.emplace_back(Key(i), "b" + Key(i));
  BatchWriteResult result;
  ASSERT_TRUE(store->WriteBatch(entries, &result).ok());
  EXPECT_EQ(result.ok_count, 200u);
  EXPECT_TRUE(result.all_ok());
  for (int i = 0; i < 200; ++i) {
    auto r = store->Get(Key(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "b" + Key(i));
  }
  KvStoreStats stats = store->Stats();
  EXPECT_EQ(stats.writes, 200u);
  EXPECT_EQ(stats.writebatch_batches, 1u);
  EXPECT_EQ(stats.writebatch_entries, 200u);
  EXPECT_LE(stats.writebatch_shard_groups, store->shard_count());
}

TEST(ShardedStoreTest, WriteBatchKeepsLastWriterWinsWithinShardGroups) {
  auto store = ShardedStore::OfMemory(4);
  // Same key three times in one batch: input order must survive grouping.
  std::vector<KvEntry> entries = {
      {Key(5), "first"}, {Key(9), "x"}, {Key(5), "second"}, {Key(5), "third"}};
  BatchWriteResult result;
  ASSERT_TRUE(store->WriteBatch(entries, &result).ok());
  EXPECT_EQ(result.ok_count, 4u);
  auto r = store->Get(Key(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "third");
}

namespace {
// A MemoryStore that rejects writes of the value "poison" — lets the batch
// tests exercise real per-entry failures.
class PoisonStore : public MemoryStore {
 public:
  Status Put(const Slice& key, const Slice& value) override {
    if (value == Slice("poison")) return Status::IoError("poisoned write");
    return MemoryStore::Put(key, value);
  }
};
}  // namespace

TEST(ShardedStoreTest, WriteBatchFailFastStopsInInputOrder) {
  PoisonStore store;  // default (base-class) batch implementation
  std::vector<KvEntry> entries = {
      {Key(1), "a"}, {Key(7), "poison"}, {Key(2), "never"}};
  WriteOptions opts;
  opts.fail_fast = true;
  BatchWriteResult result;
  Status s = store.WriteBatch(entries, opts, &result);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(result.statuses[0].ok());
  EXPECT_FALSE(result.statuses[1].ok());
  EXPECT_TRUE(result.statuses[2].IsAborted()) << "must not be attempted";
  EXPECT_EQ(result.ok_count, 1u);
  EXPECT_TRUE(store.Get(Key(2)).status().IsNotFound());
}

TEST(ShardedStoreTest, WriteBatchReportsPerEntryFailuresWithoutFailFast) {
  auto store = std::make_unique<ShardedStore>(4, [](size_t) {
    return std::unique_ptr<KvStore>(new PoisonStore());
  });
  std::vector<KvEntry> entries = {
      {Key(1), "a"}, {Key(7), "poison"}, {Key(2), "b"}};
  BatchWriteResult result;
  Status s = store->WriteBatch(entries, &result);
  EXPECT_FALSE(s.ok());  // FirstError surfaces the poisoned entry
  EXPECT_TRUE(result.statuses[0].ok());
  EXPECT_FALSE(result.statuses[1].ok());
  EXPECT_TRUE(result.statuses[2].ok()) << "later entries still attempted";
  EXPECT_EQ(result.ok_count, 2u);
  EXPECT_TRUE(store->Get(Key(2)).ok());
}

TEST(ShardedStoreTest, DefaultBatchOpsWorkOnUnshardedStores) {
  // The KvStore default implementations (plain loops) back the same API.
  MemoryStore store;
  std::vector<KvEntry> entries = {{Key(1), "a"}, {Key(2), "b"}};
  BatchWriteResult wr;
  ASSERT_TRUE(store.WriteBatch(entries, &wr).ok());
  EXPECT_EQ(wr.ok_count, 2u);
  std::vector<std::string> keys = {Key(2), Key(3), Key(1)};
  BatchReadResult rr;
  ASSERT_TRUE(store.MultiGet(keys, &rr).ok());
  ASSERT_EQ(rr.size(), 3u);
  EXPECT_EQ(rr.values[0], "b");
  EXPECT_TRUE(rr.statuses[1].IsNotFound());
  EXPECT_EQ(rr.values[2], "a");
}

TEST(ShardedStoreTest, BatchGetScattersAcrossShards) {
  // The low-level scatter surface: ops grouped per shard, results landing
  // in caller-owned slots at input positions.
  auto store = ShardedStore::OfMemory(3);
  ASSERT_TRUE(store->Put(Key(1), "a").ok());
  ASSERT_TRUE(store->Put(Key(2), "b").ok());
  std::vector<std::string> keys = {Key(2), Key(9), Key(1)};
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  std::vector<BatchGetOp> ops(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i] = {Slice(keys[i]), &values[i], &statuses[i]};
  }
  store->BatchGet(ops.data(), ops.size());
  EXPECT_EQ(values[0], "b");
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_EQ(values[2], "a");
}

TEST(ShardedStoreTest, EachShardRecoversFromItsOwnDevice) {
  constexpr size_t kShards = 3;
  storage::SsdOptions dev_opts;
  dev_opts.capacity_bytes = 256ull << 20;
  dev_opts.max_iops = 0;
  std::vector<std::unique_ptr<storage::SsdDevice>> devices;
  for (size_t i = 0; i < kShards; ++i) {
    devices.push_back(std::make_unique<storage::SsdDevice>(dev_opts));
  }

  auto shard_options = [&](size_t i) {
    CachingStoreOptions o;
    o.device.capacity_bytes = dev_opts.capacity_bytes;
    o.device.max_iops = 0;
    o.tree.max_page_bytes = 1024;
    o.maintenance_interval_ops = 0;
    o.external_device = devices[i].get();
    return o;
  };

  {
    ShardedStore store(kShards, [&](size_t i) {
      return std::make_unique<CachingStore>(shard_options(i));
    });
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(store.Put(Key(i), "v" + std::to_string(i)).ok());
    }
    for (size_t s = 0; s < kShards; ++s) {
      store.WithShard(s, [](KvStore* shard) {
        ASSERT_TRUE(static_cast<CachingStore*>(shard)->Checkpoint().ok());
      });
    }
  }  // "crash": stores destroyed, devices survive

  ShardedStore reopened(kShards, [&](size_t i) {
    return std::make_unique<CachingStore>(shard_options(i));
  });
  for (size_t s = 0; s < kShards; ++s) {
    reopened.WithShard(s, [](KvStore* shard) {
      ASSERT_TRUE(static_cast<CachingStore*>(shard)->Recover().ok());
    });
  }
  for (int i = 0; i < 1500; ++i) {
    auto r = reopened.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(*r, "v" + std::to_string(i));
  }
  // Placement is stable across the restart: a scan sees every record in
  // global order exactly once.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(reopened.Scan(Key(0), 2000, &out).ok());
  ASSERT_EQ(out.size(), 1500u);
  std::set<std::string> seen;
  for (const auto& [k, v] : out) seen.insert(k);
  EXPECT_EQ(seen.size(), 1500u);
}

}  // namespace
}  // namespace costperf::core
