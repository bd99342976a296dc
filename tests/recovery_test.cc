#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.h"
#include "core/caching_store.h"

namespace costperf::core {
namespace {

// Restart/recovery tests: a CachingStore writes and checkpoints, then a
// second store attaches to the same device and rebuilds the tree from the
// log-structured media.

CachingStoreOptions BaseOptions() {
  CachingStoreOptions o;
  o.device.capacity_bytes = 256ull << 20;
  o.device.max_iops = 0;
  o.tree.max_page_bytes = 1024;
  o.maintenance_interval_ops = 0;
  return o;
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", (unsigned long long)i);
  return buf;
}

TEST(RecoveryTest, CheckpointedDataSurvivesRestart) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);

  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;
  {
    CachingStore store(opts);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store.Put(Key(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }  // "crash"

  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  for (int i = 0; i < 2000; ++i) {
    auto r = reopened.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(*r, "v" + std::to_string(i));
  }
  // Point lookups on absent keys still work.
  EXPECT_TRUE(reopened.Get("zzz").status().IsNotFound());
}

TEST(RecoveryTest, UnflushedWritesAreLost) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;
  {
    CachingStore store(opts);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(store.Put(Key(i), "durable").ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
    // Post-checkpoint updates never reach the device.
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(store.Put(Key(i), "volatile").ok());
    }
  }
  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  EXPECT_EQ(*reopened.Get(Key(123)), "durable");
}

TEST(RecoveryTest, LatestCheckpointWins) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;
  {
    CachingStore store(opts);
    for (int i = 0; i < 1000; ++i) ASSERT_TRUE(store.Put(Key(i), "v1").ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    for (int i = 0; i < 1000; i += 2) {
      ASSERT_TRUE(store.Put(Key(i), "v2").ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*reopened.Get(Key(i)), i % 2 == 0 ? "v2" : "v1") << i;
  }
}

TEST(RecoveryTest, DeltaPagesRecovered) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.tree.max_page_bytes = 64 << 10;  // one big page
  opts.external_device = &device;
  {
    CachingStore store(opts);
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(store.Put(Key(i), "base").ok());
    ASSERT_TRUE(store.EvictAll().ok());
    // Blind updates over the evicted base, then a flush: it loads the
    // base, merges the deltas and writes the page's one new record.
    ASSERT_TRUE(store.Put(Key(7), "delta-update").ok());
    ASSERT_TRUE(store.Delete(Key(9)).ok());
    auto pids = store.tree()->LeafPageIds();
    ASSERT_EQ(pids.size(), 1u);
    ASSERT_TRUE(store.tree()->FlushPage(pids[0]).ok());
    ASSERT_TRUE(store.log_store()->Flush().ok());
  }
  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  EXPECT_EQ(*reopened.Get(Key(7)), "delta-update");
  EXPECT_EQ(*reopened.Get(Key(8)), "base");
  EXPECT_TRUE(reopened.Get(Key(9)).status().IsNotFound());
}

TEST(RecoveryTest, EmptyStoreRecoversEmpty) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 64ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;
  CachingStore store(opts);
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_TRUE(store.Get("anything").status().IsNotFound());
  // And the recovered (empty) store is writable.
  ASSERT_TRUE(store.Put("a", "1").ok());
  EXPECT_EQ(*store.Get("a"), "1");
}

TEST(RecoveryTest, RecoveredStoreAcceptsNewWritesAndSplits) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;
  {
    CachingStore store(opts);
    for (int i = 0; i < 1000; ++i) ASSERT_TRUE(store.Put(Key(i), "old").ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  // Grow the keyspace 3x to force fresh splits on recovered pages.
  for (int i = 1000; i < 4000; ++i) {
    ASSERT_TRUE(reopened.Put(Key(i), "new").ok());
  }
  Random rng(5);
  for (int t = 0; t < 1000; ++t) {
    uint64_t i = rng.Uniform(4000);
    auto r = reopened.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(*r, i < 1000 ? "old" : "new");
  }
  // Scans traverse the rebuilt B-link chain.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(reopened.Scan(Key(0), 4000, &out).ok());
  EXPECT_EQ(out.size(), 4000u);
}

TEST(RecoveryTest, RecoveryAfterGc) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;
  {
    CachingStore store(opts);
    std::string big(300, 'x');
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 1500; ++i) {
        ASSERT_TRUE(store.Put(Key(i), big + std::to_string(round)).ok());
      }
      ASSERT_TRUE(store.Checkpoint().ok());
    }
    ASSERT_TRUE(store.RunGc(0.6).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  std::string big(300, 'x');
  for (int i = 0; i < 1500; i += 13) {
    auto r = reopened.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(*r, big + "2");
  }
}

TEST(RecoveryTest, RandomizedEndToEnd) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  CachingStoreOptions opts = BaseOptions();
  opts.external_device = &device;

  std::map<std::string, std::string> model;
  Random rng(909);
  {
    CachingStore store(opts);
    for (int op = 0; op < 8000; ++op) {
      std::string key = Key(rng.Uniform(700));
      if (rng.Bernoulli(0.7)) {
        std::string val = "v" + std::to_string(rng.Next() % 100000);
        ASSERT_TRUE(store.Put(key, val).ok());
        model[key] = val;
      } else {
        ASSERT_TRUE(store.Delete(key).ok());
        model.erase(key);
      }
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  for (int i = 0; i < 700; ++i) {
    std::string key = Key(i);
    auto r = reopened.Get(key);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(r.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(r.ok()) << key;
      EXPECT_EQ(*r, it->second);
    }
  }
}

}  // namespace
}  // namespace costperf::core
