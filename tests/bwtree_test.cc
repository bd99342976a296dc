#include "bwtree/bwtree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/random.h"

namespace costperf::bwtree {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}
std::string Val(uint64_t i) { return "value-" + std::to_string(i); }

class BwTreeTest : public ::testing::Test {
 protected:
  void SetUpStore(uint64_t max_page_bytes = 1024) {
    storage::SsdOptions dev;
    dev.capacity_bytes = 256ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    log_ = std::make_unique<llama::LogStructuredStore>(device_.get());
    BwTreeOptions opts;
    opts.max_page_bytes = max_page_bytes;
    opts.consolidate_threshold = 4;
    opts.max_inner_children = 8;
    opts.log_store = log_.get();
    tree_ = std::make_unique<BwTree>(opts);
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<BwTree> tree_;
};

TEST_F(BwTreeTest, PutGetSingle) {
  SetUpStore();
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  auto r = tree_->Get("a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "1");
}

TEST_F(BwTreeTest, GetMissingIsNotFound) {
  SetUpStore();
  EXPECT_TRUE(tree_->Get("nope").status().IsNotFound());
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  EXPECT_TRUE(tree_->Get("b").status().IsNotFound());
}

TEST_F(BwTreeTest, PutOverwrites) {
  SetUpStore();
  ASSERT_TRUE(tree_->Put("k", "v1").ok());
  ASSERT_TRUE(tree_->Put("k", "v2").ok());
  EXPECT_EQ(*tree_->Get("k"), "v2");
}

TEST_F(BwTreeTest, DeleteRemoves) {
  SetUpStore();
  ASSERT_TRUE(tree_->Put("k", "v").ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  EXPECT_TRUE(tree_->Get("k").status().IsNotFound());
}

TEST_F(BwTreeTest, DeleteThenReinsert) {
  SetUpStore();
  ASSERT_TRUE(tree_->Put("k", "v1").ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  ASSERT_TRUE(tree_->Put("k", "v2").ok());
  EXPECT_EQ(*tree_->Get("k"), "v2");
}

TEST_F(BwTreeTest, TimestampedBlindUpdatesNewestWins) {
  SetUpStore();
  // Posted out of order: higher timestamp must win regardless.
  ASSERT_TRUE(tree_->Put("k", "late", 100).ok());
  ASSERT_TRUE(tree_->Put("k", "early", 50).ok());
  EXPECT_EQ(*tree_->Get("k"), "late");
  // Consolidation must preserve the decision.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  EXPECT_EQ(*tree_->Get("k"), "late");
}

TEST_F(BwTreeTest, ConsolidationTriggersAndPreservesData) {
  SetUpStore(64 << 10);  // large pages: no splits
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i % 10), Val(i)).ok());
  }
  EXPECT_GT(tree_->stats().consolidations, 0u);
  for (int k = 0; k < 10; ++k) {
    // Last write per key: i where i%10==k, max i = 90+k
    EXPECT_EQ(*tree_->Get(Key(k)), Val(90 + k));
  }
}

TEST_F(BwTreeTest, SplitsProduceMultipleLeaves) {
  SetUpStore(512);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  EXPECT_GT(tree_->stats().leaf_splits, 5u);
  EXPECT_GT(tree_->stats().root_splits, 0u);
  EXPECT_GT(tree_->LeafPageIds().size(), 5u);
  for (int i = 0; i < 500; ++i) {
    auto r = tree_->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(*r, Val(i));
  }
}

TEST_F(BwTreeTest, InnerSplitsWithTinyFanout) {
  SetUpStore(256);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  EXPECT_GT(tree_->stats().inner_splits, 0u);
  Random rng(3);
  for (int t = 0; t < 500; ++t) {
    uint64_t i = rng.Uniform(2000);
    ASSERT_EQ(*tree_->Get(Key(i)), Val(i));
  }
}

TEST_F(BwTreeTest, EquivalenceWithStdMapRandomOps) {
  SetUpStore(512);
  std::map<std::string, std::string> model;
  Random rng(42);
  for (int op = 0; op < 20000; ++op) {
    uint64_t k = rng.Uniform(800);
    std::string key = Key(k);
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      std::string val = Val(rng.Next() % 100000);
      ASSERT_TRUE(tree_->Put(key, val).ok());
      model[key] = val;
    } else if (dice < 0.75) {
      ASSERT_TRUE(tree_->Delete(key).ok());
      model.erase(key);
    } else {
      auto r = tree_->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(r.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(r.ok()) << key;
        EXPECT_EQ(*r, it->second);
      }
    }
  }
  // Full verification pass.
  for (auto& [k, v] : model) {
    auto r = tree_->Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, v);
  }
}

TEST_F(BwTreeTest, ScanReturnsSortedRange) {
  SetUpStore(512);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan(Key(100), 50, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i].first, Key(100 + i));
    EXPECT_EQ(out[i].second, Val(100 + i));
  }
}

TEST_F(BwTreeTest, ScanRespectsEndBound) {
  SetUpStore(512);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan(Key(10), 1000, &out, Key(20)).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().first, Key(10));
  EXPECT_EQ(out.back().first, Key(19));
}

TEST_F(BwTreeTest, ScanSkipsDeletedKeys) {
  SetUpStore(512);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  for (int i = 0; i < 50; i += 2) {
    ASSERT_TRUE(tree_->Delete(Key(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan("", 1000, &out).ok());
  EXPECT_EQ(out.size(), 25u);
  for (auto& [k, v] : out) {
    uint64_t i = std::stoull(k.substr(3));
    EXPECT_EQ(i % 2, 1u) << k;
  }
}

TEST_F(BwTreeTest, EmptyTreeScan) {
  SetUpStore();
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan("", 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

// ---------------- paging ----------------

TEST_F(BwTreeTest, FlushThenEvictThenGetReloads) {
  SetUpStore(512);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (PageId pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid, EvictMode::kFullEviction).ok());
    EXPECT_FALSE(tree_->IsLeafResident(pid));
  }
  uint64_t ss_before = tree_->stats().ss_ops;
  for (int i = 0; i < 100; ++i) {
    auto r = tree_->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(*r, Val(i));
  }
  EXPECT_GT(tree_->stats().ss_ops, ss_before);
  EXPECT_GT(tree_->stats().page_loads, 0u);
}

TEST_F(BwTreeTest, EvictedPagesAreMmAgainAfterLoad) {
  SetUpStore(512);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (PageId pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid, EvictMode::kFullEviction).ok());
  }
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(tree_->Get(Key(i)).ok());
  uint64_t ss_after_warm = tree_->stats().ss_ops;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(tree_->Get(Key(i)).ok());
  EXPECT_EQ(tree_->stats().ss_ops, ss_after_warm)
      << "second pass must be all MM";
}

TEST_F(BwTreeTest, BlindPutOnEvictedPageNeedsNoRead) {
  SetUpStore(64 << 10);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());

  uint64_t reads_before = device_->stats().reads;
  uint64_t flash_reads_before = tree_->stats().flash_record_reads;
  ASSERT_TRUE(tree_->Put(Key(5), "updated-blind").ok());
  EXPECT_EQ(device_->stats().reads, reads_before)
      << "blind update must not read the device";
  EXPECT_EQ(tree_->stats().flash_record_reads, flash_reads_before);
  EXPECT_GT(tree_->stats().blind_updates, 0u);

  // And the update is visible (record-cache hit, still no base load).
  auto r = tree_->Get(Key(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "updated-blind");
  EXPECT_GT(tree_->stats().record_cache_hits, 0u);

  // Reading a different key now loads the base and merges the delta.
  EXPECT_EQ(*tree_->Get(Key(6)), Val(6));
  EXPECT_EQ(*tree_->Get(Key(5)), "updated-blind");
}

TEST_F(BwTreeTest, RecordCacheEvictionKeepsDeltas) {
  SetUpStore(64 << 10);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  // Dirty the page with fresh deltas, then evict keeping deltas.
  ASSERT_TRUE(tree_->FlushAll().ok());
  ASSERT_TRUE(tree_->Put(Key(3), "hot-update").ok());
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kKeepDeltas).ok());
  EXPECT_GT(tree_->stats().record_cache_evictions, 0u);
  EXPECT_FALSE(tree_->IsLeafResident(pids[0]));

  uint64_t flash_reads_before = tree_->stats().flash_record_reads;
  auto r = tree_->Get(Key(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "hot-update");
  EXPECT_EQ(tree_->stats().flash_record_reads, flash_reads_before)
      << "record-cache hit must not touch flash";
  EXPECT_GT(tree_->stats().record_cache_hits, 0u);
}

TEST_F(BwTreeTest, DeltaOnlyFlushWritesFewerBytes) {
  SetUpStore(64 << 10);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  // Evict keeping nothing; then blind-update one record and delta-flush.
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());
  ASSERT_TRUE(tree_->Put(Key(7), "tiny-change").ok());

  uint64_t flushed_before = tree_->stats().bytes_flushed;
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kDeltaOnly).ok());
  uint64_t delta_bytes = tree_->stats().bytes_flushed - flushed_before;
  EXPECT_GT(tree_->stats().delta_flushes, 0u);
  EXPECT_LT(delta_bytes, 200u)
      << "delta flush must write only the one update";

  // The page state is recoverable: evict fully, reload via Get.
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());
  EXPECT_EQ(*tree_->Get(Key(7)), "tiny-change");
  EXPECT_EQ(*tree_->Get(Key(8)), Val(8));
}

TEST_F(BwTreeTest, MultiHopFlashChainLoads) {
  SetUpStore(64 << 10);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());

  // Three rounds of blind update + delta-only flush: flash chain length 4.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(tree_->Put(Key(round), "round-" + std::to_string(round)).ok());
    ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kDeltaOnly).ok());
    ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());
  }
  uint64_t reads_before = tree_->stats().flash_record_reads;
  EXPECT_EQ(*tree_->Get(Key(0)), "round-0");
  uint64_t hops = tree_->stats().flash_record_reads - reads_before;
  EXPECT_EQ(hops, 4u) << "expected base + 3 delta pages";
  EXPECT_EQ(*tree_->Get(Key(1)), "round-1");
  EXPECT_EQ(*tree_->Get(Key(2)), "round-2");
  EXPECT_EQ(*tree_->Get(Key(10)), Val(10));
}

TEST_F(BwTreeTest, FlushCleanPageIsNoop) {
  SetUpStore(64 << 10);
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  uint64_t flushes = tree_->stats().full_flushes;
  auto pids = tree_->LeafPageIds();
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kFullPage).ok());
  EXPECT_EQ(tree_->stats().full_flushes, flushes) << "clean page: no write";
}

TEST_F(BwTreeTest, EvictDirtyPageFlushesFirst) {
  SetUpStore(64 << 10);
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());
  EXPECT_GT(tree_->stats().full_flushes, 0u);
  EXPECT_EQ(*tree_->Get("a"), "1");
}

TEST_F(BwTreeTest, PagingStressAgainstModel) {
  SetUpStore(512);
  std::map<std::string, std::string> model;
  Random rng(77);
  for (int op = 0; op < 5000; ++op) {
    uint64_t k = rng.Uniform(300);
    std::string key = Key(k);
    double dice = rng.NextDouble();
    if (dice < 0.4) {
      std::string val = Val(rng.Next() % 100000);
      ASSERT_TRUE(tree_->Put(key, val).ok());
      model[key] = val;
    } else if (dice < 0.5) {
      ASSERT_TRUE(tree_->Delete(key).ok());
      model.erase(key);
    } else if (dice < 0.9) {
      auto r = tree_->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(r.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(r.ok()) << key << " " << r.status().ToString();
        EXPECT_EQ(*r, it->second);
      }
    } else {
      // Random paging activity on a random leaf.
      auto leaf = tree_->LeafOf(key);
      ASSERT_TRUE(leaf.ok());
      if (rng.Bernoulli(0.5)) {
        tree_->FlushPage(*leaf, rng.Bernoulli(0.5) ? FlushMode::kFullPage
                                                   : FlushMode::kDeltaOnly);
      } else {
        tree_->EvictPage(*leaf, rng.Bernoulli(0.5)
                                    ? EvictMode::kFullEviction
                                    : EvictMode::kKeepDeltas);
      }
    }
    if (op % 512 == 0) tree_->ReclaimMemory();
  }
  for (auto& [k, v] : model) {
    auto r = tree_->Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, v);
  }
}

TEST_F(BwTreeTest, GcPreservesEvictedPages) {
  SetUpStore(512);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  // Rewrite everything once so the first segments are mostly dead.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i + 1000)).ok());
  }
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (PageId pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid, EvictMode::kFullEviction).ok());
  }

  auto live = [&](PageId pid, FlashAddress a) { return tree_->GcIsLive(pid, a); };
  auto install = [&](PageId pid, FlashAddress o, FlashAddress n) {
    return tree_->GcInstall(pid, o, n);
  };
  int collected = 0;
  for (int round = 0; round < 50; ++round) {
    auto segs = tree_->options().log_store->segments();
    uint64_t victim = UINT64_MAX;
    for (auto& s : segs) {
      if (s.sealed && s.live_fraction() < 0.99) {
        victim = s.id;
        break;
      }
    }
    if (victim == UINT64_MAX) break;
    ASSERT_TRUE(tree_->PrepareSegmentForGc(victim, 1 << 20).ok());
    auto gc = log_->CollectSegment(victim, live, install);
    ASSERT_TRUE(gc.ok()) << gc.status().ToString();
    ++collected;
    // After preparation some pages are resident again; evict them.
    for (PageId pid : tree_->LeafPageIds()) {
      tree_->EvictPage(pid, EvictMode::kFullEviction);
    }
  }
  EXPECT_GT(collected, 0);
  for (int i = 0; i < 300; ++i) {
    auto r = tree_->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << " " << r.status().ToString();
    EXPECT_EQ(*r, Val(i + 1000));
  }
}

TEST_F(BwTreeTest, MemoryFootprintShrinksOnEviction) {
  SetUpStore(512);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  uint64_t resident = tree_->MemoryFootprintBytes();
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (PageId pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid, EvictMode::kFullEviction).ok());
  }
  tree_->ReclaimMemory();
  EXPECT_LT(tree_->MemoryFootprintBytes(), resident / 2);
}

TEST_F(BwTreeTest, ConcurrentWritersDisjointKeys) {
  SetUpStore(512);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(tree_->Put(Key(k), Val(k)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  tree_->ReclaimMemory();
  for (uint64_t k = 0; k < uint64_t{kThreads} * kPerThread; ++k) {
    auto r = tree_->Get(Key(k));
    ASSERT_TRUE(r.ok()) << Key(k);
    EXPECT_EQ(*r, Val(k));
  }
}

TEST(BwTreeSmoTest, ConcurrentSplitsWithTinyFanout) {
  // Eight writers on 256-byte leaves under fanout-4 inner nodes: leaf,
  // inner and root splits race all the time. A split takes back a page
  // it published when its link CAS loses (a new root, an inner split's
  // right half); no other split may adopt such a page as a parent, or
  // the page is retired twice.
  constexpr int kThreads = 8, kPerThread = 2000;
  for (int round = 0; round < 30; ++round) {
    BwTreeOptions opts;
    opts.max_page_bytes = 256;
    opts.consolidate_threshold = 4;
    opts.max_inner_children = 4;
    BwTree tree(opts);
    std::vector<std::thread> threads;
    std::atomic<uint64_t> put_errors{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
          if (!tree.Put(Key(k), "v").ok()) put_errors++;
        }
      });
    }
    for (auto& th : threads) th.join();
    tree.ReclaimMemory();
    ASSERT_EQ(put_errors.load(), 0u) << "round " << round;
    for (uint64_t k = 0; k < uint64_t{kThreads} * kPerThread; ++k) {
      auto r = tree.Get(Key(k));
      ASSERT_TRUE(r.ok()) << "round " << round << " " << Key(k);
    }
  }
}

TEST_F(BwTreeTest, ConcurrentReadersAndWriters) {
  SetUpStore(512);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&] {
    Random rng(9);
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t k = rng.Uniform(1000);
      auto r = tree_->Get(Key(k));
      // Values change concurrently but must always parse as Val(something)
      // and never error except NotFound-free keys (all exist here).
      if (!r.ok()) read_errors++;
    }
  });
  Random rng(10);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.Uniform(1000);
    ASSERT_TRUE(tree_->Put(Key(k), Val(rng.Next() % 100000)).ok());
    if (i % 1000 == 0) tree_->ReclaimMemory();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
}

TEST_F(BwTreeTest, PagingRacesNeverLoseAcknowledgedWrites) {
  // One leaf, written in bursts while another thread flushes, evicts,
  // demotes and reloads it. A consolidation or load that folds deltas
  // into a base must leave the page dirty. If a racing flush or demotion
  // marks it clean afterwards, the next eviction maps the page back to
  // an older flash image and an acknowledged write disappears.
  SetUpStore(4096);
  constexpr int kKeys = 4;
  constexpr uint64_t kRounds = 20000;
  for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(tree_->Put(Key(k), Val(0)).ok());
  const PageId pid = *tree_->LeafOf(Key(0));
  std::atomic<uint64_t> acked[kKeys] = {};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale{0};
  std::thread pager([&] {
    CssPolicy always;  // demote at any ratio, however often
    always.min_ratio = 1e9;
    always.max_reheats = UINT32_MAX;
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      switch (i % 4) {
        case 0: (void)tree_->FlushPage(pid, FlushMode::kFullPage); break;
        case 1: (void)tree_->EvictPage(pid, EvictMode::kFullEviction); break;
        case 2: (void)tree_->DemotePage(pid, always); break;
        default: (void)tree_->LoadPage(pid); break;
      }
      tree_->ReclaimMemory();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int k = 0; k < kKeys; ++k) {
        const uint64_t lo = acked[k].load(std::memory_order_acquire);
        auto r = tree_->Get(Key(k));
        if (!r.ok() || std::stoull(r->substr(6)) < lo) stale++;
      }
    }
  });
  uint64_t write_errors = 0;
  for (uint64_t v = 1; v <= kRounds; ++v) {
    for (int k = 0; k < kKeys; ++k) {
      if (!tree_->Put(Key(k), Val(v)).ok()) ++write_errors;
      acked[k].store(v, std::memory_order_release);
    }
    // A quiet gap lets the page consolidate and be paged out between
    // bursts.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  stop.store(true, std::memory_order_release);
  pager.join();
  reader.join();
  EXPECT_EQ(write_errors, 0u);
  EXPECT_EQ(stale.load(), 0u);
  for (int k = 0; k < kKeys; ++k) EXPECT_EQ(*tree_->Get(Key(k)), Val(kRounds));
}

TEST_F(BwTreeTest, PurelyInMemoryTreeRejectsPaging) {
  BwTreeOptions opts;  // no log store
  BwTree tree(opts);
  ASSERT_TRUE(tree.Put("a", "1").ok());
  auto pid = tree.LeafOf("a");
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(tree.FlushPage(*pid, FlushMode::kFullPage).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tree.EvictPage(*pid, EvictMode::kFullEviction).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BwTreeTest, LargeValuesAcrossSplits) {
  SetUpStore(4096);
  std::string big(1500, 'x');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), big + std::to_string(i)).ok());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*tree_->Get(Key(i)), big + std::to_string(i));
  }
}

}  // namespace
}  // namespace costperf::bwtree
