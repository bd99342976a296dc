#include "bwtree/bwtree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "analysis/bwtree_validator.h"
#include "analysis/log_store_auditor.h"
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
  void SetUpStore(uint64_t max_page_bytes = 1024,
                  uint64_t segment_bytes = llama::LogStoreOptions().segment_bytes,
                  double css_min_ratio = 0) {
    storage::SsdOptions dev;
    dev.capacity_bytes = 256ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    llama::LogStoreOptions log_options;
    log_options.segment_bytes = segment_bytes;
    log_ = std::make_unique<llama::LogStructuredStore>(device_.get(),
                                                       log_options);
    BwTreeOptions opts;
    opts.max_page_bytes = max_page_bytes;
    opts.consolidate_threshold = 4;
    opts.max_inner_children = 8;
    opts.log_store = log_.get();
    opts.css_min_ratio = css_min_ratio;
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
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
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
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
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
  ASSERT_TRUE(tree_->EvictPage(pids[0]).ok());

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

// Blind updates over an evicted base keep their timestamp order through a
// flush: the flush loads the base, merges the deltas into one full image,
// and reloading that image must not change what a read returns.
TEST_F(BwTreeTest, DeltaPageReplayKeepsHighestTimestamp) {
  SetUpStore(64 << 10);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_TRUE(tree_->EvictPage(pids[0]).ok());

  // The transaction component posts updates after they commit, so the
  // lower timestamp can arrive second.
  ASSERT_TRUE(tree_->Put(Key(7), "v9", 9).ok());
  ASSERT_TRUE(tree_->Put(Key(7), "v5", 5).ok());
  ASSERT_TRUE(tree_->Delete(Key(8), 9).ok());
  ASSERT_TRUE(tree_->Put(Key(8), "p5", 5).ok());
  EXPECT_EQ(*tree_->Get(Key(7)), "v9");
  EXPECT_TRUE(tree_->Get(Key(8)).status().IsNotFound());
  EXPECT_FALSE(tree_->IsLeafResident(pids[0]))
      << "the deltas answer without loading the base";

  ASSERT_TRUE(tree_->FlushPage(pids[0]).ok());
  ASSERT_TRUE(tree_->EvictPage(pids[0]).ok());
  const uint64_t reads_before = tree_->stats().flash_record_reads;
  EXPECT_EQ(*tree_->Get(Key(7)), "v9");
  EXPECT_EQ(tree_->stats().flash_record_reads - reads_before, 1u)
      << "the page is one record on flash";
  EXPECT_TRUE(tree_->Get(Key(8)).status().IsNotFound());
  EXPECT_EQ(*tree_->Get(Key(9)), Val(9));

  // A salvage rebuild replays the flushed image the same way. A second
  // leaf image that also claims the range up to +infinity, as a torn
  // split checkpoint leaves, makes recovery fall back to salvage.
  LeafBuilder stray(Slice(), kInvalidPageId);
  stray.Add("zz", "1");
  ASSERT_TRUE(log_->Append(pids[0] + 1, stray.Finish()->image()).ok());
  ASSERT_TRUE(log_->Flush().ok());
  BwTree salvaged(tree_->options());
  ASSERT_TRUE(salvaged.RecoverFromStore().ok());
  EXPECT_EQ(salvaged.stats().salvage_recoveries, 1u);
  EXPECT_EQ(*salvaged.Get(Key(7)), "v9");
  EXPECT_TRUE(salvaged.Get(Key(8)).status().IsNotFound());
  EXPECT_EQ(*salvaged.Get(Key(9)), Val(9));
  EXPECT_EQ(*salvaged.Get("zz"), "1");
}

// A newer update decides for the key it touched, whatever its timestamp:
// a chain over an evicted base answers from its own deltas (a record-cache
// hit), and a reload must give the same answer — whether the older update
// was flushed into the record by a full flush or is merged from memory by
// a load for another key.
TEST_F(BwTreeTest, NewerDeltaBatchDecidesOverOlderTimestamps) {
  SetUpStore(64 << 10);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  const PageId pid = pids[0];
  ASSERT_TRUE(tree_->EvictPage(pid).ok());

  // A blind update over a record that holds a higher-timestamped one.
  ASSERT_TRUE(tree_->Put(Key(7), "v9", 9).ok());
  ASSERT_TRUE(tree_->FlushPage(pid).ok());
  ASSERT_TRUE(tree_->EvictPage(pid).ok());
  ASSERT_TRUE(tree_->Put(Key(7), "v5", 5).ok());
  EXPECT_EQ(*tree_->Get(Key(7)), "v5");
  ASSERT_TRUE(tree_->FlushPage(pid).ok());
  ASSERT_TRUE(tree_->EvictPage(pid).ok());
  EXPECT_EQ(*tree_->Get(Key(7)), "v5");

  // In-memory deltas over the record, merged by a load for another key.
  ASSERT_TRUE(tree_->EvictPage(pid).ok());
  ASSERT_TRUE(tree_->Put(Key(9), "w9", 9).ok());
  ASSERT_TRUE(tree_->FlushPage(pid).ok());
  ASSERT_TRUE(tree_->EvictPage(pid).ok());
  ASSERT_TRUE(tree_->Put(Key(9), "w5", 5).ok());
  EXPECT_EQ(*tree_->Get(Key(9)), "w5");
  const uint64_t loads_before = tree_->stats().page_loads;
  EXPECT_EQ(*tree_->Get(Key(10)), Val(10));
  EXPECT_EQ(tree_->stats().page_loads - loads_before, 1u);
  EXPECT_EQ(*tree_->Get(Key(9)), "w5");
  EXPECT_EQ(*tree_->Get(Key(7)), "v5");
}

TEST_F(BwTreeTest, FlushCleanPageIsNoop) {
  SetUpStore(64 << 10);
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  ASSERT_TRUE(tree_->FlushAll().ok());
  uint64_t flushes = tree_->stats().full_flushes;
  auto pids = tree_->LeafPageIds();
  ASSERT_TRUE(tree_->FlushPage(pids[0]).ok());
  EXPECT_EQ(tree_->stats().full_flushes, flushes) << "clean page: no write";
}

TEST_F(BwTreeTest, EvictDirtyPageFlushesFirst) {
  SetUpStore(64 << 10);
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_TRUE(tree_->EvictPage(pids[0]).ok());
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
        tree_->FlushPage(*leaf);
      } else {
        tree_->EvictPage(*leaf);
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
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
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
      tree_->EvictPage(pid);
    }
  }
  EXPECT_GT(collected, 0);
  for (int i = 0; i < 300; ++i) {
    auto r = tree_->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << " " << r.status().ToString();
    EXPECT_EQ(*r, Val(i + 1000));
  }
}

TEST_F(BwTreeTest, GcTrimsAVictimWhoseRecordWasReplacedDuringTheRound) {
  SetUpStore();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  const std::vector<PageId> leaves = tree_->LeafPageIds();
  ASSERT_EQ(leaves.size(), 1u);
  const PageId leaf = leaves[0];
  ASSERT_TRUE(tree_->FlushPage(leaf).ok());
  ASSERT_TRUE(log_->Flush().ok());
  const uint64_t segment_bytes = log_->options().segment_bytes;
  const uint64_t victim =
      tree_->DebugPageInfo(leaf).record.offset() / segment_bytes;

  // Between GC's liveness check and its install, a write and a flush
  // replace the leaf's record in the victim. Nothing references the old
  // record any more, so the victim must still be trimmed.
  bool rewritten = false;
  auto live = [&](PageId p, FlashAddress a) { return tree_->GcIsLive(p, a); };
  auto install = [&](PageId p, FlashAddress o, FlashAddress n) {
    if (p == leaf && !rewritten) {
      rewritten = true;
      EXPECT_TRUE(tree_->Put(Key(2), "rewritten").ok());
      EXPECT_TRUE(tree_->FlushPage(leaf).ok());
    }
    return tree_->GcInstall(p, o, n);
  };
  ASSERT_TRUE(tree_->PrepareSegmentForGc(victim, segment_bytes).ok());
  auto gc = log_->CollectSegment(victim, live, install);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_TRUE(rewritten);
  EXPECT_EQ(gc->failed_installs, 0u);
  EXPECT_EQ(gc->reclaimed_bytes, segment_bytes);
  for (const auto& seg : log_->segments()) EXPECT_NE(seg.id, victim);
  EXPECT_TRUE(analysis::LogStoreAuditor(log_.get()).Check().empty());
  EXPECT_TRUE(analysis::BwTreeValidator(tree_.get()).Check().empty());

  // The replacement is what a reload reads.
  ASSERT_TRUE(tree_->EvictPage(leaf).ok());
  for (int i = 0; i < 5; ++i) {
    auto r = tree_->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << " " << r.status().ToString();
    EXPECT_EQ(*r, i == 2 ? "rewritten" : Val(i));
  }
}

TEST_F(BwTreeTest, MemoryFootprintShrinksOnEviction) {
  SetUpStore(512);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  uint64_t resident = tree_->MemoryFootprintBytes();
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (PageId pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
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
  // One leaf, written in bursts while another thread flushes, evicts
  // and reloads it. A consolidation or load that folds deltas into a
  // base must leave the page dirty. If a racing flush or eviction marks
  // it clean afterwards, the next eviction maps the page back to an older
  // flash image and an acknowledged write disappears. Every full flush
  // writes compressed, whatever the ratio, so every full eviction is a
  // demotion.
  SetUpStore(4096, llama::LogStoreOptions().segment_bytes,
             /*css_min_ratio=*/1e9);
  constexpr int kKeys = 4;
  constexpr uint64_t kRounds = 20000;
  for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(tree_->Put(Key(k), Val(0)).ok());
  const PageId pid = *tree_->LeafOf(Key(0));
  std::atomic<uint64_t> acked[kKeys] = {};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale{0};
  std::thread pager([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      switch (i % 4) {
        case 0: (void)tree_->FlushPage(pid); break;
        case 1:
        case 2: (void)tree_->EvictPage(pid); break;
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

TEST_F(BwTreeTest, RacingFlushAndEvictionKeepTheFlashChainExact) {
  // A checkpoint flushes a leaf while maintenance fully evicts it, which
  // flushes it first. Both start from the same consolidated, dirty bare
  // base. Each flush must move the mapping word (DESIGN.md §3.4 rule 4):
  // otherwise the slower flush's CAS succeeds on metadata the faster one
  // already replaced, so the old record is marked dead twice and a new
  // one never, and the eviction can map the page to a record that GC
  // then drops.
  SetUpStore(4096);
  constexpr int kKeys = 4;  // one page; 4 puts reach consolidate_threshold
  constexpr int kRounds = 2000;
  // Values change length from round to round, so a record marked dead
  // twice and one never marked do not cancel out in the byte counts.
  auto value = [](int round, int k) {
    return std::string(1 + round % 23, 'v') + Val(k);
  };
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree_->Put(Key(k), value(0, k)).ok());
  }
  const PageId pid = *tree_->LeafOf(Key(0));
  auto make_dirty_bare_base = [&](int round) {
    ASSERT_TRUE(tree_->LoadPage(pid).ok());
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(tree_->Put(Key(k), value(round, k)).ok());
    }
    const uint64_t w = tree_->mapping_table()->Get(pid);
    ASSERT_FALSE(IsFlashWord(w));
    ASSERT_EQ(DecodePointer(w)->type, NodeType::kLeafBase);
    ASSERT_TRUE(tree_->IsDirty(pid));
  };

  // Single-threaded: flushing a dirty bare base installs a new base.
  make_dirty_bare_base(0);
  const uint64_t before_flush = tree_->mapping_table()->Get(pid);
  ASSERT_TRUE(tree_->FlushPage(pid).ok());
  EXPECT_NE(tree_->mapping_table()->Get(pid), before_flush);

  std::atomic<int> go{0};    // round the two pagers may start
  std::atomic<int> done{0};  // pager finishes so far
  auto pager = [&](bool evict) {
    for (int round = 1; round <= kRounds; ++round) {
      while (go.load(std::memory_order_acquire) < round) {
        std::this_thread::yield();
      }
      if (evict) {
        (void)tree_->EvictPage(pid);
      } else {
        (void)tree_->FlushPage(pid);
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread flusher(pager, false);
  std::thread evictor(pager, true);
  uint64_t violations = 0;
  for (int round = 1; round <= kRounds; ++round) {
    make_dirty_bare_base(round);
    go.store(round, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < 2 * round) {
      std::this_thread::yield();
    }
    tree_->ReclaimMemory();
    // The mapping word and the page's record must agree after every round.
    violations += analysis::BwTreeValidator(tree_.get()).Check().size();
  }
  flusher.join();
  evictor.join();
  EXPECT_EQ(violations, 0u);

  // Every record is either the page's or marked dead exactly once.
  ASSERT_TRUE(tree_->EvictPage(pid).ok());
  const int64_t referenced = tree_->DebugPageInfo(pid).record.len();
  int64_t live = 0;
  for (const auto& seg : log_->segments()) {
    live += static_cast<int64_t>(
                seg.used_bytes -
                llama::LogStructuredStore::kSegmentHeaderBytes) -
            static_cast<int64_t>(seg.dead_bytes);
  }
  EXPECT_EQ(live, referenced);

  // GC keeps only the records the page references; every key still reads.
  ASSERT_TRUE(log_->Flush().ok());
  auto is_live = [&](PageId p, FlashAddress a) {
    return tree_->GcIsLive(p, a);
  };
  auto install = [&](PageId p, FlashAddress o, FlashAddress n) {
    return tree_->GcInstall(p, o, n);
  };
  for (const auto& seg : log_->segments()) {
    if (!seg.sealed) continue;
    ASSERT_TRUE(tree_->PrepareSegmentForGc(seg.id, 1 << 20).ok());
    ASSERT_TRUE(log_->CollectSegment(seg.id, is_live, install).ok());
  }
  for (int k = 0; k < kKeys; ++k) {
    auto r = tree_->Get(Key(k));
    ASSERT_TRUE(r.ok()) << Key(k) << " " << r.status().ToString();
    EXPECT_EQ(*r, value(kRounds, k));
  }
  EXPECT_TRUE(analysis::LogStoreAuditor(log_.get()).Check().empty());
  EXPECT_TRUE(analysis::BwTreeValidator(tree_.get()).Check().empty());
}

TEST_F(BwTreeTest, RacingSwingGcAndWritersKeepTheFlashChainExact) {
  // Three threads share a few leaves. One promotes and demotes them, so a
  // clean page swings back onto its compressed record and a dirty one is
  // flushed compressed first. One seals the log and collects its
  // segments, so GC moves the records of evicted and resident pages
  // alike. One posts deltas.
  // Every path that moves a page's record moves its mapping word in the
  // same metadata hold, so no swing may land on a record GC already
  // replaced, and no record may be dropped or marked dead twice.
  // Each seal spends a device slot, so the segments are small and the
  // collector seals at most once per writer round.
  constexpr uint64_t kSegmentBytes = 4 << 10;
  SetUpStore(512, kSegmentBytes, /*css_min_ratio=*/0.85);
  constexpr int kKeys = 40;
  // The writer goes on past kMinRounds until the other two have swung
  // pages and moved records, up to kMaxRounds.
  constexpr int kMinRounds = 1000;
  constexpr int kMaxRounds = 5000;
  // Fixed-length compressible values: pages neither split nor refuse
  // demotion.
  auto value = [](int round, int k) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%s-%06d", std::string(24, 'a' + k % 26).c_str(),
             round);
    return std::string(buf);
  };
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree_->Put(Key(k), value(0, k)).ok());
  }
  ASSERT_TRUE(tree_->FlushAll().ok());
  const std::vector<PageId> leaves = tree_->LeafPageIds();
  ASSERT_GT(leaves.size(), 1u);

  std::atomic<bool> stop{false};
  std::atomic<int> rounds_done{0};
  std::atomic<uint64_t> errors{0};
  auto note = [&](const Status& s) {
    if (!s.ok() && !s.IsAborted() &&
        s.code() != StatusCode::kFailedPrecondition) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread tierer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (PageId pid : leaves) {
        note(tree_->LoadPage(pid));
        note(tree_->EvictPage(pid));
      }
    }
  });
  std::thread collector([&] {
    auto is_live = [&](PageId p, FlashAddress a) {
      return tree_->GcIsLive(p, a);
    };
    auto install = [&](PageId p, FlashAddress o, FlashAddress n) {
      return tree_->GcInstall(p, o, n);
    };
    int sealed_after = -1;
    while (!stop.load(std::memory_order_acquire)) {
      const int done = rounds_done.load(std::memory_order_acquire);
      if (done != sealed_after) {
        note(log_->Flush());
        sealed_after = done;
      }
      bool collected = false;
      for (const auto& seg : log_->segments()) {
        if (!seg.sealed) continue;
        note(tree_->PrepareSegmentForGc(seg.id, kSegmentBytes));
        note(log_->CollectSegment(seg.id, is_live, install).status());
        collected = true;
      }
      tree_->ReclaimMemory();
      if (!collected) std::this_thread::yield();
    }
  });
  int round = 0;
  while (round < kMinRounds ||
         (round < kMaxRounds &&
          (tree_->stats().css_clean_demotions < 20 ||
           log_->stats().gc_relocated_records < 20))) {
    ++round;
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(tree_->Put(Key(k), value(round, k)).ok());
    }
    rounds_done.store(round, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_release);
  tierer.join();
  collector.join();
  EXPECT_EQ(errors.load(), 0u);
  // The race happened: pages swung, and GC moved records.
  EXPECT_GT(tree_->stats().css_clean_demotions, 0u);
  EXPECT_GT(log_->stats().gc_relocated_records, 0u);

  // Every evicted word is its page's newest record, and the log's live
  // bytes are exactly the records the pages reference.
  int64_t referenced = 0;
  for (PageId pid : leaves) {
    const BwTree::PageDebugInfo info = tree_->DebugPageInfo(pid);
    ASSERT_TRUE(info.record.valid());
    const uint64_t w = tree_->mapping_table()->Get(pid);
    if (IsFlashWord(w)) {
      EXPECT_EQ(DecodeFlash(w).packed(), info.record.packed());
    }
    referenced += info.record.len();
  }
  int64_t live = 0;
  for (const auto& seg : log_->segments()) {
    live += static_cast<int64_t>(
                seg.used_bytes -
                llama::LogStructuredStore::kSegmentHeaderBytes) -
            static_cast<int64_t>(seg.dead_bytes);
  }
  EXPECT_EQ(live, referenced);
  EXPECT_TRUE(analysis::LogStoreAuditor(log_.get()).Check().empty());
  EXPECT_TRUE(analysis::BwTreeValidator(tree_.get()).Check().empty());
  for (int k = 0; k < kKeys; ++k) {
    auto r = tree_->Get(Key(k));
    ASSERT_TRUE(r.ok()) << Key(k) << " " << r.status().ToString();
    EXPECT_EQ(*r, value(round, k));
  }
}

TEST_F(BwTreeTest, PurelyInMemoryTreeRejectsPaging) {
  BwTreeOptions opts;  // no log store
  BwTree tree(opts);
  ASSERT_TRUE(tree.Put("a", "1").ok());
  auto pid = tree.LeafOf("a");
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(tree.FlushPage(*pid).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tree.EvictPage(*pid).code(),
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
