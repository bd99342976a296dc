// Batched index probes (BwTree::MultiGetBatch / MassTree::LookupBatch):
// equivalence with single-key Get across interleave depths, and races
// against the structure modifications the interleaved state machines
// must survive (border/interior splits, Bw-tree SMOs, consolidation,
// delta chains, flash-resident pages).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bwtree/bwtree.h"
#include "common/random.h"
#include "core/caching_store.h"
#include "masstree/masstree.h"

namespace costperf {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}
std::string Val(uint64_t i) { return "value-" + std::to_string(i); }
// Long keys sharing an 8+ byte prefix: forces MassTree sublayers.
std::string DeepKey(uint64_t i) {
  return "deep-prefix-shared-across-layers-" + Key(i);
}

const size_t kInterleaves[] = {1, 2, 8, 16};

TEST(MassTreeBatchTest, MatchesGetAcrossInterleaves) {
  masstree::MassTree t;
  constexpr uint64_t kN = 1500;
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < kN; ++i) {
    keys.push_back(i % 3 == 0 ? DeepKey(i) : Key(i));
    ASSERT_TRUE(t.Put(keys.back(), Val(i)).ok());
  }
  // Probe set: every present key plus interspersed misses.
  std::vector<std::string> probes;
  for (uint64_t i = 0; i < kN; ++i) {
    probes.push_back(keys[i]);
    if (i % 5 == 0) probes.push_back(Key(kN + i));           // absent
    if (i % 7 == 0) probes.push_back(DeepKey(kN + i));       // absent, deep
  }
  std::vector<std::string> values(probes.size());
  std::vector<Status> statuses(probes.size());
  std::vector<masstree::MassTree::LookupOp> ops(probes.size());
  for (size_t interleave : kInterleaves) {
    for (size_t i = 0; i < probes.size(); ++i) {
      values[i].clear();
      ops[i] = {Slice(probes[i]), &values[i], &statuses[i]};
    }
    t.LookupBatch(ops.data(), ops.size(), interleave);
    for (size_t i = 0; i < probes.size(); ++i) {
      auto ref = t.Get(probes[i]);
      ASSERT_EQ(statuses[i].ok(), ref.ok())
          << "interleave=" << interleave << " key=" << probes[i];
      if (ref.ok()) {
        ASSERT_EQ(values[i], *ref) << "interleave=" << interleave;
      } else {
        ASSERT_TRUE(statuses[i].IsNotFound());
      }
    }
  }
}

TEST(MassTreeBatchTest, BatchedLookupsRaceBorderSplits) {
  masstree::MassTree t;
  // Stable set the readers check; the writer then grows the tree past
  // many border/interior splits (and sublayer creation) underneath them.
  constexpr uint64_t kStable = 400;
  std::vector<std::string> stable;
  for (uint64_t i = 0; i < kStable; ++i) {
    stable.push_back(i % 2 == 0 ? Key(i) : DeepKey(i));
    ASSERT_TRUE(t.Put(stable.back(), Val(i)).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = kStable;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)t.Put(i % 2 == 0 ? Key(i) : DeepKey(i), Val(i));
      ++i;
    }
  });
  std::vector<std::string> values(stable.size());
  std::vector<Status> statuses(stable.size());
  std::vector<masstree::MassTree::LookupOp> ops(stable.size());
  for (int round = 0; round < 60; ++round) {
    const size_t interleave = kInterleaves[round % 4];
    for (size_t i = 0; i < stable.size(); ++i) {
      ops[i] = {Slice(stable[i]), &values[i], &statuses[i]};
    }
    t.LookupBatch(ops.data(), ops.size(), interleave);
    for (size_t i = 0; i < stable.size(); ++i) {
      ASSERT_TRUE(statuses[i].ok())
          << "round=" << round << " key=" << stable[i] << " "
          << statuses[i].ToString();
      ASSERT_EQ(values[i], Val(i));
    }
  }
  stop.store(true);
  writer.join();
}

// A Bw-tree over its own simulated device and log store.
struct TestTree {
  TestTree(uint64_t max_page_bytes, uint32_t consolidate_threshold) {
    storage::SsdOptions dev;
    dev.capacity_bytes = 256ull << 20;
    dev.max_iops = 0;
    device = std::make_unique<storage::SsdDevice>(dev);
    log = std::make_unique<llama::LogStructuredStore>(device.get());
    bwtree::BwTreeOptions opts;
    opts.max_page_bytes = max_page_bytes;
    opts.consolidate_threshold = consolidate_threshold;
    opts.max_inner_children = 8;
    opts.log_store = log.get();
    tree = std::make_unique<bwtree::BwTree>(opts);
  }

  std::unique_ptr<storage::SsdDevice> device;
  std::unique_ptr<llama::LogStructuredStore> log;
  std::unique_ptr<bwtree::BwTree> tree;
};

class BwTreeBatchTest : public ::testing::Test {
 protected:
  void SetUpStore(uint64_t max_page_bytes = 1024,
                  uint32_t consolidate_threshold = 4) {
    store_ = std::make_unique<TestTree>(max_page_bytes, consolidate_threshold);
    tree_ = store_->tree.get();
  }

  std::unique_ptr<TestTree> store_;
  bwtree::BwTree* tree_ = nullptr;
};

// One fixed op sequence that leaves every leaf shape a read can meet:
// plain base pages, insert/delete delta chains, fully evicted leaves,
// record-cache leaves (deltas kept over an evicted base), leaves demoted
// to the compressed tier, and blind deltas over evicted and demoted
// bases.
void BuildMixedLeaves(bwtree::BwTree* tree, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree->Put(Key(i), Val(i)).ok());
  }
  for (uint64_t i = 0; i < n; i += 3) {  // overwrite deltas
    ASSERT_TRUE(tree->Put(Key(i), Val(i * 1000)).ok());
  }
  for (uint64_t i = 1; i < n; i += 9) {  // delete deltas
    ASSERT_TRUE(tree->Delete(Key(i)).ok());
  }
  const std::vector<bwtree::PageId> leaves = tree->LeafPageIds();
  for (size_t j = 0; j < leaves.size(); ++j) {
    if (j % 4 == 1) {
      ASSERT_TRUE(
          tree->EvictPage(leaves[j], bwtree::EvictMode::kFullEviction).ok());
    } else if (j % 4 == 2) {
      ASSERT_TRUE(
          tree->EvictPage(leaves[j], bwtree::EvictMode::kKeepDeltas).ok());
    } else if (j % 4 == 3) {
      ASSERT_TRUE(tree->DemotePage(leaves[j], bwtree::CssPolicy{}).ok());
    }
  }
  for (uint64_t i = 2; i < n; i += 7) {  // blind deltas
    ASSERT_TRUE(tree->Put(Key(i), Val(i + 7)).ok());
  }
}

// Keys 0..n-1 ordered round-robin over the leaves holding them, one key
// per leaf per round, for as many rounds as every leaf can fill. Probes
// closer together than the leaf count then never share a page: two lanes
// of one interleave group meeting on a record-cache page could see it
// before and after the other lane's load — the same answer, but counted
// differently from back-to-back Gets.
std::vector<std::string> RoundRobinByLeaf(bwtree::BwTree* tree, uint64_t n) {
  std::map<bwtree::PageId, std::vector<std::string>> by_leaf;
  for (uint64_t i = 0; i < n; ++i) {
    by_leaf[*tree->LeafOf(Key(i))].push_back(Key(i));
  }
  size_t rounds = n;
  for (const auto& [pid, keys] : by_leaf) {
    rounds = std::min(rounds, keys.size());
  }
  std::vector<std::string> order;
  for (size_t r = 0; r < rounds; ++r) {
    for (const auto& [pid, keys] : by_leaf) order.push_back(keys[r]);
  }
  EXPECT_GE(by_leaf.size(), kInterleaves[3]);
  return order;
}

// Two trees from one op sequence: one answers `probes` through Get, the
// other through MultiGetBatch. Statuses and values must match; with
// `compare_counters`, so must the per-read counter deltas. Returns the
// batched tree's deltas of ss_ops, record_cache_hits, page_loads and
// css_hits.
bwtree::BwTreeStats ProbeBothPaths(const std::vector<std::string>& probes,
                                   uint64_t n, size_t interleave,
                                   bool compare_counters) {
  // The high consolidation threshold keeps delta chains alive.
  TestTree single(/*max_page_bytes=*/1024, /*consolidate_threshold=*/12);
  TestTree batched(/*max_page_bytes=*/1024, /*consolidate_threshold=*/12);
  BuildMixedLeaves(single.tree.get(), n);
  BuildMixedLeaves(batched.tree.get(), n);
  bwtree::BwTreeStats delta;
  if (::testing::Test::HasFatalFailure()) return delta;
  const bwtree::BwTreeStats s0 = single.tree->stats();
  const bwtree::BwTreeStats b0 = batched.tree->stats();

  std::vector<std::string> values(probes.size());
  std::vector<Status> statuses(probes.size());
  std::vector<bwtree::BwTree::BatchGetOp> ops(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ops[i] = {Slice(probes[i]), &values[i], &statuses[i]};
  }
  batched.tree->MultiGetBatch(ops.data(), ops.size(), interleave);
  for (size_t i = 0; i < probes.size(); ++i) {
    std::string value;
    const Status s = single.tree->Get(probes[i], &value);
    EXPECT_EQ(statuses[i].code(), s.code()) << probes[i];
    if (s.ok()) {
      EXPECT_EQ(values[i], value) << probes[i];
    }
  }

  const bwtree::BwTreeStats s1 = single.tree->stats();
  const bwtree::BwTreeStats b1 = batched.tree->stats();
  if (compare_counters) {
    EXPECT_EQ(b1.gets - b0.gets, s1.gets - s0.gets);
    EXPECT_EQ(b1.mm_ops - b0.mm_ops, s1.mm_ops - s0.mm_ops);
    EXPECT_EQ(b1.ss_ops - b0.ss_ops, s1.ss_ops - s0.ss_ops);
    EXPECT_EQ(b1.record_cache_hits - b0.record_cache_hits,
              s1.record_cache_hits - s0.record_cache_hits);
    EXPECT_EQ(b1.page_loads - b0.page_loads, s1.page_loads - s0.page_loads);
    EXPECT_EQ(b1.css_hits - b0.css_hits, s1.css_hits - s0.css_hits);
  }
  delta.ss_ops = b1.ss_ops - b0.ss_ops;
  delta.record_cache_hits = b1.record_cache_hits - b0.record_cache_hits;
  delta.page_loads = b1.page_loads - b0.page_loads;
  delta.css_hits = b1.css_hits - b0.css_hits;
  return delta;
}

TEST_F(BwTreeBatchTest, MatchesGetOverDeltaChainsAndBasePages) {
  constexpr uint64_t kN = 2000;
  for (size_t interleave : kInterleaves) {
    SCOPED_TRACE("interleave=" + std::to_string(interleave));
    // Answers, in key order: lanes of one group share leaves over delta
    // chains, record-cache and demoted pages; includes deleted keys and
    // 50 keys past the end (absent).
    std::vector<std::string> keyed;
    for (uint64_t i = 0; i < kN + 50; ++i) keyed.push_back(Key(i));
    bwtree::BwTreeStats d =
        ProbeBothPaths(keyed, kN, interleave, /*compare_counters=*/false);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(d.ss_ops, 0u);
    EXPECT_GT(d.record_cache_hits, 0u);
    EXPECT_GT(d.css_hits, 0u);

    // Answers and per-read counters, one lane per leaf in each group.
    std::vector<std::string> spread;
    {
      TestTree shape(/*max_page_bytes=*/1024, /*consolidate_threshold=*/12);
      BuildMixedLeaves(shape.tree.get(), kN);
      ASSERT_FALSE(HasFatalFailure());
      spread = RoundRobinByLeaf(shape.tree.get(), kN);
    }
    d = ProbeBothPaths(spread, kN, interleave, /*compare_counters=*/true);
    ASSERT_FALSE(HasFailure());
    // Every leaf shape was actually read.
    EXPECT_GT(d.ss_ops, 0u);
    EXPECT_GT(d.record_cache_hits, 0u);
    EXPECT_GT(d.css_hits, 0u);
    EXPECT_GT(d.page_loads, d.css_hits);
  }
}

TEST_F(BwTreeBatchTest, BatchedReadsRaceSplitsAndConsolidations) {
  // Small pages + low threshold: the writer's stream of puts drives
  // splits, parent posts, and consolidations while batches are in
  // flight with several probes interleaved.
  SetUpStore(/*max_page_bytes=*/512, /*consolidate_threshold=*/4);
  constexpr uint64_t kStable = 300;
  std::vector<std::string> stable;
  for (uint64_t i = 0; i < kStable; ++i) {
    stable.push_back(Key(i * 2));  // gaps leave room for writer inserts
    ASSERT_TRUE(tree_->Put(stable.back(), Val(i)).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t next = kStable * 2;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tree_->Put(Key(next | 1), Val(next));  // odd keys only
      if (next % 4 == 0) (void)tree_->Delete(Key((next - 8) | 1));
      ++next;
    }
  });
  std::vector<std::string> values(stable.size());
  std::vector<Status> statuses(stable.size());
  std::vector<bwtree::BwTree::BatchGetOp> ops(stable.size());
  for (int round = 0; round < 60; ++round) {
    const size_t interleave = kInterleaves[round % 4];
    for (size_t i = 0; i < stable.size(); ++i) {
      ops[i] = {Slice(stable[i]), &values[i], &statuses[i]};
    }
    tree_->MultiGetBatch(ops.data(), ops.size(), interleave);
    for (size_t i = 0; i < stable.size(); ++i) {
      ASSERT_TRUE(statuses[i].ok())
          << "round=" << round << " key=" << stable[i] << " "
          << statuses[i].ToString();
      ASSERT_EQ(values[i], Val(i));
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(tree_->stats().leaf_splits, 0u);
}

TEST(CachingStoreBatchTest, BatchLoadsFlashResidentPages) {
  // Evicted pages force the batch machine down its synchronous flash
  // load + restart edge; every key must still come back.
  core::CachingStoreOptions opts;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.tree.max_page_bytes = 1024;
  opts.maintenance_interval_ops = 0;
  core::CachingStore store(opts);
  constexpr uint64_t kN = 400;
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < kN; ++i) {
    keys.push_back(Key(i));
    ASSERT_TRUE(store.Put(keys.back(), Val(i)).ok());
  }
  ASSERT_TRUE(store.EvictAll().ok());

  core::BatchReadResult result;
  ASSERT_TRUE(store.MultiGet(keys, &result).ok());
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(result.statuses[i].ok()) << keys[i];
    ASSERT_EQ(result.values[i], Val(i));
  }
  EXPECT_GT(store.Stats().misses, 0u) << "eviction should have forced SS ops";
}

}  // namespace
}  // namespace costperf
