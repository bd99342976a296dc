#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "bwtree/bwtree.h"
#include "common/random.h"

#include <atomic>
#include <thread>

namespace costperf::bwtree {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", (unsigned long long)i);
  return buf;
}
std::string Val(uint64_t i) { return "value-" + std::to_string(i); }

class BwTreeMergeTest : public ::testing::Test {
 protected:
  void SetUpStore(uint64_t max_page_bytes = 1024) {
    storage::SsdOptions dev;
    dev.capacity_bytes = 128ull << 20;
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

  // Deletes a key range to leave pages underfull.
  void DeleteRange(uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; ++i) {
      ASSERT_TRUE(tree_->Delete(Key(i)).ok());
    }
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<BwTree> tree_;
};

TEST_F(BwTreeMergeTest, ExplicitMergePreservesData) {
  SetUpStore(4096);
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  // Force a split so there are at least two leaves.
  SetUpStore(512);
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_GE(pids.size(), 2u);
  // Delete most records so the first pair fits in one page.
  DeleteRange(5, 55);
  size_t merges = tree_->MergeUnderfullLeaves(0.9);
  EXPECT_GT(merges, 0u);
  EXPECT_GT(tree_->stats().leaf_merges, 0u);
  // Every surviving record is intact.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*tree_->Get(Key(i)), Val(i));
  for (int i = 55; i < 60; ++i) EXPECT_EQ(*tree_->Get(Key(i)), Val(i));
  for (int i = 5; i < 55; ++i) {
    EXPECT_TRUE(tree_->Get(Key(i)).status().IsNotFound()) << i;
  }
  EXPECT_LT(tree_->LeafPageIds().size(), pids.size());
}

TEST_F(BwTreeMergeTest, MergeShrinksLeafCountAfterMassDelete) {
  SetUpStore(512);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  }
  size_t leaves_before = tree_->LeafPageIds().size();
  ASSERT_GT(leaves_before, 10u);
  DeleteRange(100, 1000);
  size_t merges = tree_->MergeUnderfullLeaves();
  EXPECT_GT(merges, 5u);
  size_t leaves_after = tree_->LeafPageIds().size();
  EXPECT_LT(leaves_after, leaves_before / 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*tree_->Get(Key(i)), Val(i)) << i;
  }
  // Scans traverse the merged structure in order.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan("", 2000, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i].first, Key(i));
}

TEST_F(BwTreeMergeTest, RootCollapsesWhenTreeEmpties) {
  SetUpStore(512);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  ASSERT_GT(tree_->stats().root_splits, 0u);
  DeleteRange(0, 499);  // keep one record
  for (int round = 0; round < 20; ++round) {
    if (tree_->MergeUnderfullLeaves() == 0) break;
  }
  EXPECT_GT(tree_->stats().root_collapses, 0u);
  EXPECT_EQ(*tree_->Get(Key(499)), Val(499));
  EXPECT_EQ(tree_->LeafPageIds().size(), 1u);
}

TEST_F(BwTreeMergeTest, WritesDuringMergedStateLandCorrectly) {
  SetUpStore(512);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  DeleteRange(20, 190);
  ASSERT_GT(tree_->MergeUnderfullLeaves(), 0u);
  // Write into the absorbed key ranges.
  for (int i = 50; i < 60; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "post-merge").ok());
  }
  for (int i = 50; i < 60; ++i) {
    EXPECT_EQ(*tree_->Get(Key(i)), "post-merge");
  }
  EXPECT_EQ(*tree_->Get(Key(5)), Val(5));
  EXPECT_EQ(*tree_->Get(Key(195)), Val(195));
}

TEST_F(BwTreeMergeTest, MergedPagesFlushEvictReload) {
  SetUpStore(512);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  DeleteRange(30, 270);
  ASSERT_GT(tree_->MergeUnderfullLeaves(), 0u);
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (auto pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
  }
  for (int i = 0; i < 30; ++i) EXPECT_EQ(*tree_->Get(Key(i)), Val(i));
  for (int i = 270; i < 300; ++i) EXPECT_EQ(*tree_->Get(Key(i)), Val(i));
}

TEST_F(BwTreeMergeTest, MergeRefusedWhenCombinedTooBig) {
  SetUpStore(512);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_GE(pids.size(), 2u);
  // Full pages: combined payload exceeds the page cap.
  Status s = tree_->TryMergeRight(pids[0]);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(BwTreeMergeTest, SplitThenMergeThenSplitCycle) {
  SetUpStore(512);
  std::map<std::string, std::string> model;
  Random rng(1213);
  for (int cycle = 0; cycle < 4; ++cycle) {
    // Grow.
    for (int i = 0; i < 400; ++i) {
      uint64_t k = rng.Uniform(600);
      ASSERT_TRUE(tree_->Put(Key(k), Val(cycle)).ok());
      model[Key(k)] = Val(cycle);
    }
    // Shrink.
    for (int i = 0; i < 300; ++i) {
      uint64_t k = rng.Uniform(600);
      ASSERT_TRUE(tree_->Delete(Key(k)).ok());
      model.erase(Key(k));
    }
    tree_->MergeUnderfullLeaves();
    tree_->ReclaimMemory();
    // Spot check.
    for (int i = 0; i < 100; ++i) {
      std::string key = Key(rng.Uniform(600));
      auto r = tree_->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(r.status().IsNotFound()) << key << " cycle " << cycle;
      } else {
        ASSERT_TRUE(r.ok()) << key << " cycle " << cycle;
        ASSERT_EQ(*r, it->second);
      }
    }
  }
  // Full verification with a scan.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan("", model.size() + 10, &out).ok());
  ASSERT_EQ(out.size(), model.size());
  auto mit = model.begin();
  for (size_t i = 0; i < out.size(); ++i, ++mit) {
    EXPECT_EQ(out[i].first, mit->first);
    EXPECT_EQ(out[i].second, mit->second);
  }
}

TEST_F(BwTreeMergeTest, ConcurrentReadsDuringMerges) {
  SetUpStore(512);
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(tree_->Put(Key(i), Val(i)).ok());
  DeleteRange(50, 550);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::thread reader([&] {
    Random rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t k = rng.Uniform(50);  // surviving low range
      auto r = tree_->Get(Key(k));
      if (!r.ok() || *r != Val(k)) errors++;
    }
  });
  for (int round = 0; round < 10; ++round) {
    tree_->MergeUnderfullLeaves();
    tree_->ReclaimMemory();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(errors.load(), 0u);
}

}  // namespace
}  // namespace costperf::bwtree
