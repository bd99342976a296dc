#include <gtest/gtest.h>

#include <memory>

#include "bwtree/bwtree.h"
#include "common/random.h"
#include "core/caching_store.h"

namespace costperf::bwtree {
namespace {

// Compressible record payloads (structured text, as cold data tends to
// be).
std::string StructuredValue(int i) {
  char buf[96];
  snprintf(buf, sizeof(buf), "name=customer_%04d|city=city_%03d|tier=gold|",
           i % 1000, i % 250);
  return buf;
}

class CssTreeTest : public ::testing::Test {
 protected:
  CssTreeTest() {
    storage::SsdOptions dev;
    dev.capacity_bytes = 128ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    log_ = std::make_unique<llama::LogStructuredStore>(device_.get());
    BwTreeOptions opts;
    opts.log_store = log_.get();
    opts.max_page_bytes = 64 << 10;
    tree_ = std::make_unique<BwTree>(opts);
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<BwTree> tree_;
};

TEST_F(CssTreeTest, CompressedFlushEvictReloadRoundTrip) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  // Demotion is the compressed flush and the eviction in one step.
  DemoteResult res;
  ASSERT_TRUE(tree_->DemotePage(pids[0], CssPolicy{}, &res).ok());
  EXPECT_TRUE(res.demoted);
  EXPECT_EQ(tree_->stats().css_demotions, 1u);
  EXPECT_FALSE(tree_->IsLeafResident(pids[0]));

  for (int i = 0; i < 100; ++i) {
    auto r = tree_->Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
  EXPECT_EQ(tree_->stats().css_hits, 1u);
}

TEST_F(CssTreeTest, CompressedImageSmallerOnMedia) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);

  uint64_t before = log_->stats().payload_bytes_appended;
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kFullPage).ok());
  uint64_t full_bytes = log_->stats().payload_bytes_appended - before;

  // Same page content, now demoted to a compressed record.
  ASSERT_TRUE(tree_->Put("key5", StructuredValue(5)).ok());
  before = log_->stats().payload_bytes_appended;
  DemoteResult res;
  ASSERT_TRUE(tree_->DemotePage(pids[0], CssPolicy{}, &res).ok());
  ASSERT_TRUE(res.demoted);
  uint64_t css_bytes = log_->stats().payload_bytes_appended - before;
  EXPECT_EQ(css_bytes, res.stored_bytes);

  EXPECT_LT(css_bytes, full_bytes / 2)
      << "CSS image should be much smaller than the raw page";
}

TEST_F(CssTreeTest, DeltaChainOverCompressedBase) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  DemoteResult res;
  ASSERT_TRUE(tree_->DemotePage(pids[0], CssPolicy{}, &res).ok());
  ASSERT_TRUE(res.demoted);
  // Blind update + delta flush on top of the compressed base.
  ASSERT_TRUE(tree_->Put("key3", "updated").ok());
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kDeltaOnly).ok());
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());

  EXPECT_EQ(*tree_->Get("key3"), "updated");
  EXPECT_EQ(*tree_->Get("key4"), StructuredValue(4));
}

TEST_F(CssTreeTest, RecoveryOfCompressedPages) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  for (auto pid : tree_->LeafPageIds()) {
    DemoteResult res;
    ASSERT_TRUE(tree_->DemotePage(pid, CssPolicy{}, &res).ok());
    ASSERT_TRUE(res.demoted);
  }
  ASSERT_TRUE(log_->Flush().ok());

  BwTreeOptions opts;
  opts.log_store = log_.get();
  // A second tree over the same log store (its directory is shared state
  // on the device; recovery rescans it).
  llama::LogStructuredStore log2(device_.get());
  opts.log_store = &log2;
  BwTree recovered(opts);
  ASSERT_TRUE(recovered.RecoverFromStore().ok());
  for (int i = 0; i < 300; i += 7) {
    auto r = recovered.Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
}

TEST(CssStoreTest, TieringPolicySendsColdestPagesToCss) {
  VirtualClock clock(1);
  core::CachingStoreOptions opts;
  opts.clock = &clock;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.eviction_policy = llama::EvictionPolicy::kCostBased;
  opts.breakeven_interval_seconds = 45.0;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.tier.demote_idle_seconds = 200.0;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  core::CachingStore store(opts);

  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  ASSERT_TRUE(store.Checkpoint().ok());

  // Phase 1: 60s idle -> pages pass the MM/SS breakeven and are evicted
  // uncompressed (idle < the demotion floor).
  clock.AdvanceSeconds(60);
  store.Maintain();
  EXPECT_EQ(store.Stats().tier_demotions, 0u);
  EXPECT_EQ(store.tree()->resident_leaves(), 0u);

  // Touch everything back in, then let it go stone cold.
  for (int i = 0; i < 3000; i += 10) {
    ASSERT_TRUE(store.Get("k" + std::to_string(i)).ok());
  }
  clock.AdvanceSeconds(300);  // beyond the demotion floor
  store.Maintain();
  const auto after_demote = store.Stats();
  EXPECT_GT(after_demote.tier_demotions, 0u)
      << "stone-cold pages must demote to the compressed tier";
  EXPECT_GT(after_demote.tier_css_pages, 0u);
  EXPECT_GT(after_demote.tier_css_bytes, 0u);
  EXPECT_LT(after_demote.MeasuredCompressionRatio(), 0.7)
      << "structured payloads must actually shrink";
  EXPECT_GT(after_demote.MeasuredCssBreakevenOps(), 0.0)
      << "demotions must feed the measured Fig. 8 breakeven";
  EXPECT_GT(after_demote.MeasuredTiSeconds(), 0.0);

  // Data still correct through the compressed tier, and reading it IS
  // the promotion path: the load decompresses and flips the entry back
  // to DRAM.
  for (int i = 0; i < 3000; i += 97) {
    auto r = store.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
  const auto after_reads = store.Stats();
  EXPECT_GT(after_reads.tier_css_hits, 0u)
      << "reads of demoted pages must be served from compressed records";
  EXPECT_GT(after_reads.tier_promotions, 0u)
      << "a touched CSS page must promote back to DRAM";
  EXPECT_LT(after_reads.tier_css_pages, after_demote.tier_css_pages);
}

TEST(CssStoreTest, ReheatLimitRefusesThrashingPages) {
  VirtualClock clock(1);
  core::CachingStoreOptions opts;
  opts.clock = &clock;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.eviction_policy = llama::EvictionPolicy::kCostBased;
  opts.breakeven_interval_seconds = 45.0;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.tier.demote_idle_seconds = 50.0;
  opts.tier.max_reheats = 1;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  core::CachingStore store(opts);

  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  ASSERT_TRUE(store.Checkpoint().ok());

  // Demote -> touch (promote) cycles past the reheat limit: the policy
  // must eventually refuse to demote pages that keep coming back.
  for (int round = 0; round < 4; ++round) {
    clock.AdvanceSeconds(100);
    store.Maintain();
    for (int i = 0; i < 1500; i += 10) {
      ASSERT_TRUE(store.Get("k" + std::to_string(i)).ok());
    }
  }
  const auto s = store.Stats();
  EXPECT_GT(s.tier_demotions, 0u);
  EXPECT_GT(s.tier_promotions, 0u);
  EXPECT_GT(s.tier_demotion_refusals, 0u)
      << "pages reheated past max_reheats must be refused CSS";
}

}  // namespace
}  // namespace costperf::bwtree
