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

// One full eviction, with the raw and stored bytes it counted as a
// demotion (0 when it was none).
struct Eviction {
  EvictResult res;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
};

Eviction Evict(BwTree* tree, PageId pid) {
  const BwTreeStats before = tree->stats();
  Eviction e;
  EXPECT_TRUE(tree->EvictPage(pid, &e.res).ok());
  const BwTreeStats after = tree->stats();
  e.raw_bytes = after.css_raw_bytes_demoted - before.css_raw_bytes_demoted;
  e.stored_bytes =
      after.css_stored_bytes_demoted - before.css_stored_bytes_demoted;
  return e;
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
    opts.css_min_ratio = kMinRatio;
    tree_ = std::make_unique<BwTree>(opts);
  }

  static constexpr double kMinRatio = 0.85;

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
  // The page is dirty: its eviction flushes it compressed and swings the
  // mapping entry onto that record, a demotion.
  const Eviction e = Evict(tree_.get(), pids[0]);
  EXPECT_TRUE(e.res.demoted);
  EXPECT_TRUE(e.res.wrote);
  EXPECT_EQ(tree_->stats().css_demotions, 1u);
  EXPECT_EQ(tree_->stats().compressed_flushes, 1u);
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

  // A flush on a tiered tree writes the image compressed.
  uint64_t before = log_->stats().payload_bytes_appended;
  ASSERT_TRUE(tree_->FlushPage(pids[0]).ok());
  const uint64_t flushed_bytes = log_->stats().payload_bytes_appended - before;
  EXPECT_EQ(log_->stats().css_records_appended, 1u);

  // Same page content, dirtied and evicted: the demotion's flush appends
  // the page's stored bytes, far fewer than its raw image.
  ASSERT_TRUE(tree_->Put("key5", StructuredValue(5)).ok());
  before = log_->stats().payload_bytes_appended;
  const Eviction e = Evict(tree_.get(), pids[0]);
  ASSERT_TRUE(e.res.demoted);
  const uint64_t css_bytes = log_->stats().payload_bytes_appended - before;
  EXPECT_EQ(css_bytes, e.stored_bytes);
  EXPECT_EQ(css_bytes, flushed_bytes);
  EXPECT_LT(css_bytes, e.raw_bytes / 2)
      << "CSS image should be much smaller than the raw page";
}

TEST_F(CssTreeTest, DeltaChainOverCompressedBase) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  ASSERT_TRUE(Evict(tree_.get(), pids[0]).res.demoted);
  // A blind update over the compressed base answers without loading it.
  ASSERT_TRUE(tree_->Put("key3", "updated").ok());
  const uint64_t reads_before = tree_->stats().flash_record_reads;
  EXPECT_EQ(*tree_->Get("key3"), "updated");
  EXPECT_EQ(tree_->stats().flash_record_reads, reads_before);
  // Its eviction flushes first: the flush loads the base, merges the
  // delta and writes one new compressed record, which the page demotes
  // onto.
  const Eviction e = Evict(tree_.get(), pids[0]);
  EXPECT_TRUE(e.res.wrote);
  EXPECT_TRUE(e.res.demoted);
  EXPECT_FALSE(tree_->IsLeafResident(pids[0]));

  EXPECT_EQ(*tree_->Get("key3"), "updated");
  EXPECT_EQ(*tree_->Get("key4"), StructuredValue(4));
}

TEST_F(CssTreeTest, RecoveryOfCompressedPages) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  for (auto pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(Evict(tree_.get(), pid).res.demoted);
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

// A store with the CSS tier on whose maintenance never runs by itself:
// each test below drives its demotions and GC rounds directly. One leaf
// holds every key.
core::CachingStoreOptions ManualTierOptions() {
  core::CachingStoreOptions opts;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.tree.max_page_bytes = 64 << 10;
  return opts;
}

constexpr int kLeafKeys = 100;

PageId FillOneLeaf(core::CachingStore* store) {
  for (int i = 0; i < kLeafKeys; ++i) {
    EXPECT_TRUE(
        store->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = store->tree()->LeafPageIds();
  EXPECT_EQ(pids.size(), 1u);
  return pids[0];
}

// A page's tier is its record's form (DESIGN.md §3.7). It is in CSS when
// its mapping word is the flash address of its own compressed record and
// the cache does not track it.
bool InCss(core::CachingStore* store, PageId pid) {
  const uint64_t word = store->tree()->mapping_table()->Get(pid);
  if (!IsFlashWord(word) || store->cache()->Contains(pid)) return false;
  std::string image;
  PageId owner = mapping::kInvalidPageId;
  bool compressed = false;
  return store->log_store()
             ->Read(DecodeFlash(word), &image, &owner, &compressed)
             .ok() &&
         owner == pid && compressed;
}

// In DRAM: the word is a memory pointer and the cache tracks the page.
bool InDram(core::CachingStore* store, PageId pid) {
  return store->tree()->IsLeafResident(pid) && store->cache()->Contains(pid);
}

// Reads every key; `updated` names one key written since the fill.
void ExpectReads(core::CachingStore* store, int updated = -1) {
  for (int i = 0; i < kLeafKeys; ++i) {
    auto r = store->Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, i == updated ? "updated" : StructuredValue(i)) << i;
  }
}

TEST(CssStoreTest, CleanPromotedPageDemotesBySwing) {
  core::CachingStore store(ManualTierOptions());
  BwTree* tree = store.tree();
  llama::LogStructuredStore* log = store.log_store();
  const PageId pid = FillOneLeaf(&store);

  // The page has never been written: its first eviction flushes it
  // compressed — the one compression the page pays — and swings onto the
  // record, a demotion.
  const llama::LogStoreStats fresh = log->stats();
  const Eviction first = Evict(tree, pid);
  ASSERT_TRUE(first.res.demoted);
  EXPECT_TRUE(first.res.wrote);
  EXPECT_EQ(log->stats().css_records_appended,
            fresh.css_records_appended + 1);
  const FlashAddress record = tree->DebugPageInfo(pid).record;
  ASSERT_TRUE(record.valid());
  EXPECT_EQ(first.stored_bytes, record.len() -
                                    llama::LogStructuredStore::kHeaderBytes);
  EXPECT_EQ(tree->mapping_table()->Get(pid),
            EncodeFlash(record));
  EXPECT_TRUE(InCss(&store, pid));

  // A Get promotes the page; nobody writes it.
  ExpectReads(&store);
  EXPECT_TRUE(InDram(&store, pid));
  EXPECT_EQ(store.Stats().tier_promotions, 1u);

  // Evicting it again swings the word back onto its compressed record.
  const llama::LogStoreStats before = log->stats();
  const Eviction swing = Evict(tree, pid);
  EXPECT_TRUE(swing.res.demoted);
  EXPECT_FALSE(swing.res.wrote);
  EXPECT_EQ(swing.raw_bytes, first.raw_bytes);
  EXPECT_EQ(swing.stored_bytes, first.stored_bytes);
  EXPECT_EQ(log->stats().records_appended, before.records_appended);
  EXPECT_EQ(log->stats().dead_bytes_marked, before.dead_bytes_marked);
  EXPECT_EQ(tree->DebugPageInfo(pid).record, record);
  EXPECT_EQ(tree->mapping_table()->Get(pid),
            EncodeFlash(record));
  EXPECT_TRUE(InCss(&store, pid));
  const core::KvStoreStats stats = store.Stats();
  EXPECT_EQ(stats.tier_demotions, 2u);
  EXPECT_EQ(stats.tier_clean_demotions, 1u);
  // Both demotions count the page's bytes, so the measured ratio and
  // page size keep their meaning.
  EXPECT_EQ(stats.css_raw_bytes, 2 * first.raw_bytes);
  EXPECT_EQ(stats.css_stored_bytes, 2 * first.stored_bytes);
  ExpectReads(&store);
  EXPECT_TRUE(store.CheckInvariants().empty());

  // A write after the promotion makes the next eviction flush first: one
  // new compressed record, the old one dead, and the word swung onto the
  // new one.
  ASSERT_TRUE(store.Put("key3", "updated").ok());
  const llama::LogStoreStats dirty_before = log->stats();
  const Eviction dirty = Evict(tree, pid);
  EXPECT_TRUE(dirty.res.demoted);
  EXPECT_TRUE(dirty.res.wrote);
  EXPECT_EQ(log->stats().records_appended, dirty_before.records_appended + 1);
  EXPECT_EQ(log->stats().css_records_appended,
            dirty_before.css_records_appended + 1);
  EXPECT_EQ(log->stats().dead_bytes_marked,
            dirty_before.dead_bytes_marked +
                record.len());
  const FlashAddress rewritten = tree->DebugPageInfo(pid).record;
  ASSERT_TRUE(rewritten.valid());
  EXPECT_NE(rewritten, record);
  EXPECT_EQ(tree->mapping_table()->Get(pid), EncodeFlash(rewritten));
  EXPECT_TRUE(InCss(&store, pid));
  EXPECT_EQ(store.Stats().tier_clean_demotions, 1u);
  ExpectReads(&store, 3);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, FlushesWriteCompressedAndTheNextDemotionIsASwing) {
  core::CachingStore store(ManualTierOptions());
  BwTree* tree = store.tree();
  llama::LogStructuredStore* log = store.log_store();
  const PageId pid = FillOneLeaf(&store);

  // A checkpoint flushes the dirty leaf compressed.
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(log->stats().css_records_appended, 1u);
  EXPECT_EQ(tree->stats().compressed_flushes, 1u);
  EXPECT_EQ(tree->stats().full_flushes, 1u);
  EXPECT_TRUE(tree->IsLeafResident(pid));

  // So does a housekeeping flush of a page written since.
  ASSERT_TRUE(store.Put("key3", "updated").ok());
  PageId cursor = 0;
  const BwTree::HousekeepingStats hk = tree->HousekeepingScan(&cursor, 64, 8);
  EXPECT_EQ(hk.flushed, 1u);
  EXPECT_EQ(log->stats().css_records_appended, 2u);
  EXPECT_EQ(tree->stats().compressed_flushes, 2u);

  // The eviction that follows appends nothing: it swings onto the
  // record the flush wrote, a demotion.
  const FlashAddress record = tree->DebugPageInfo(pid).record;
  ASSERT_TRUE(record.valid());
  const llama::LogStoreStats before = log->stats();
  const Eviction e = Evict(tree, pid);
  EXPECT_TRUE(e.res.demoted);
  EXPECT_FALSE(e.res.wrote);
  EXPECT_EQ(log->stats().records_appended, before.records_appended);
  EXPECT_EQ(log->stats().dead_bytes_marked, before.dead_bytes_marked);
  EXPECT_EQ(tree->mapping_table()->Get(pid),
            EncodeFlash(record));
  EXPECT_TRUE(InCss(&store, pid));
  EXPECT_EQ(store.Stats().tier_clean_demotions, 1u);
  ExpectReads(&store, 3);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, StoreWithoutTierFlushesPlain) {
  core::CachingStoreOptions opts = ManualTierOptions();
  opts.tier.css_budget_bytes = 0;
  core::CachingStore store(opts);
  BwTree* tree = store.tree();
  const PageId pid = FillOneLeaf(&store);

  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(store.log_store()->stats().css_records_appended, 0u);
  EXPECT_EQ(tree->stats().compressed_flushes, 0u);
  EXPECT_EQ(tree->stats().full_flushes, 1u);
  // Its page is on a plain record, so its eviction sends it to SS. A
  // store without the tier counts no refusal.
  const Eviction e = Evict(tree, pid);
  EXPECT_FALSE(e.res.demoted);
  EXPECT_FALSE(e.res.wrote);
  EXPECT_TRUE(IsFlashWord(tree->mapping_table()->Get(pid)));
  EXPECT_FALSE(InCss(&store, pid));
  const core::KvStoreStats s = store.Stats();
  EXPECT_EQ(s.tier_demotions, 0u);
  EXPECT_EQ(s.tier_demotion_refusals, 0u);
  EXPECT_EQ(s.tier_css_bytes, 0u);
  ExpectReads(&store);
  EXPECT_EQ(store.Stats().tier_css_hits, 0u);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, PoorlyCompressingPageIsFlushedPlainRefusedAndEvictedPlain) {
  core::CachingStoreOptions opts = ManualTierOptions();
  // Any resident byte is over budget, so the next step evicts the leaf.
  opts.memory_budget_bytes = 1;
  core::CachingStore store(opts);
  BwTree* tree = store.tree();
  Random rng(7);
  std::vector<std::string> values;
  for (int i = 0; i < kLeafKeys; ++i) {
    std::string v(200, '\0');
    for (char& c : v) c = static_cast<char>(rng.Uniform(256));
    values.push_back(v);
    ASSERT_TRUE(store.Put("key" + std::to_string(i), v).ok());
  }
  const std::vector<PageId> pids = tree->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  const PageId pid = pids[0];

  // The victim's eviction flushes it, plain because it compresses worse
  // than min_ratio, and swings it onto that record: a refusal.
  store.Maintain();
  const core::KvStoreStats s = store.Stats();
  EXPECT_EQ(s.tier_demotions, 0u);
  EXPECT_EQ(s.tier_demotion_refusals, 1u);
  EXPECT_EQ(s.background_pages_evicted, 1u);
  EXPECT_EQ(store.log_store()->stats().css_records_appended, 0u);
  EXPECT_EQ(tree->stats().full_flushes, 1u);
  EXPECT_EQ(tree->stats().compressed_flushes, 0u);
  EXPECT_FALSE(tree->IsLeafResident(pid));
  EXPECT_FALSE(store.cache()->Contains(pid));
  EXPECT_TRUE(store.CheckInvariants().empty());
  for (int i = 0; i < kLeafKeys; ++i) {
    auto r = store.Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, values[i]) << i;
  }
  EXPECT_EQ(store.Stats().tier_css_hits, 0u);
}

TEST(CssStoreTest, RecoveredPageOnACompressedRecordDemotesBySwing) {
  core::CachingStoreOptions opts = ManualTierOptions();
  core::CachingStore store(opts);
  const PageId pid = FillOneLeaf(&store);
  const Eviction first = Evict(store.tree(), pid);
  ASSERT_TRUE(first.res.demoted);
  ASSERT_TRUE(store.Checkpoint().ok());

  opts.external_device = store.device();
  core::CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  ExpectReads(&reopened);
  ASSERT_TRUE(reopened.tree()->IsLeafResident(pid));

  // The recovered page knows its record is compressed: its eviction is a
  // demotion by swing, not a second compressed copy.
  const llama::LogStoreStats before = reopened.log_store()->stats();
  const Eviction again = Evict(reopened.tree(), pid);
  EXPECT_TRUE(again.res.demoted);
  EXPECT_FALSE(again.res.wrote);
  EXPECT_EQ(again.stored_bytes, first.stored_bytes);
  EXPECT_EQ(reopened.log_store()->stats().records_appended,
            before.records_appended);
  ExpectReads(&reopened);
  EXPECT_TRUE(reopened.CheckInvariants().empty());
}

// Demotes the one leaf, seals its compressed record's segment, promotes
// the page again and returns that record.
uint64_t DemoteSealAndPromote(core::CachingStore* store, PageId pid) {
  EXPECT_TRUE(Evict(store->tree(), pid).res.demoted);
  EXPECT_TRUE(store->log_store()->Flush().ok());
  ExpectReads(store);
  EXPECT_TRUE(store->tree()->IsLeafResident(pid));
  return store->tree()->DebugPageInfo(pid).record.packed();
}

uint64_t SegmentOf(core::CachingStore* store, uint64_t packed) {
  return FlashAddress::FromPacked(packed).offset() /
         store->log_store()->options().segment_bytes;
}

TEST(CssStoreTest, GcMovesAPromotedPagesCompressedRecordAsItIs) {
  core::CachingStore store(ManualTierOptions());
  BwTree* tree = store.tree();
  llama::LogStructuredStore* log = store.log_store();
  const PageId pid = FillOneLeaf(&store);
  const uint64_t record = DemoteSealAndPromote(&store, pid);

  const llama::LogStoreStats log_before = log->stats();
  const BwTreeStats tree_before = tree->stats();
  const uint64_t word_before = tree->mapping_table()->Get(pid);
  ASSERT_TRUE(store.RunGc(1.0).ok());
  for (const llama::SegmentInfo& seg : log->segments()) {
    EXPECT_NE(seg.id, SegmentOf(&store, record)) << "victim not collected";
  }

  // The page stays resident and clean, on a copy of the same compressed
  // record: relocated, not rewritten as a plain image. The install put a
  // copy of the base in the word, so a demotion or eviction that read
  // the old word cannot swing onto the collected record.
  EXPECT_TRUE(tree->IsLeafResident(pid));
  EXPECT_NE(tree->mapping_table()->Get(pid), word_before);
  const BwTree::PageDebugInfo info = tree->DebugPageInfo(pid);
  ASSERT_TRUE(info.record.valid());
  const uint64_t moved = info.record.packed();
  EXPECT_NE(moved, record);
  EXPECT_EQ(FlashAddress::FromPacked(moved).len(),
            FlashAddress::FromPacked(record).len());
  EXPECT_FALSE(info.base_dirty);
  EXPECT_EQ(log->stats().css_records_appended,
            log_before.css_records_appended + 1);
  EXPECT_EQ(tree->stats().full_flushes, tree_before.full_flushes);
  ExpectReads(&store);

  // A later eviction swings onto the moved record.
  const Eviction swing = Evict(tree, pid);
  EXPECT_TRUE(swing.res.demoted);
  EXPECT_FALSE(swing.res.wrote);
  EXPECT_EQ(tree->mapping_table()->Get(pid),
            EncodeFlash(FlashAddress::FromPacked(moved)));
  ExpectReads(&store);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, GcMovesTheRecordUnderAResidentPageWithDeltas) {
  core::CachingStoreOptions opts = ManualTierOptions();
  core::CachingStore store(opts);
  BwTree* tree = store.tree();
  llama::LogStructuredStore* log = store.log_store();
  const PageId pid = FillOneLeaf(&store);
  const uint64_t record = DemoteSealAndPromote(&store, pid);
  ASSERT_TRUE(store.Put("key3", "updated").ok());

  const llama::LogStoreStats log_before = log->stats();
  const BwTreeStats tree_before = tree->stats();
  ASSERT_TRUE(store.RunGc(1.0).ok());
  for (const llama::SegmentInfo& seg : log->segments()) {
    EXPECT_NE(seg.id, SegmentOf(&store, record)) << "victim not collected";
  }

  // The install folds the delta into a fresh base, which is newer than
  // the moved record and so dirty.
  const uint64_t word = tree->mapping_table()->Get(pid);
  ASSERT_FALSE(IsFlashWord(word));
  EXPECT_EQ(DecodePointer(word)->type, NodeType::kLeafBase);
  const BwTree::PageDebugInfo info = tree->DebugPageInfo(pid);
  ASSERT_TRUE(info.record.valid());
  EXPECT_NE(info.record.packed(), record);
  EXPECT_TRUE(info.base_dirty);
  EXPECT_EQ(log->stats().css_records_appended,
            log_before.css_records_appended + 1);
  EXPECT_EQ(tree->stats().full_flushes, tree_before.full_flushes);
  ExpectReads(&store, 3);
  EXPECT_TRUE(store.CheckInvariants().empty());

  // The dirty base reaches flash with the next checkpoint and survives a
  // restart.
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(tree->stats().full_flushes, tree_before.full_flushes + 1);
  opts.external_device = store.device();
  core::CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  ExpectReads(&reopened, 3);
  EXPECT_TRUE(reopened.CheckInvariants().empty());
}

// Listing the leaves of a store whose pages are all off DRAM reads no
// flash and loads nothing: an evicted page is followed by the sibling it
// had when it left.
TEST(CssStoreTest, LeafPageIdsOnAnEvictedStoreLoadsNothing) {
  core::CachingStoreOptions opts = ManualTierOptions();
  opts.tree.max_page_bytes = 2048;  // many leaves under an inner level
  core::CachingStore store(opts);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  const std::vector<PageId> leaves = store.tree()->LeafPageIds();
  ASSERT_GT(leaves.size(), 10u);
  ASSERT_TRUE(store.EvictAll().ok());
  ASSERT_EQ(store.tree()->resident_leaves(), 0u);

  struct Counts {
    uint64_t page_loads, css_hits, dram_bytes, device_reads;
    bool operator==(const Counts&) const = default;
  };
  const auto counts = [](core::CachingStore* s) {
    const core::KvStoreStats st = s->Stats();
    return Counts{s->tree()->stats().page_loads, st.tier_css_hits,
                  st.tier_dram_bytes, s->log_store()->stats().device_reads};
  };
  const Counts evicted = counts(&store);
  EXPECT_EQ(store.tree()->LeafPageIds(), leaves);
  EXPECT_TRUE(counts(&store) == evicted);
  EXPECT_EQ(store.tree()->resident_leaves(), 0u);

  // Recovery brings every page back on flash, with the sibling its
  // record names.
  core::CachingStoreOptions reopen_opts = opts;
  reopen_opts.external_device = store.device();
  core::CachingStore reopened(reopen_opts);
  ASSERT_TRUE(reopened.Recover().ok());
  const Counts recovered = counts(&reopened);
  EXPECT_EQ(reopened.tree()->LeafPageIds(), leaves);
  EXPECT_TRUE(counts(&reopened) == recovered);

  // A blind write puts a FlashPointer tail over one page, which keeps its
  // fences on flash; the walk still passes it without a load.
  ASSERT_TRUE(store.Put("k1000", "updated").ok());
  const Counts blind = counts(&store);
  EXPECT_EQ(store.tree()->LeafPageIds(), leaves);
  EXPECT_TRUE(counts(&store) == blind);
  EXPECT_EQ(*store.Get("k1000"), "updated");
  EXPECT_TRUE(store.CheckInvariants().empty());
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

  // Phase 1: 60s idle -> pages pass the MM/SS breakeven and are evicted.
  // Their records are compressed, so each eviction is a demotion, though
  // none is proactive: no page is idle past the demotion floor.
  clock.AdvanceSeconds(60);
  store.Maintain();
  EXPECT_EQ(store.tree()->resident_leaves(), 0u);
  const std::vector<PageId> pids = store.tree()->LeafPageIds();
  const size_t leaves = pids.size();
  EXPECT_EQ(store.tree()->resident_leaves(), 0u);
  EXPECT_EQ(store.Stats().tier_demotions, leaves);
  EXPECT_EQ(store.Stats().tier_proactive_demotions, 0u);

  // Touch everything back in, then let it go stone cold.
  for (int i = 0; i < 3000; i += 10) {
    ASSERT_TRUE(store.Get("k" + std::to_string(i)).ok());
  }
  clock.AdvanceSeconds(300);  // beyond the demotion floor
  store.Maintain();
  const auto after_demote = store.Stats();
  EXPECT_GT(after_demote.tier_demotions, leaves)
      << "stone-cold pages must demote to the compressed tier";
  // More stone-cold pages than one step's victims: the tiering pass
  // demotes the rest itself.
  EXPECT_GT(after_demote.tier_proactive_demotions, 0u);
  EXPECT_LT(after_demote.tier_proactive_demotions,
            after_demote.tier_demotions - leaves);
  for (PageId pid : pids) EXPECT_TRUE(InCss(&store, pid)) << pid;
  EXPECT_GT(after_demote.tier_css_bytes, 0u);
  EXPECT_LT(after_demote.MeasuredCompressionRatio(), 0.7)
      << "structured payloads must actually shrink";
  EXPECT_GT(after_demote.MeasuredCssBreakevenOps(), 0.0)
      << "demotions must feed the measured Fig. 8 breakeven";
  EXPECT_GT(after_demote.MeasuredTiSeconds(), 0.0);

  // Data still correct through the compressed tier, and reading it IS
  // the promotion path: the load decompresses the page back into DRAM.
  for (int i = 0; i < 3000; i += 97) {
    auto r = store.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
  const auto after_reads = store.Stats();
  EXPECT_GT(after_reads.tier_css_hits, 0u)
      << "reads of demoted pages must be served from compressed records";
  EXPECT_EQ(after_reads.tier_promotions, after_reads.tier_css_hits)
      << "a touched CSS page must promote back to DRAM";
  EXPECT_GT(store.tree()->resident_leaves(), 0u);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, VictimsOverTheMemoryBudgetDemoteWhateverTheirIdleTime) {
  VirtualClock clock(1);
  core::CachingStoreOptions opts;
  opts.clock = &clock;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.memory_budget_bytes = 64 << 10;
  opts.maintenance_interval_ops = 0;
  opts.tier.css_budget_bytes = 64ull << 20;
  // The clock never moves, so every page is far younger than the floor.
  opts.tier.demote_idle_seconds = 1000.0;
  core::CachingStore store(opts);

  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  ASSERT_GT(store.cache()->resident_bytes(), opts.memory_budget_bytes);
  const std::vector<PageId> pids = store.tree()->LeafPageIds();
  store.Maintain();
  const auto s = store.Stats();
  EXPECT_LE(store.cache()->resident_bytes(), opts.memory_budget_bytes);
  EXPECT_GT(s.tier_demotions, 0u)
      << "victims over the budget must leave compressed";
  EXPECT_EQ(s.tier_proactive_demotions, 0u)
      << "no page is idle past the floor, so every demotion is a victim's";
  size_t in_css = 0;
  for (PageId pid : pids) in_css += InCss(&store, pid);
  EXPECT_GT(in_css, 0u);
  for (int i = 0; i < 3000; i += 37) {
    auto r = store.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
  EXPECT_GT(store.Stats().tier_css_hits, 0u);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, EvictionCountsTheFormOfTheRecordItLandsOn) {
  core::CachingStore store(ManualTierOptions());
  BwTree* tree = store.tree();
  const PageId pid = FillOneLeaf(&store);
  ASSERT_TRUE(store.Checkpoint().ok());
  const FlashAddress record = tree->DebugPageInfo(pid).record;
  ASSERT_TRUE(record.valid());
  ASSERT_TRUE(store.cache()->Contains(pid));

  // A clean page on a compressed record: a demotion that writes nothing,
  // counts the page's raw image and its record's stored bytes, and
  // leaves no cache entry behind.
  const Eviction e = Evict(tree, pid);
  EXPECT_TRUE(e.res.demoted);
  EXPECT_FALSE(e.res.wrote);
  EXPECT_EQ(e.stored_bytes, record.len() -
                                llama::LogStructuredStore::kHeaderBytes);
  EXPECT_GT(e.raw_bytes, e.stored_bytes);
  EXPECT_FALSE(store.cache()->Contains(pid));
  EXPECT_TRUE(InCss(&store, pid));
  core::KvStoreStats s = store.Stats();
  EXPECT_EQ(s.tier_demotions, 1u);
  EXPECT_EQ(s.tier_clean_demotions, 1u);
  EXPECT_EQ(s.tier_demotion_refusals, 0u);

  // The same page rewritten with values that do not compress: its flush
  // writes a plain record, and the eviction onto it is a refusal.
  Random rng(11);
  for (int i = 0; i < kLeafKeys; ++i) {
    std::string v(200, '\0');
    for (char& c : v) c = static_cast<char>(rng.Uniform(256));
    ASSERT_TRUE(store.Put("key" + std::to_string(i), v).ok());
  }
  ASSERT_EQ(tree->LeafPageIds().size(), 1u);
  const Eviction plain = Evict(tree, pid);
  EXPECT_FALSE(plain.res.demoted);
  EXPECT_TRUE(plain.res.wrote);
  EXPECT_EQ(plain.raw_bytes, 0u);
  EXPECT_EQ(plain.stored_bytes, 0u);
  EXPECT_FALSE(store.cache()->Contains(pid));
  EXPECT_TRUE(IsFlashWord(tree->mapping_table()->Get(pid)));
  EXPECT_FALSE(InCss(&store, pid));
  s = store.Stats();
  EXPECT_EQ(s.tier_demotions, 1u);
  EXPECT_EQ(s.tier_demotion_refusals, 1u);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

TEST(CssStoreTest, CssBytesAreTheCompressedBytesTheLogRetains) {
  core::CachingStore store(ManualTierOptions());
  llama::LogStructuredStore* log = store.log_store();
  const PageId pid = FillOneLeaf(&store);
  // Ten checkpoints of the same leaf: ten compressed records, nine dead.
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(store.Put("key3", "updated").ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  auto segment_css_bytes = [&] {
    uint64_t total = 0;
    for (const llama::SegmentInfo& seg : log->segments()) {
      total += seg.css_stored_bytes;
    }
    return total;
  };
  const uint64_t before = store.Stats().tier_css_bytes;
  EXPECT_EQ(log->stats().css_records_appended, 10u);
  EXPECT_EQ(before, segment_css_bytes());
  EXPECT_EQ(before, log->stats().css_stored_bytes_appended);

  // GC trims the sealed segment and moves the one live record: CSS now
  // holds exactly that record's stored bytes.
  ASSERT_TRUE(log->Flush().ok());
  ASSERT_TRUE(store.RunGc(1.0).ok());
  const uint64_t after = store.Stats().tier_css_bytes;
  EXPECT_LT(after, before);
  EXPECT_EQ(after, segment_css_bytes());
  const FlashAddress record = store.tree()->DebugPageInfo(pid).record;
  ASSERT_TRUE(record.valid());
  EXPECT_EQ(after, record.len() -
                       llama::LogStructuredStore::kHeaderBytes);
  ExpectReads(&store, 3);
  EXPECT_TRUE(store.CheckInvariants().empty());
}

}  // namespace
}  // namespace costperf::bwtree
