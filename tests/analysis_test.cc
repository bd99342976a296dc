#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/bwtree_validator.h"
#include "analysis/invariant_checker.h"
#include "analysis/log_store_auditor.h"
#include "analysis/mapping_table_auditor.h"
#include "bwtree/node.h"
#include "bwtree/page_codec.h"
#include "core/caching_store.h"
#include "core/sharded_store.h"
#include "workload/runner.h"

namespace costperf {
namespace {

using analysis::BwTreeValidator;
using analysis::LogStoreAuditor;
using analysis::MappingTableAuditor;
using analysis::ReportToString;
using analysis::Violation;

core::CachingStoreOptions SmallStoreOptions() {
  core::CachingStoreOptions opts;
  opts.memory_budget_bytes = 256 << 10;
  opts.device.capacity_bytes = 64ull << 20;
  opts.device.max_iops = 0;  // unthrottled: tests measure structure, not cost
  return opts;
}

std::unique_ptr<core::CachingStore> PopulatedStore(int records) {
  auto store = std::make_unique<core::CachingStore>(SmallStoreOptions());
  for (int i = 0; i < records; ++i) {
    std::string key = "key" + std::to_string(100000 + i);
    EXPECT_TRUE(store->Put(Slice(key), Slice("value" + std::to_string(i))).ok());
  }
  return store;
}

bool HasRule(const std::vector<Violation>& violations,
             const std::string& rule) {
  for (const Violation& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

// --- healthy stores -------------------------------------------------------

TEST(AnalysisCleanTest, FreshStoreReportsNoViolations) {
  core::CachingStore store(SmallStoreOptions());
  auto violations = store.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(AnalysisCleanTest, PopulatedStoreReportsNoViolations) {
  auto store = PopulatedStore(2000);
  auto violations = store->CheckInvariants();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(AnalysisCleanTest, CheckpointEvictionAndGcStayClean) {
  auto store = PopulatedStore(2000);
  // Overwrites create dead log records; checkpoint + GC exercise the
  // relocation/accounting paths the LogStoreAuditor closes over.
  for (int i = 0; i < 2000; i += 2) {
    std::string key = "key" + std::to_string(100000 + i);
    ASSERT_TRUE(store->Put(Slice(key), Slice("rewritten")).ok());
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->EvictAll().ok());
  ASSERT_TRUE(store->RunGc(0.95).ok());
  auto violations = store->CheckInvariants();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(AnalysisCleanTest, ConcurrentRunnerWorkloadStaysClean) {
  auto store = core::ShardedStore::OfCaching(2, SmallStoreOptions());
  workload::WorkloadSpec spec;
  spec.record_count = 2000;
  spec.value_size = 64;
  spec.read_proportion = 0.5;
  spec.update_proportion = 0.4;
  spec.insert_proportion = 0.1;
  workload::RunnerOptions ropts;
  ropts.threads = 4;
  ropts.ops_per_thread = 3000;
  workload::Runner runner(store.get(), spec, ropts);
  workload::RunReport report = runner.LoadAndRun();
  EXPECT_EQ(report.failed_ops, 0u);
  store->Maintain();
  auto violations = store->CheckInvariants();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

// --- seeded corruption: delta chain ---------------------------------------

TEST(BwTreeValidatorTest, DetectsUnsortedLeafKeys) {
  auto store = PopulatedStore(200);
  bwtree::BwTree* tree = store->tree();
  auto pid = tree->LeafOf(Slice("key100050"));
  ASSERT_TRUE(pid.ok());
  mapping::MappingTable* table = tree->mapping_table();
  const uint64_t orig = table->Get(*pid);

  bwtree::LeafBuilder builder(Slice(), bwtree::kInvalidPageId);
  builder.Add("zeta", "1");  // not ascending
  builder.Add("alpha", "2");
  bwtree::LeafBase* bad = builder.Finish().release();
  table->Set(*pid, bwtree::EncodePointer(bad));

  BwTreeValidator validator(tree);
  auto violations = validator.Check();
  EXPECT_TRUE(HasRule(violations, "key-order")) << ReportToString(violations);

  table->Set(*pid, orig);  // restore so teardown walks a healthy tree
  delete bad;
}

TEST(BwTreeValidatorTest, DetectsCorruptChainLength) {
  auto store = PopulatedStore(200);
  bwtree::BwTree* tree = store->tree();
  auto pid = tree->LeafOf(Slice("key100050"));
  ASSERT_TRUE(pid.ok());
  mapping::MappingTable* table = tree->mapping_table();
  const uint64_t orig = table->Get(*pid);

  auto* delta = new bwtree::InsertDelta();
  delta->key = "key100050";
  delta->value = "corrupt";
  delta->next = bwtree::DecodePointer(orig);
  delta->chain_length = 42;  // lies about its depth
  table->Set(*pid, bwtree::EncodePointer(delta));

  BwTreeValidator validator(tree);
  auto violations = validator.Check();
  EXPECT_TRUE(HasRule(violations, "chain-length"))
      << ReportToString(violations);

  table->Set(*pid, orig);
  delta->next = nullptr;
  delete delta;
}

TEST(BwTreeValidatorTest, DetectsBrokenChainTail) {
  auto store = PopulatedStore(200);
  bwtree::BwTree* tree = store->tree();
  auto pid = tree->LeafOf(Slice("key100050"));
  ASSERT_TRUE(pid.ok());
  mapping::MappingTable* table = tree->mapping_table();
  const uint64_t orig = table->Get(*pid);

  auto* delta = new bwtree::DeleteDelta();
  delta->key = "key100050";
  delta->next = nullptr;  // chain ends without ever reaching a base
  delta->chain_length = 1;
  table->Set(*pid, bwtree::EncodePointer(delta));

  BwTreeValidator validator(tree);
  auto violations = validator.Check();
  EXPECT_TRUE(HasRule(violations, "chain-tail")) << ReportToString(violations);

  table->Set(*pid, orig);
  delete delta;
}

// --- seeded corruption: flash record --------------------------------------

// A page is one record on flash: a mapping word or a FlashPointer tail
// that addresses any other record breaks the flash-chain rule.
TEST(BwTreeValidatorTest, DetectsFlashAddressOffThePagesRecord) {
  auto store = PopulatedStore(200);
  ASSERT_TRUE(store->EvictAll().ok());
  bwtree::BwTree* tree = store->tree();
  BwTreeValidator validator(tree);
  auto violations = validator.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);

  auto pid = tree->LeafOf(Slice("key100050"));
  ASSERT_TRUE(pid.ok());
  mapping::MappingTable* table = tree->mapping_table();
  const uint64_t orig = table->Get(*pid);
  ASSERT_TRUE(bwtree::IsFlashWord(orig));
  const llama::FlashAddress record = tree->DebugPageInfo(*pid).record;
  ASSERT_EQ(bwtree::DecodeFlash(orig).packed(), record.packed());
  const llama::FlashAddress other(record.offset() + record.len(),
                                  record.len());

  // The mapping word points at a record that is not the page's.
  table->Set(*pid, bwtree::EncodeFlash(other));
  violations = validator.Check();
  EXPECT_TRUE(HasRule(violations, "flash-chain"))
      << ReportToString(violations);

  // A blind delta over a FlashPointer tail that addresses it.
  auto* tail = new bwtree::FlashPointer();
  tail->addr = other;
  auto* delta = new bwtree::InsertDelta();
  delta->key = "key100050";
  delta->value = "blind";
  delta->next = tail;
  delta->chain_length = 1;
  table->Set(*pid, bwtree::EncodePointer(delta));
  violations = validator.Check();
  EXPECT_TRUE(HasRule(violations, "flash-chain"))
      << ReportToString(violations);

  // The same chain over the page's own record is clean.
  tail->addr = record;
  violations = validator.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);

  table->Set(*pid, orig);
  bwtree::FreeChain(delta);
  violations = validator.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

// --- seeded corruption: mapping table -------------------------------------

TEST(MappingTableAuditorTest, DetectsLeakedPid) {
  auto store = PopulatedStore(200);
  bwtree::BwTree* tree = store->tree();
  mapping::MappingTable* table = tree->mapping_table();

  // Allocate an id holding a flash word that nothing references.
  const mapping::PageId leaked =
      table->Allocate(bwtree::EncodeFlash(llama::FlashAddress(0, 64)));
  ASSERT_NE(leaked, mapping::kInvalidPageId);

  MappingTableAuditor auditor(tree, store->cache());
  auto violations = auditor.Check();
  EXPECT_TRUE(HasRule(violations, "leaked-pid")) << ReportToString(violations);

  table->Set(leaked, 0);
  table->Free(leaked);
  violations = auditor.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(MappingTableAuditorTest, DetectsDanglingFreedPid) {
  auto store = PopulatedStore(200);
  bwtree::BwTree* tree = store->tree();
  auto pid = tree->LeafOf(Slice("key100050"));
  ASSERT_TRUE(pid.ok());
  mapping::MappingTable* table = tree->mapping_table();
  const uint64_t orig = table->Get(*pid);

  table->Free(*pid);  // still named by its parent: a dangling free

  MappingTableAuditor auditor(tree, store->cache());
  auto violations = auditor.Check();
  EXPECT_TRUE(HasRule(violations, "dangling-free"))
      << ReportToString(violations);

  // Free zeroed the word; re-allocating (LIFO, free list was empty
  // before) hands the id back so teardown sees the original chain.
  ASSERT_EQ(table->Allocate(orig), *pid);
  violations = auditor.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(MappingTableAuditorTest, DetectsCacheMappingDisagreement) {
  auto store = PopulatedStore(200);
  // Cache accounting for an id whose mapping entry was never set.
  const mapping::PageId phantom = store->tree()->mapping_table()->Allocate(0);
  ASSERT_NE(phantom, mapping::kInvalidPageId);
  store->cache()->Insert(phantom, 4096);

  MappingTableAuditor auditor(store->tree(), store->cache());
  auto violations = auditor.Check();
  EXPECT_TRUE(HasRule(violations, "cache-not-resident"))
      << ReportToString(violations);

  store->cache()->Erase(phantom);
  store->tree()->mapping_table()->Free(phantom);
  violations = auditor.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(MappingTableAuditorTest, DetectsUntrackedResidentLeaf) {
  auto store = PopulatedStore(200);
  const auto pid = store->tree()->LeafOf("key100000");
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(store->tree()->IsLeafResident(*pid));
  llama::CacheManager* cache = store->cache();
  const auto entries = cache->ResidentEntries();
  uint64_t bytes = 0;
  for (const auto& [p, b] : entries) {
    if (p == *pid) bytes = b;
  }
  ASSERT_GT(bytes, 0u);
  // The entry goes while the word still points at the page in memory:
  // no victim pick can reach this page now.
  cache->Erase(*pid);

  MappingTableAuditor auditor(store->tree(), cache);
  auto violations = auditor.Check();
  EXPECT_TRUE(HasRule(violations, "resident-untracked"))
      << ReportToString(violations);

  cache->Insert(*pid, bytes);
  violations = auditor.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

// --- seeded corruption: log store -----------------------------------------

TEST(LogStoreAuditorTest, DetectsMiscountedSegment) {
  auto store = PopulatedStore(500);
  llama::LogStructuredStore* log = store->log_store();

  LogStoreAuditor auditor(log);
  auto violations = auditor.Check();
  ASSERT_TRUE(violations.empty()) << ReportToString(violations);

  // Seed a 100-byte accounting error in the open segment.
  log->TestOnlyAdjustSegmentAccounting(log->open_segment_id(), 100, 0);
  violations = auditor.Check();
  EXPECT_TRUE(HasRule(violations, "space-accounting"))
      << ReportToString(violations);

  log->TestOnlyAdjustSegmentAccounting(log->open_segment_id(), -100, 0);
  violations = auditor.Check();
  EXPECT_TRUE(violations.empty()) << ReportToString(violations);
}

TEST(LogStoreAuditorTest, DetectsOvercountedDeadBytes) {
  auto store = PopulatedStore(500);
  llama::LogStructuredStore* log = store->log_store();

  // More dead bytes than the segment ever held.
  log->TestOnlyAdjustSegmentAccounting(log->open_segment_id(), 0, 1 << 20);
  LogStoreAuditor auditor(log);
  auto violations = auditor.Check();
  EXPECT_TRUE(HasRule(violations, "dead-exceeds-live"))
      << ReportToString(violations);
  EXPECT_TRUE(HasRule(violations, "dead-accounting"))
      << ReportToString(violations);
}

// --- report plumbing ------------------------------------------------------

TEST(AnalysisReportTest, ViolationToStringCarriesRuleAndEntity) {
  Violation v{"LogStoreAuditor", "space-accounting", "segment 3",
              "off by 100"};
  EXPECT_EQ(v.ToString(),
            "LogStoreAuditor/space-accounting [segment 3]: off by 100");
  EXPECT_EQ(ReportToString({}), "no violations");
  EXPECT_NE(ReportToString({v}).find("1 violation(s)"), std::string::npos);
}

}  // namespace
}  // namespace costperf
