// Reproduces §6.3 — record caching:
//  (a) LLAMA-level: blind updates over evicted pages stay in memory as
//      deltas over the page's flash record and serve later reads of
//      those records without any I/O,
//  (b) TC-level: the MVCC version store and the read cache answer reads
//      without even reaching the data component,
//  (c) the analysis consequence: record-granularity breakeven intervals
//      are ~10x the page breakeven (Eq. 6 with P_s/10).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "costmodel/five_minute_rule.h"
#include "tc/transaction_component.h"

namespace costperf {
namespace {

using bench::Banner;

int Run() {
  Banner("§6.3 — record caching",
         "Delta record caches (LLAMA) and TC version/read caches avoid "
         "I/O; record-level breakeven is ~10x the page breakeven.");

  constexpr uint64_t kRecords = 40'000;
  constexpr uint64_t kHot = 400;  // records updated then re-read

  // ---- (a) LLAMA record cache, formed the way the store forms one ----
  // Updates after the eviction are blind deltas over each page's flash
  // record (§6.2), and a re-read answers from them. Updates before it
  // are flushed with their pages, so a re-read must load the page.
  for (bool update_after_evict : {true, false}) {
    core::CachingStore store(bench::FigureStoreOptions());
    workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(kRecords);
    workload::Workload loader(spec);
    if (!loader.Load(&store).ok()) return 1;

    Random rng(7);
    std::vector<std::string> hot_keys;
    for (uint64_t i = 0; i < kHot; ++i) {
      hot_keys.push_back(loader.KeyAt(rng.Uniform(kRecords)));
    }
    auto update_hot = [&]() {
      for (const auto& k : hot_keys) {
        if (!store.Put(Slice(k), "hot-value").ok()) return false;
      }
      return true;
    };
    if (update_after_evict) {
      if (!store.EvictAll().ok() || !update_hot()) return 1;
    } else {
      if (!update_hot() || !store.EvictAll().ok()) return 1;
    }

    const bwtree::BwTreeStats before = store.tree()->stats();
    for (const auto& k : hot_keys) {
      auto r = store.Get(Slice(k));
      if (!r.ok() || *r != "hot-value") {
        printf("WARNING: wrong value after eviction\n");
        return 1;
      }
    }
    const bwtree::BwTreeStats after = store.tree()->stats();
    const uint64_t flash_reads =
        after.flash_record_reads - before.flash_record_reads;
    printf("\n%s:\n", update_after_evict
                           ? "EvictAll, then blind updates (record cache)"
                           : "updates, then EvictAll");
    printf("  re-reads of %llu updated records -> flash record reads: "
           "%llu, record-cache hits: %llu\n",
           (unsigned long long)kHot, (unsigned long long)flash_reads,
           (unsigned long long)(after.record_cache_hits -
                                before.record_cache_hits));
    if (update_after_evict && flash_reads != 0) {
      printf("WARNING: record cache should have avoided all I/O\n");
      return 1;
    }
    if (!update_after_evict && flash_reads == 0) {
      printf("WARNING: full eviction should have required I/O\n");
      return 1;
    }
  }

  // ---- (b) TC record caches ----
  {
    core::CachingStore store(bench::FigureStoreOptions());
    workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(kRecords);
    workload::Workload loader(spec);
    if (!loader.Load(&store).ok()) return 1;
    tc::RecoveryLog log;
    tc::TransactionComponent tc(store.tree(), &log);

    Random rng(8);
    // Transactionally update a hot set; then read it back repeatedly.
    for (uint64_t i = 0; i < kHot; ++i) {
      (void)tc.WriteOne(loader.KeyAt(i), "tc-updated");
    }
    // Also read a cold set once (warms the read cache).
    for (uint64_t i = kHot; i < 2 * kHot; ++i) {
      std::string v;
      (void)tc.ReadOne(loader.KeyAt(i), &v);
    }
    auto before = tc.stats();
    for (int round = 0; round < 5; ++round) {
      std::string v;
      for (uint64_t i = 0; i < 2 * kHot; ++i) {
        (void)tc.ReadOne(loader.KeyAt(i), &v);
      }
    }
    auto after = tc.stats();
    uint64_t reads = after.reads - before.reads;
    printf("\nTC re-read pass (%llu reads):\n", (unsigned long long)reads);
    printf("  served by MVCC version store: %llu\n",
           (unsigned long long)(after.reads_from_version_store -
                                before.reads_from_version_store));
    printf("  served by read cache:         %llu\n",
           (unsigned long long)(after.reads_from_read_cache -
                                before.reads_from_read_cache));
    printf("  reached the data component:   %llu\n",
           (unsigned long long)(after.reads_from_dc - before.reads_from_dc));
    if (after.reads_from_dc != before.reads_from_dc) {
      printf("WARNING: TC caches should have absorbed every re-read\n");
      return 1;
    }
  }

  // ---- (c) the Eq. 6 consequence ----
  costmodel::CostParams p = costmodel::CostParams::PaperDefaults();
  printf("\nEq. (6) at record granularity (page P_s = %.0f B):\n",
         p.page_size_bytes);
  printf("  %18s %16s\n", "records per page", "breakeven T_i (s)");
  for (int rpp : {1, 5, 10, 27}) {
    printf("  %18d %16.0f\n", rpp,
           costmodel::RecordBreakevenIntervalSeconds(
               p, p.page_size_bytes / rpp));
  }
  printf("  10 records/page -> T_i ~ 10x the page breakeven, widening the "
         "regime where keeping the record in memory is cheapest (§6.3).\n");
  return 0;
}

}  // namespace
}  // namespace costperf

int main() { return costperf::Run(); }
