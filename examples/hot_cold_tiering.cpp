// Demonstrates the paper's central operational idea: a data caching
// system adapts placement to data temperature. A shifting-hotspot
// workload runs over a store whose eviction policy is the cost model's
// breakeven rule; the example prints how the resident set tracks the hot
// set and what that does to dollar cost versus hoarding everything in
// DRAM.
//
// Simulated time is driven by a virtual clock (so "45 seconds idle"
// happens in milliseconds of wall time).

#include <cstdio>

#include "common/random.h"
#include "core/caching_store.h"
#include "costmodel/five_minute_rule.h"

using namespace costperf;

int main() {
  VirtualClock clock(1);
  costmodel::CostParams params = costmodel::CostParams::PaperDefaults();

  core::CachingStoreOptions options;
  options.clock = &clock;
  options.memory_budget_bytes = 0;  // let the cost rule decide, not budget
  options.eviction_policy = llama::EvictionPolicy::kCostBased;
  options.breakeven_interval_seconds =
      costmodel::BreakevenIntervalSeconds(params);
  options.maintenance_interval_ops = 0;  // we drive maintenance manually
  options.device.capacity_bytes = 1ull << 30;
  core::CachingStore store(options);

  // 40k records, ~100 B each.
  constexpr uint64_t kRecords = 40'000;
  printf("loading %llu records...\n", (unsigned long long)kRecords);
  Random value_rng(11);
  for (uint64_t i = 0; i < kRecords; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "item%010llu", (unsigned long long)i);
    std::string value(100, '\0');
    value_rng.Fill(value.data(), value.size());
    if (!store.Put(Slice(key), Slice(value)).ok()) return 1;
  }
  (void)store.Checkpoint();

  // 2% of items take 99% of traffic at 200 requests/sec; the hot region
  // moves every epoch (think: yesterday's news goes cold).
  HotspotGenerator gen(kRecords, 0.02, 0.99, 1234);
  const uint64_t step_nanos = static_cast<uint64_t>(1e9 / 200.0);

  printf("\n%8s %14s %12s %10s %10s\n", "epoch", "resident(B)", "SS ops",
         "loads", "evictions");
  uint64_t last_ss = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int op = 0; op < 20'000; ++op) {
      char key[32];
      snprintf(key, sizeof(key), "item%010llu",
               (unsigned long long)gen.Next());
      clock.AdvanceNanos(step_nanos);
      (void)store.Get(Slice(key));
      if (op % 500 == 0) store.Maintain();
    }
    auto t = store.tree()->stats();
    printf("%8d %14llu %12llu %10llu %10llu\n", epoch,
           (unsigned long long)store.cache()->resident_bytes(),
           (unsigned long long)(t.ss_ops - last_ss),
           (unsigned long long)t.page_loads,
           (unsigned long long)t.full_evictions);
    last_ss = t.ss_ops;
    gen.ShiftHotSet(kRecords / 3);  // the working set drifts
  }

  // What did temperature-aware placement buy? Compare DRAM rental of the
  // final resident set against keeping the whole database resident.
  uint64_t resident = store.cache()->resident_bytes();
  uint64_t full = store.MemoryFootprintBytes();
  (void)full;
  double whole_db_bytes = kRecords * 130.0;
  printf("\nresident set settled at ~%llu bytes vs ~%.0f for the whole "
         "database —\n",
         (unsigned long long)resident, whole_db_bytes);
  printf("DRAM rental down %.0f%%, paid for with the SS operations above "
         "(each costing R=%.1f MM ops of CPU plus an I/O).\n",
         100.0 * (1.0 - resident / whole_db_bytes), params.r);
  printf("\nThat is Figure 2 in action: hot in DRAM, cold on flash.\n");
  return 0;
}
