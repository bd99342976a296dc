// SS-heavy steady-state stress: the same budget-bounded zipf update mix
// run twice — inline mode (eviction/GC/consolidation amortized onto the
// op path every maintenance_interval_ops) and background mode (a
// MaintenanceScheduler doing the same work on worker threads, with the
// op path only signalling pressure). Prints throughput, tail latencies
// (p50/p99/p999), the MM/SS per-class split, and the maintenance
// attribution counters.
//
// This binary is also the enforcement point for the background-mode
// contract: it exits non-zero if the background run charged ANY
// maintenance work to a foreground thread (foreground_maintenance_ops
// must be exactly 0), or if background workers did no work at all.
// scripts/check.sh runs it as the `stress` lane.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/sharded_store.h"
#include "workload/runner.h"

namespace costperf {
namespace {

using bench::Banner;

constexpr size_t kShards = 4;
constexpr int kThreads = 4;
constexpr uint64_t kRecords = 24'000;
constexpr uint64_t kOpsPerThread = 30'000;
constexpr size_t kValueSize = 256;

core::CachingStoreOptions StressOptions(bool background) {
  core::CachingStoreOptions o;
  // ~1.5 MiB budget against a ~7 MiB dataset: every worker thread is
  // under sustained eviction pressure and the log accumulates dead space
  // fast enough that GC triggers during the run.
  o.memory_budget_bytes = (1536 << 10) / kShards;
  o.device.capacity_bytes = 512ull << 20;
  o.device.max_iops = 0;
  o.maintenance_interval_ops = 128;
  if (background) o.background.workers = 2;
  return o;
}

workload::RunReport RunOnce(bool background) {
  auto store =
      core::ShardedStore::OfCaching(kShards, StressOptions(background));
  workload::RunnerOptions ropts;
  ropts.threads = kThreads;
  ropts.ops_per_thread = kOpsPerThread;
  ropts.latency_sample = 4;
  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbA(kRecords);
  spec.value_size = kValueSize;
  workload::Runner runner(store.get(), spec, ropts);
  return runner.LoadAndRun();
}

int Run() {
  Banner("SS-heavy steady state — inline vs background maintenance",
         "Budget-bounded zipf 50/50 mix; background mode must complete "
         "the run with zero foreground maintenance ops.");

  struct ModeRow {
    const char* name;
    bool background;
    workload::RunReport report;
  };
  ModeRow rows[] = {{"inline", false, {}}, {"background", true, {}}};

  printf("\n%-11s | %12s | %8s %8s %8s | %10s %10s %8s %12s\n", "mode",
         "wall ops/s", "p50us", "p99us", "p999us", "fg ops", "bg steps",
         "stalls", "stall us");
  for (ModeRow& row : rows) {
    row.report = RunOnce(row.background);
    const workload::RunReport& r = row.report;
    if (r.failed_ops > 0) {
      printf("FAIL: %s mode had %llu failed ops\n", row.name,
             (unsigned long long)r.failed_ops);
      return 1;
    }
    printf("%-11s | %12.0f | %8.1f %8.1f %8.1f | %10llu %10llu %8llu "
           "%12llu\n",
           row.name, r.ops_per_wall_sec, r.p50_micros, r.p99_micros,
           r.p999_micros,
           (unsigned long long)r.store.foreground_maintenance_ops,
           (unsigned long long)r.store.background_maintenance_steps,
           (unsigned long long)r.store.write_stalls,
           (unsigned long long)r.store.stall_micros_total);
    if (r.mm_latency_micros.count() > 0 || r.ss_latency_micros.count() > 0) {
      printf("%-11s | classes: mm=%llu (p50 %.1f / p99 %.1f)  ss=%llu "
             "(p50 %.1f / p99 %.1f)\n",
             "", (unsigned long long)r.mm_latency_micros.count(),
             r.mm_p50_micros, r.mm_p99_micros,
             (unsigned long long)r.ss_latency_micros.count(),
             r.ss_p50_micros, r.ss_p99_micros);
    }
  }

  const workload::RunReport& inline_r = rows[0].report;
  const workload::RunReport& bg_r = rows[1].report;

  // The contract under test. Inline mode proves the workload actually
  // generates maintenance pressure; background mode proves all of it
  // moved off the foreground path.
  int rc = 0;
  if (inline_r.store.foreground_maintenance_ops == 0) {
    printf("\nFAIL: inline run did no foreground maintenance — the "
           "workload is not generating pressure, so the background "
           "assertion below would be vacuous\n");
    rc = 1;
  }
  if (bg_r.store.foreground_maintenance_ops != 0) {
    printf("\nFAIL: background run charged %llu maintenance ops to "
           "foreground threads (contract: exactly 0)\n",
           (unsigned long long)bg_r.store.foreground_maintenance_ops);
    rc = 1;
  }
  if (bg_r.store.background_maintenance_steps == 0) {
    printf("\nFAIL: background run executed no scheduler steps under "
           "sustained eviction pressure\n");
    rc = 1;
  }
  if (rc == 0) {
    printf("\nOK: steady-state foreground_maintenance_ops == 0 in "
           "background mode (%llu scheduler steps did the work)\n",
           (unsigned long long)bg_r.store.background_maintenance_steps);
  }
  return rc;
}

}  // namespace
}  // namespace costperf

int main() { return costperf::Run(); }
