// YCSB-style workload comparison of the two systems the paper analyzes:
// the data caching store (Bw-tree/LLAMA, memory-budgeted) and the main
// memory store (MassTree, everything resident). Two parts:
//
//  1. Single-thread A/B/C/D/F mixes — CPU-time throughput (the paper's
//     performance measure), the caching store's miss fraction F, and
//     memory footprints: the raw ingredients of Figures 1-3.
//  2. A thread-count sweep ({1,2,4,8} workers over a ShardedStore of
//     each system) — the multi-core deployment the paper's per-core
//     numbers get scaled to. "aggregate ops/s" is ops divided by the
//     slowest worker's CPU time, i.e. throughput with one core per
//     worker (on a core-limited CI host the wall column will not scale;
//     the CPU-time column is the machine-independent number).
//
// The measured rates are fed back into costmodel::Calibration so the
// cost model's ROPS/R come from this substrate rather than the paper's
// hardware.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "core/memory_store.h"
#include "core/sharded_store.h"
#include "costmodel/calibration.h"
#include "costmodel/cost_params.h"
#include "workload/runner.h"

namespace costperf {
namespace {

using bench::Banner;

constexpr uint64_t kRecords = 60'000;
constexpr uint64_t kOps = 120'000;
constexpr size_t kShards = 8;
constexpr uint64_t kSweepRecords = 20'000;
constexpr uint64_t kSweepOps = 40'000;  // total, split across threads

core::CachingStoreOptions BudgetedShardOptions() {
  core::CachingStoreOptions o;
  // ~1 MiB total across shards against a ~2.6 MiB dataset, so the sweep
  // runs under real budget pressure (F > 0) and the calibration fit gets
  // miss-fraction observations to work with.
  o.memory_budget_bytes = (1 << 20) / kShards;
  o.device.capacity_bytes = 256ull << 20;
  o.device.max_iops = 0;
  o.maintenance_interval_ops = 128;
  return o;
}

struct Row {
  const char* name;
  workload::WorkloadSpec spec;
};

int RunSingleThreadMixes() {
  Banner("YCSB A/B/C/D/F — caching store vs main-memory store",
         "Throughput in ops per CPU-second; F = SS fraction of the "
         "caching store's ops under its DRAM budget.");

  Row rows[] = {
      {"A 50r/50u zipf", workload::WorkloadSpec::YcsbA(kRecords)},
      {"B 95r/5u zipf", workload::WorkloadSpec::YcsbB(kRecords)},
      {"C 100r zipf", workload::WorkloadSpec::YcsbC(kRecords)},
      {"D 95r/5i latest", workload::WorkloadSpec::YcsbD(kRecords)},
      {"F 50r/50rmw zipf", workload::WorkloadSpec::YcsbF(kRecords)},
  };

  printf("\n%-18s | %14s %8s %12s | %14s %12s\n", "workload",
         "caching ops/s", "F", "resident(B)", "masstree ops/s", "bytes");
  for (const Row& row : rows) {
    // Caching store with a budget ~40% of the data set.
    core::CachingStoreOptions copts;
    copts.memory_budget_bytes = 4 << 20;
    copts.device.capacity_bytes = 1ull << 30;
    copts.device.max_iops = 0;
    copts.maintenance_interval_ops = 128;
    core::CachingStore caching(copts);
    core::MemoryStore memory;

    workload::WorkloadSpec spec = row.spec;
    spec.value_size = 100;
    {
      workload::Workload l1(spec);
      if (!l1.Load(&caching).ok()) return 1;
      workload::Workload l2(spec);
      if (!l2.Load(&memory).ok()) return 1;
    }
    caching.Maintain();

    // Miss fraction from the structured stats delta — no component
    // poking, no string parsing.
    const core::KvStoreStats before = caching.Stats();
    workload::Workload w1(spec, 1);
    auto r1 = workload::RunWorkload(&caching, &w1, kOps);
    const double f = (caching.Stats() - before).MissFraction();

    workload::Workload w2(spec, 1);
    auto r2 = workload::RunWorkload(&memory, &w2, kOps);

    printf("%-18s | %14.0f %8.3f %12llu | %14.0f %12llu\n", row.name,
           r1.ops_per_cpu_sec, f,
           (unsigned long long)caching.cache()->resident_bytes(),
           r2.ops_per_cpu_sec,
           (unsigned long long)memory.MemoryFootprintBytes());
    if (r1.failed_ops + r2.failed_ops > 0) {
      printf("WARNING: %llu failed ops\n",
             (unsigned long long)(r1.failed_ops + r2.failed_ops));
      return 1;
    }
  }
  printf("\nThe main-memory store is faster on every mix (the paper's "
         "P_x) but holds the whole database in DRAM; the caching store "
         "holds a fraction and pays with SS operations — the trade the "
         "cost model prices (Figs. 1-3).\n");
  return 0;
}

struct SweepPoint {
  int threads = 0;
  workload::RunReport report;
};

// One (store kind, workload) sweep over thread counts. Returns the
// collected points, or empty on failure.
std::vector<SweepPoint> Sweep(const char* store_name,
                              const workload::WorkloadSpec& base_spec,
                              bool caching) {
  std::vector<SweepPoint> points;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<core::ShardedStore> store =
        caching ? core::ShardedStore::OfCaching(kShards,
                                                BudgetedShardOptions())
                : core::ShardedStore::OfMemory(kShards);
    workload::WorkloadSpec spec = base_spec;
    workload::RunnerOptions opts;
    opts.threads = threads;
    opts.ops_per_thread = kSweepOps / threads;
    workload::Runner runner(store.get(), spec, opts);

    workload::RunReport report = runner.LoadAndRun();
    if (report.failed_ops > 0) {
      printf("WARNING: %s %d threads: %llu failed ops\n", store_name,
             threads, (unsigned long long)report.failed_ops);
      return {};
    }

    points.push_back({threads, report});

    printf("%-10s %7d | %12.0f %12.0f %12.0f | %8.1f %8.1f | %6.3f\n",
           store_name, threads, report.ops_per_wall_sec,
           report.ops_per_cpu_sec, report.modeled_parallel_ops_per_sec,
           report.p50_micros, report.p99_micros,
           report.store.MissFraction());
  }
  return points;
}

int RunThreadSweep() {
  Banner("Thread scaling — ShardedStore over 8 shards, T worker threads",
         "aggregate = ops / slowest worker's CPU seconds (one core per "
         "worker); wall-clock scaling depends on host core count.");

  struct SweepSpec {
    const char* workload_name;
    workload::WorkloadSpec spec;
  };
  SweepSpec sweeps[] = {
      {"YCSB-C", workload::WorkloadSpec::YcsbC(kSweepRecords)},
      {"YCSB-A", workload::WorkloadSpec::YcsbA(kSweepRecords)},
  };

  std::vector<SweepPoint> caching_c_points;
  double memory_c_1thread_cpu_rate = 0;
  for (const SweepSpec& sw : sweeps) {
    printf("\n[%s]\n%-10s %7s | %12s %12s %12s | %8s %8s | %6s\n",
           sw.workload_name, "store", "threads", "wall ops/s", "cpu ops/s",
           "aggregate", "p50us", "p99us", "F");
    auto caching_points = Sweep("caching", sw.spec, /*caching=*/true);
    auto memory_points = Sweep("masstree", sw.spec, /*caching=*/false);
    if (caching_points.empty() || memory_points.empty()) return 1;

    // The acceptance gate: 4 workers must out-run 1 worker on YCSB-C.
    if (sw.spec.update_proportion == 0.0) {
      caching_c_points = caching_points;
      memory_c_1thread_cpu_rate = memory_points[0].report.ops_per_cpu_sec;
      for (const auto& points : {caching_points, memory_points}) {
        double t1 = points[0].report.modeled_parallel_ops_per_sec;
        double t4 = points[2].report.modeled_parallel_ops_per_sec;
        if (t4 <= t1) {
          printf("WARNING: 4-thread aggregate (%.0f) <= 1-thread (%.0f)\n",
                 t4, t1);
          return 1;
        }
      }
    }
  }
  printf("\nPer-CPU-second rates stay flat as threads grow (shard mutexes "
         "block without burning CPU), so aggregate throughput scales with "
         "the worker count — the sharding argument for multi-core boxes.\n");

  // Feed the measured rates back into the cost model: ROPS from the
  // 1-thread main-memory run, R from the caching store's (F, throughput)
  // observations against its all-cached rate.
  Banner("Calibration — measured rates applied to the cost model",
         "ROPS from MassTree, R fitted from the caching store's miss "
         "fraction vs throughput (Eq. 3).");
  {
    auto p0_store = core::ShardedStore::OfCaching(kShards, [] {
      core::CachingStoreOptions o = BudgetedShardOptions();
      o.memory_budget_bytes = 0;  // unbounded: the all-cached rate P0
      return o;
    }());
    workload::RunnerOptions opts;
    opts.threads = 1;
    opts.ops_per_thread = kSweepOps;
    opts.record_latencies = false;
    workload::Runner runner(p0_store.get(),
                            workload::WorkloadSpec::YcsbC(kSweepRecords),
                            opts);
    workload::RunReport p0_report = runner.LoadAndRun();

    std::vector<costmodel::MixedObservation> observations;
    for (const SweepPoint& p : caching_c_points) {
      const double f = p.report.store.MissFraction();
      if (f > 0) observations.push_back({f, p.report.ops_per_cpu_sec});
    }
    costmodel::CalibrationReport report = costmodel::DeriveRFromObservations(
        p0_report.ops_per_cpu_sec, observations);
    report.rops = memory_c_1thread_cpu_rate;
    costmodel::CostParams calibrated = costmodel::ApplyCalibration(
        costmodel::CostParams::PaperDefaults(), report);
    printf("\nmeasured: %s\ncalibrated params: %s\n",
           report.ToString().c_str(), calibrated.ToString().c_str());
  }
  return 0;
}

// Smoke sweep for scripts/bench_smoke.sh: the thread sweep restricted to
// an *in-cache* read-heavy mix (YCSB-C, unbounded budget), with one JSON
// row per thread count so successive PRs can diff the scaling trajectory.
// Every store-side mutex is off the read path here, so this sweep is the
// direct measure of hot-path serialization (cache Touch, shard routing).
// A "batched_sweep" section repeats it with reads issued as 64-key
// MultiGet batches — the AMAC-interleaved index probe path; 64 keys
// over 8 shards leaves ~8 probes per shard group, a full interleave
// window for the state machine — recording
// the batched/single throughput ratio per thread count. A third section
// ("ss_sweep") runs a budget-bounded SS-heavy mix in inline vs
// background maintenance mode so the tail-latency effect of moving
// eviction/GC off the op path is diffable too.
int RunSmokeJson(const char* path) {
  constexpr uint64_t kSmokeRecords = 20'000;
  // Total ops, split across threads. Large enough that one row runs for
  // hundreds of milliseconds — on a core-limited host the 8-thread wall
  // number is otherwise dominated by scheduler jitter.
  constexpr uint64_t kSmokeOps = 320'000;

  FILE* out = fopen(path, "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  fprintf(out,
          "{\n  \"bench\": \"smoke_in_cache_read_heavy\",\n"
          "  \"workload\": \"ycsb-c\",\n  \"records\": %llu,\n"
          "  \"total_ops\": %llu,\n  \"shards\": %zu,\n  \"sweep\": [\n",
          (unsigned long long)kSmokeRecords, (unsigned long long)kSmokeOps,
          kShards);
  printf("smoke: in-cache YCSB-C sweep -> %s\n", path);
  printf("%7s | %12s %12s %12s | %8s %8s %8s\n", "threads", "wall ops/s",
         "cpu ops/s", "aggregate", "p50us", "p99us", "p999us");

  bool first = true;
  double single_aggregate[4] = {0, 0, 0, 0};  // per thread-count row
  int row_index = 0;
  for (int threads : {1, 2, 4, 8}) {
    core::CachingStoreOptions opts;
    opts.memory_budget_bytes = 0;  // unbounded: fully in-cache
    opts.device.capacity_bytes = 256ull << 20;
    opts.device.max_iops = 0;
    opts.maintenance_interval_ops = 128;
    // Sampled recency: with an unbounded budget eviction never consults
    // ticks — skip 15/16 of the hot-path clock reads.
    opts.cache_touch_sample = 16;
    auto store = core::ShardedStore::OfCaching(kShards, opts);

    workload::RunnerOptions ropts;
    ropts.threads = threads;
    ropts.ops_per_thread = kSmokeOps / threads;
    ropts.latency_sample = 8;  // p50/p99 from 1-in-8 sampled ops
    workload::Runner runner(store.get(),
                            workload::WorkloadSpec::YcsbC(kSmokeRecords),
                            ropts);
    workload::RunReport r = runner.LoadAndRun();
    if (r.failed_ops > 0) {
      fprintf(stderr, "smoke: %llu failed ops at %d threads\n",
              (unsigned long long)r.failed_ops, threads);
      fclose(out);
      return 1;
    }
    single_aggregate[row_index++] = r.modeled_parallel_ops_per_sec;
    printf("%7d | %12.0f %12.0f %12.0f | %8.1f %8.1f %8.1f\n", threads,
           r.ops_per_wall_sec, r.ops_per_cpu_sec,
           r.modeled_parallel_ops_per_sec, r.p50_micros, r.p99_micros,
           r.p999_micros);
    fprintf(out,
            "%s    {\"threads\": %d, \"ops_per_wall_sec\": %.0f, "
            "\"ops_per_cpu_sec\": %.0f, "
            "\"modeled_parallel_ops_per_sec\": %.0f, "
            "\"p50_micros\": %.2f, \"p99_micros\": %.2f, "
            "\"p999_micros\": %.2f}",
            first ? "" : ",\n", threads, r.ops_per_wall_sec,
            r.ops_per_cpu_sec, r.modeled_parallel_ops_per_sec, r.p50_micros,
            r.p99_micros, r.p999_micros);
    first = false;
  }
  fprintf(out, "\n  ],\n");

  // The same in-cache sweep issuing reads as 16-key MultiGet batches:
  // grouped per shard by ShardedStore::BatchGet, then served by the
  // Bw-tree's AMAC-interleaved MultiGetBatch with SIMD node search.
  // "x single" is the ratio against the same-thread single-probe row —
  // the acceptance gate for the batched read path is >= 1.5x at 8T.
  printf("smoke: in-cache YCSB-C sweep, batched reads (batch=64)\n");
  printf("%7s | %12s %12s %12s | %8s\n", "threads", "wall ops/s",
         "cpu ops/s", "aggregate", "x single");
  fprintf(out, "  \"batched_sweep\": [\n");
  first = true;
  row_index = 0;
  for (int threads : {1, 2, 4, 8}) {
    core::CachingStoreOptions opts;
    opts.memory_budget_bytes = 0;
    opts.device.capacity_bytes = 256ull << 20;
    opts.device.max_iops = 0;
    opts.maintenance_interval_ops = 128;
    opts.cache_touch_sample = 16;
    auto store = core::ShardedStore::OfCaching(kShards, opts);

    workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(kSmokeRecords);
    spec.batch_size = 64;
    workload::RunnerOptions ropts;
    ropts.threads = threads;
    ropts.ops_per_thread = kSmokeOps / threads;
    ropts.latency_sample = 8;
    workload::Runner runner(store.get(), spec, ropts);
    workload::RunReport r = runner.LoadAndRun();
    if (r.failed_ops > 0) {
      fprintf(stderr, "smoke: %llu failed ops at %d threads (batched)\n",
              (unsigned long long)r.failed_ops, threads);
      fclose(out);
      return 1;
    }
    const double base = single_aggregate[row_index++];
    const double ratio =
        base > 0 ? r.modeled_parallel_ops_per_sec / base : 0.0;
    printf("%7d | %12.0f %12.0f %12.0f | %7.2fx\n", threads,
           r.ops_per_wall_sec, r.ops_per_cpu_sec,
           r.modeled_parallel_ops_per_sec, ratio);
    fprintf(out,
            "%s    {\"threads\": %d, \"batch_size\": 64, "
            "\"ops_per_wall_sec\": %.0f, \"ops_per_cpu_sec\": %.0f, "
            "\"modeled_parallel_ops_per_sec\": %.0f, "
            "\"vs_single_probe\": %.3f}",
            first ? "" : ",\n", threads, r.ops_per_wall_sec,
            r.ops_per_cpu_sec, r.modeled_parallel_ops_per_sec, ratio);
    first = false;
  }
  fprintf(out, "\n  ],\n");

  // SS-heavy steady state, inline vs background maintenance: the same
  // budget-bounded zipf update mix with maintenance amortized onto the
  // op path vs done by scheduler workers. The diffable claims are the
  // tail latencies (background mode removes the periodic inline
  // eviction/GC bursts from the op path) and the attribution counters
  // (foreground_maintenance_ops must be 0 in background mode).
  printf("smoke: SS-heavy inline vs background maintenance\n");
  printf("%-11s | %12s | %8s %8s %8s | %10s %10s\n", "mode", "wall ops/s",
         "p50us", "p99us", "p999us", "fg ops", "bg steps");
  fprintf(out, "  \"ss_sweep\": [\n");
  first = true;
  for (int background = 0; background <= 1; ++background) {
    core::CachingStoreOptions opts;
    opts.memory_budget_bytes = (1536 << 10) / kShards;
    opts.device.capacity_bytes = 512ull << 20;
    opts.device.max_iops = 0;
    opts.maintenance_interval_ops = 128;
    if (background != 0) opts.background.workers = 2;
    auto store = core::ShardedStore::OfCaching(kShards, opts);

    workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbA(24'000);
    spec.value_size = 256;
    workload::RunnerOptions ropts;
    ropts.threads = 4;
    ropts.ops_per_thread = 30'000;
    ropts.latency_sample = 4;
    workload::Runner runner(store.get(), spec, ropts);
    workload::RunReport r = runner.LoadAndRun();
    if (r.failed_ops > 0) {
      fprintf(stderr, "smoke: %llu failed ops in ss sweep (%s)\n",
              (unsigned long long)r.failed_ops,
              background ? "background" : "inline");
      fclose(out);
      return 1;
    }
    const char* mode = background ? "background" : "inline";
    printf("%-11s | %12.0f | %8.1f %8.1f %8.1f | %10llu %10llu\n", mode,
           r.ops_per_wall_sec, r.p50_micros, r.p99_micros, r.p999_micros,
           (unsigned long long)r.store.foreground_maintenance_ops,
           (unsigned long long)r.store.background_maintenance_steps);
    fprintf(out,
            "%s    {\"mode\": \"%s\", \"ops_per_wall_sec\": %.0f, "
            "\"p50_micros\": %.2f, \"p99_micros\": %.2f, "
            "\"p999_micros\": %.2f, \"foreground_maintenance_ops\": %llu, "
            "\"background_maintenance_steps\": %llu, "
            "\"write_stalls\": %llu, \"stall_micros_total\": %llu}",
            first ? "" : ",\n", mode, r.ops_per_wall_sec, r.p50_micros,
            r.p99_micros, r.p999_micros,
            (unsigned long long)r.store.foreground_maintenance_ops,
            (unsigned long long)r.store.background_maintenance_steps,
            (unsigned long long)r.store.write_stalls,
            (unsigned long long)r.store.stall_micros_total);
    first = false;
  }
  fprintf(out, "\n  ],\n");

  // Three-tier hierarchy sweep (§7.2 / Fig. 8): the same Zipfian
  // read-heavy mix at three DRAM budgets — fully in-cache, DRAM ~25% of
  // the working set (the CSS sweet spot), and SS-heavy (~10%) — each run
  // with the compressed tier off and on. Values are structured
  // (compressible), maintenance is background-only. The diffable claims:
  // css_hits > 0 and foreground_maintenance_ops == 0 on every tier row,
  // hit_rate_per_dollar improves at the constrained budget (cold pages
  // pay flash rent at the measured compression ratio instead of DRAM
  // rent), and the measured T_i / CSS breakeven land beside the modeled
  // Fig. 8 values.
  printf("smoke: CSS tier sweep (zipfian, budgets x {tier off, on})\n");
  printf("%-16s %-5s | %11s %7s %9s %9s | %12s | %9s %9s\n", "budget",
         "tier", "wall ops/s", "hitrate", "css_hits", "demotions",
         "hr_per_$", "T_i meas", "T_i model");
  fprintf(out, "  \"css_sweep\": [\n");
  first = true;
  constexpr uint64_t kCssRecords = 24'000;
  struct BudgetRow {
    const char* name;
    uint64_t budget_total;  // 0 = unbounded
  };
  // ~24k records x 256B values ≈ 7.5 MiB of leaf bytes: 25% ≈ 1.9 MiB,
  // 10% ≈ 768 KiB.
  const BudgetRow budget_rows[] = {
      {"in_cache", 0},
      {"css_constrained", 1920ull << 10},
      {"ss_heavy", 768ull << 10},
  };
  double hrpd_off = 0;  // css_constrained comparison pair
  double hrpd_on = 0;
  for (const BudgetRow& b : budget_rows) {
    for (int tier_on = 0; tier_on <= 1; ++tier_on) {
      core::CachingStoreOptions opts;
      opts.memory_budget_bytes = b.budget_total / kShards;
      opts.device.capacity_bytes = 512ull << 20;
      opts.device.max_iops = 0;
      opts.maintenance_interval_ops = 128;
      opts.background.workers = 2;
      if (tier_on != 0) {
        opts.tier.css_budget_bytes = (8ull << 20) / kShards;
        // Bench runs are sub-second; a 20ms idle floor still separates
        // the zipf-hot head (touched every few microseconds) from the
        // cold tail.
        opts.tier.demote_idle_seconds = 0.02;
      }
      auto store = core::ShardedStore::OfCaching(kShards, opts);

      workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbB(kCssRecords);
      spec.value_size = 256;
      spec.compressible_values = true;
      workload::RunnerOptions ropts;
      ropts.threads = 4;
      ropts.ops_per_thread = 30'000;
      ropts.latency_sample = 4;
      workload::Runner runner(store.get(), spec, ropts);
      workload::RunReport r = runner.LoadAndRun();
      if (r.failed_ops > 0) {
        fprintf(stderr, "smoke: %llu failed ops in css sweep (%s, tier %s)\n",
                (unsigned long long)r.failed_ops, b.name,
                tier_on ? "on" : "off");
        fclose(out);
        return 1;
      }
      const core::KvStoreStats s = store->Stats();
      // Two-level cache hit rate, Fig. 8's framing: the compressed tier
      // is a cache level, so an op served from a compressed record (a
      // small flash read + decompression instead of a full-page SS read)
      // counts as a hit. css_hits counts per page install — ~1 per op
      // that reheated a leaf, since inner nodes never live compressed —
      // so cap at 1.
      const uint64_t classified = s.hits + s.misses;
      const double hit_rate =
          classified == 0
              ? 0.0
              : std::min(1.0, static_cast<double>(s.hits + s.tier_css_hits) /
                                  static_cast<double>(classified));
      // Occupancy cost at the paper's §4.1 prices: DRAM rent on what is
      // actually resident plus flash rent on the compressed bytes the log
      // retains, live or dead until GC trims them.
      const costmodel::CostParams prices = costmodel::CostParams::PaperDefaults();
      const double dollars = prices.dram_cost_per_byte *
                                 static_cast<double>(s.memory_bytes) +
                             prices.flash_cost_per_byte *
                                 static_cast<double>(s.tier_css_bytes);
      const double hrpd = dollars > 0 ? hit_rate / dollars : 0.0;
      if (b.budget_total == (1920ull << 10)) {
        (tier_on ? hrpd_on : hrpd_off) = hrpd;
      }
      printf("%-16s %-5s | %11.0f %7.3f %9llu %9llu | %12.1f | %9.1f %9.1f\n",
             b.name, tier_on ? "on" : "off", r.ops_per_wall_sec, hit_rate,
             (unsigned long long)s.tier_css_hits,
             (unsigned long long)s.tier_demotions, hrpd,
             s.MeasuredTiSeconds(), s.ModeledTiSeconds());
      fprintf(out,
              "%s    {\"budget\": \"%s\", \"budget_bytes\": %llu, "
              "\"tier\": \"%s\", \"ops_per_wall_sec\": %.0f, "
              "\"p99_micros\": %.2f, \"hit_rate\": %.4f, "
              "\"hit_rate_per_dollar\": %.2f, "
              "\"dram_resident_bytes\": %llu, \"css_bytes\": %llu, "
              "\"css_hits\": %llu, \"demotions\": %llu, "
              "\"promotions\": %llu, \"demotion_refusals\": %llu, "
              "\"compression_ratio\": %.4f, "
              "\"measured_t_i_seconds\": %.2f, "
              "\"modeled_t_i_seconds\": %.2f, "
              "\"measured_css_breakeven_ops\": %.6f, "
              "\"modeled_css_breakeven_ops\": %.6f, "
              "\"foreground_maintenance_ops\": %llu}",
              first ? "" : ",\n", b.name,
              (unsigned long long)b.budget_total, tier_on ? "on" : "off",
              r.ops_per_wall_sec, r.p99_micros, hit_rate, hrpd,
              (unsigned long long)s.memory_bytes,
              (unsigned long long)s.tier_css_bytes,
              (unsigned long long)s.tier_css_hits,
              (unsigned long long)s.tier_demotions,
              (unsigned long long)s.tier_promotions,
              (unsigned long long)s.tier_demotion_refusals,
              s.MeasuredCompressionRatio(), s.MeasuredTiSeconds(),
              s.ModeledTiSeconds(), s.MeasuredCssBreakevenOps(),
              s.ModeledCssBreakevenOps(),
              (unsigned long long)r.store.foreground_maintenance_ops);
      first = false;
      // Acceptance: background maintenance must never leak into the
      // foreground on any tier row, and the constrained (~25% DRAM)
      // budget — the Fig. 8 configuration of interest — must actually
      // serve reads from the compressed tier. The ss_heavy row churns
      // too fast for a deterministic css_hits floor.
      const bool must_hit_css =
          tier_on != 0 && b.budget_total == (1920ull << 10);
      if (tier_on != 0 && (r.store.foreground_maintenance_ops != 0 ||
                           (must_hit_css && s.tier_css_hits == 0))) {
        fprintf(stderr,
                "smoke: css acceptance failed (%s): css_hits=%llu fg_ops=%llu\n",
                b.name, (unsigned long long)s.tier_css_hits,
                (unsigned long long)r.store.foreground_maintenance_ops);
        fclose(out);
        return 1;
      }
    }
  }
  if (hrpd_on <= hrpd_off) {
    fprintf(stderr,
            "smoke: css tier did not improve hit-rate-per-dollar at the "
            "constrained budget (off %.1f, on %.1f)\n",
            hrpd_off, hrpd_on);
    fclose(out);
    return 1;
  }
  printf("css: hit_rate_per_dollar at 25%% DRAM, tier off %.1f -> on %.1f "
         "(%.2fx)\n",
         hrpd_off, hrpd_on, hrpd_off > 0 ? hrpd_on / hrpd_off : 0.0);
  fprintf(out, "\n  ]\n}\n");
  fclose(out);
  return 0;
}

int Run() {
  int rc = RunSingleThreadMixes();
  if (rc != 0) return rc;
  return RunThreadSweep();
}

}  // namespace
}  // namespace costperf

int main() {
  // COSTPERF_SMOKE_JSON=<path>: run only the in-cache smoke sweep and emit
  // machine-readable results (scripts/bench_smoke.sh uses this).
  if (const char* path = std::getenv("COSTPERF_SMOKE_JSON")) {
    return costperf::RunSmokeJson(path);
  }
  return costperf::Run();
}
