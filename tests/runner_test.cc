#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/memory_store.h"
#include "core/sharded_store.h"
#include "workload/runner.h"

namespace costperf::workload {
namespace {

core::CachingStoreOptions SmallShardOptions() {
  core::CachingStoreOptions o;
  o.memory_budget_bytes = 1 << 20;
  o.device.capacity_bytes = 128ull << 20;
  o.device.max_iops = 0;
  o.tree.max_page_bytes = 2048;
  o.maintenance_interval_ops = 64;
  return o;
}

TEST(RunnerTest, FourThreadsYcsbAOnShardedCachingStore) {
  auto store = core::ShardedStore::OfCaching(4, SmallShardOptions());
  WorkloadSpec spec = WorkloadSpec::YcsbA(8'000);
  spec.value_size = 64;

  RunnerOptions opts;
  opts.threads = 4;
  opts.ops_per_thread = 4'000;
  Runner runner(store.get(), spec, opts);
  RunReport report = runner.LoadAndRun();

  EXPECT_EQ(report.threads, 4);
  EXPECT_EQ(report.ops, 16'000u);
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_GT(report.cpu_seconds_total, 0.0);
  EXPECT_GE(report.cpu_seconds_total, report.cpu_seconds_max);
  EXPECT_GT(report.ops_per_cpu_sec, 0.0);
  EXPECT_GT(report.modeled_parallel_ops_per_sec, 0.0);
  // Latencies were recorded and merged across threads.
  EXPECT_EQ(report.latency_micros.count(), 16'000u);
  EXPECT_GT(report.p99_micros, 0.0);
  EXPECT_GE(report.p99_micros, report.p50_micros);
  // YCSB-A is 50/50 read/update; both sides of the mix actually ran.
  EXPECT_GT(report.op_counts[static_cast<int>(OpType::kRead)], 4'000u);
  EXPECT_GT(report.op_counts[static_cast<int>(OpType::kUpdate)], 4'000u);
  // The load phase completed before measurement: all records exist.
  core::KvStoreStats stats = store->Stats();
  EXPECT_GE(stats.writes, 8'000u);
}

TEST(RunnerTest, TotalsAreDeterministic) {
  WorkloadSpec spec = WorkloadSpec::YcsbA(4'000);
  RunnerOptions opts;
  opts.threads = 3;
  opts.ops_per_thread = 3'000;
  opts.record_latencies = false;

  uint64_t first_counts[5];
  {
    auto store = core::ShardedStore::OfMemory(4);
    Runner runner(store.get(), spec, opts);
    RunReport r = runner.LoadAndRun();
    EXPECT_EQ(r.ops, 9'000u);
    EXPECT_EQ(r.failed_ops, 0u);
    memcpy(first_counts, r.op_counts, sizeof(first_counts));
  }
  {
    auto store = core::ShardedStore::OfMemory(4);
    Runner runner(store.get(), spec, opts);
    RunReport r = runner.LoadAndRun();
    EXPECT_EQ(r.ops, 9'000u);
    // The generated op mix is a pure function of (spec, threads, ops):
    // identical across runs regardless of interleaving.
    for (int i = 0; i < 5; ++i) EXPECT_EQ(r.op_counts[i], first_counts[i]);
  }
}

TEST(RunnerTest, BatchedModeIssuesMultiGetAndWriteBatch) {
  auto store = core::ShardedStore::OfMemory(4);
  WorkloadSpec spec = WorkloadSpec::YcsbA(4'000);
  spec.batch_size = 16;

  RunnerOptions opts;
  opts.threads = 2;
  opts.ops_per_thread = 4'000;
  Runner runner(store.get(), spec, opts);
  RunReport report = runner.LoadAndRun();

  EXPECT_EQ(report.ops, 8'000u);
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_GT(report.batch_calls, 0u);
  // Batched mode records one latency sample per batched call, so there
  // are far fewer samples than ops.
  EXPECT_LT(report.latency_micros.count(), report.ops);
  // Every generated op was still executed.
  uint64_t counted = 0;
  for (int i = 0; i < 5; ++i) counted += report.op_counts[i];
  EXPECT_EQ(counted, 8'000u);
}

TEST(RunnerTest, SeparateLoadThenRunPhases) {
  auto store = core::ShardedStore::OfMemory(2);
  WorkloadSpec spec = WorkloadSpec::YcsbC(3'000);
  RunnerOptions opts;
  opts.threads = 2;
  opts.ops_per_thread = 1'000;
  Runner runner(store.get(), spec, opts);

  ASSERT_TRUE(runner.Load().ok());
  // The parallel partitioned load inserted every record exactly once.
  EXPECT_EQ(store->Stats().writes, 3'000u);

  RunReport report = runner.Run();
  EXPECT_EQ(report.ops, 2'000u);
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.op_counts[static_cast<int>(OpType::kRead)], 2'000u);
}

TEST(RunnerTest, ReportCarriesTheStoreDeltaOverTheRun) {
  core::MemoryStore store;
  WorkloadSpec spec = WorkloadSpec::YcsbC(2'000);
  RunnerOptions opts;
  opts.threads = 1;
  opts.ops_per_thread = 3'000;
  Runner runner(&store, spec, opts);
  RunReport report = runner.LoadAndRun();

  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.store.reads, report.ops);
  // LoadAndRun's delta includes the load phase.
  EXPECT_EQ(report.store.writes, spec.record_count);
}

TEST(RunnerTest, ConcurrentMaintainRunsSingly) {
  // The atomic_flag gate in CachingStore::Maintain: concurrent callers
  // skip instead of stacking eviction/GC passes. Exercised raw (no shard
  // mutex) — this is the store's own guarantee.
  core::CachingStore store(SmallShardOptions());
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(
        store.Put("key" + std::to_string(i), std::string(64, 'v')).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < 50; ++i) store.Maintain();
    });
  }
  for (auto& th : threads) th.join();
  // Store is intact and maintenance still works afterwards.
  store.Maintain();
  EXPECT_TRUE(store.Get("key42").ok());
}

}  // namespace
}  // namespace costperf::workload
