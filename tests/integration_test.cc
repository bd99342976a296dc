#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.h"
#include "core/caching_store.h"
#include "core/memory_store.h"
#include "tc/transaction_component.h"
#include "workload/workload.h"

namespace costperf {
namespace {

// Cross-module integration: the full Deuteronomy-shaped stack (TC over
// Bw-tree over LLAMA over the simulated SSD) under memory pressure,
// paging, GC, and restart — the paper's system in one piece.

TEST(IntegrationTest, TransactionsOverBudgetedPagingStore) {
  core::CachingStoreOptions opts;
  opts.memory_budget_bytes = 16 << 10;  // heavy paging
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.tree.max_page_bytes = 1024;
  opts.maintenance_interval_ops = 64;
  core::CachingStore store(opts);
  tc::RecoveryLog log;
  tc::TransactionComponent tc(store.tree(), &log);

  // Seed accounts through the TC.
  constexpr int kAccounts = 2000;
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(
        tc.WriteOne("acct" + std::to_string(i), std::to_string(1000)).ok());
  }

  // Run random transfers; total balance is conserved under SI.
  Random rng(31337);
  int committed = 0, aborted = 0;
  for (int t = 0; t < 3000; ++t) {
    int from = rng.Uniform(kAccounts), to = rng.Uniform(kAccounts);
    if (from == to) continue;
    tc::Transaction* txn = tc.Begin();
    std::string fv, tv;
    ASSERT_TRUE(tc.Read(txn, "acct" + std::to_string(from), &fv).ok());
    ASSERT_TRUE(tc.Read(txn, "acct" + std::to_string(to), &tv).ok());
    int amount = 1 + rng.Uniform(50);
    tc.Write(txn, "acct" + std::to_string(from),
             std::to_string(atoi(fv.c_str()) - amount));
    tc.Write(txn, "acct" + std::to_string(to),
             std::to_string(atoi(tv.c_str()) + amount));
    Status s = tc.Commit(txn);
    if (s.ok()) {
      ++committed;
    } else {
      ASSERT_TRUE(s.IsAborted()) << s.ToString();
      ++aborted;
    }
    // Periodic store maintenance under pressure.
    if (t % 200 == 0) {
      store.Maintain();
      tc.PruneVersions();
    }
  }
  EXPECT_GT(committed, 2500);

  // Conservation check via the TC (sees every committed version).
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    std::string v;
    ASSERT_TRUE(tc.ReadOne("acct" + std::to_string(i), &v).ok()) << i;
    total += atoi(v.c_str());
  }
  EXPECT_EQ(total, int64_t{kAccounts} * 1000);

  // The store really paged during the run.
  EXPECT_GT(store.tree()->stats().full_evictions, 0u);
}

TEST(IntegrationTest, CrashRecoveryWithRedoLogCatchesUnflushedCommits) {
  // The DC checkpoint lags; a crash discards resident updates. The TC
  // redo log replays them — end state must match the pre-crash commits.
  storage::SsdOptions dev;
  dev.capacity_bytes = 256ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  core::CachingStoreOptions opts;
  opts.external_device = &device;
  opts.device.max_iops = 0;
  opts.maintenance_interval_ops = 0;
  tc::RecoveryLog log;

  std::map<std::string, std::string> committed_state;
  {
    core::CachingStore store(opts);
    tc::TransactionComponent tc(store.tree(), &log);
    Random rng(71);
    for (int i = 0; i < 500; ++i) {
      std::string k = "k" + std::to_string(rng.Uniform(200));
      std::string v = "v" + std::to_string(i);
      ASSERT_TRUE(tc.WriteOne(k, v).ok());
      committed_state[k] = v;
      if (i == 250) {
        // A checkpoint midway: later commits exist only in memory + log.
        ASSERT_TRUE(store.Checkpoint().ok());
      }
    }
    // No final checkpoint: crash loses resident post-checkpoint state.
  }
  core::CachingStore reopened(opts);
  ASSERT_TRUE(reopened.Recover().ok());
  tc::TransactionComponent tc2(reopened.tree(), &log);
  ASSERT_TRUE(tc2.RecoverFromLog().ok());
  for (auto& [k, v] : committed_state) {
    std::string got;
    ASSERT_TRUE(tc2.ReadOne(k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
}

TEST(IntegrationTest, MixedWorkloadWithGcAndCompressionStaysConsistent) {
  core::CachingStoreOptions opts;
  opts.memory_budget_bytes = 512 << 10;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.tree.max_page_bytes = 1024;
  opts.maintenance_interval_ops = 128;
  core::CachingStore store(opts);

  std::map<std::string, std::string> model;
  Random rng(2718);
  for (int op = 0; op < 12'000; ++op) {
    std::string key = "key" + std::to_string(rng.Uniform(1500));
    double dice = rng.NextDouble();
    if (dice < 0.45) {
      std::string val(30 + rng.Uniform(200), 'a' + rng.Uniform(26));
      ASSERT_TRUE(store.Put(key, val).ok());
      model[key] = val;
    } else if (dice < 0.55) {
      ASSERT_TRUE(store.Delete(key).ok());
      model.erase(key);
    } else if (dice < 0.95) {
      auto r = store.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(r.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(r.ok()) << key;
        EXPECT_EQ(*r, it->second);
      }
    } else if (dice < 0.97) {
      // Occasional demotion of a random page to the CSS tier: the tier is
      // on, so its eviction lands on a compressed record.
      auto pid = store.tree()->LeafOf(key);
      if (pid.ok()) {
        (void)store.tree()->EvictPage(*pid);
      }
    } else {
      (void)store.RunGc(0.5);
    }
  }
  // Full verification including ordered scan.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(store.Scan("", model.size() + 10, &rows).ok());
  ASSERT_EQ(rows.size(), model.size());
  auto mit = model.begin();
  for (size_t i = 0; i < rows.size(); ++i, ++mit) {
    EXPECT_EQ(rows[i].first, mit->first);
    EXPECT_EQ(rows[i].second, mit->second);
  }
}

TEST(IntegrationTest, WorkloadRunnerDrivesBothStoresToCompletion) {
  core::CachingStoreOptions copts;
  copts.memory_budget_bytes = 1 << 20;
  copts.device.capacity_bytes = 256ull << 20;
  copts.device.max_iops = 0;
  core::CachingStore caching(copts);
  core::MemoryStore memory;

  for (auto spec :
       {workload::WorkloadSpec::YcsbA(3000), workload::WorkloadSpec::YcsbE(3000),
        workload::WorkloadSpec::YcsbF(3000)}) {
    spec.value_size = 64;
    workload::Workload l1(spec);
    ASSERT_TRUE(l1.Load(&caching).ok());
    workload::Workload l2(spec);
    ASSERT_TRUE(l2.Load(&memory).ok());
    workload::Workload w1(spec, 1), w2(spec, 1);
    auto r1 = workload::RunWorkload(&caching, &w1, 6000);
    auto r2 = workload::RunWorkload(&memory, &w2, 6000);
    EXPECT_EQ(r1.failed_ops, 0u);
    EXPECT_EQ(r2.failed_ops, 0u);
  }
}

}  // namespace
}  // namespace costperf
