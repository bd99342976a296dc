// Multithreaded stress for the lock-free hot paths added with the
// sharded CLOCK cache: concurrent Touch/Insert/Erase/Contains against
// one CacheManager, touches racing table growth, eviction sweeps racing
// readers, and an epoch retire/reclaim hammer. These tests assert
// end-state consistency; their real value is running clean under
// -DCOSTPERF_SANITIZE=thread, which checks the memory-ordering contract
// (payload-before-pid publication, acquire probes, relaxed recency).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "llama/cache_manager.h"

namespace costperf::llama {
namespace {

TEST(CacheConcurrencyTest, TouchContainsRaceInsertErase) {
  CacheOptions opts;
  opts.memory_budget_bytes = ~0ull;
  CacheManager cm(opts);

  constexpr uint64_t kPids = 512;
  constexpr int kReaders = 3;
  constexpr int kRounds = 20'000;
  for (uint64_t pid = 0; pid < kPids; pid += 2) cm.Insert(pid, 64);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Readers: lock-free Touch/Contains/IdleSeconds over the full pid
  // range, half of which is being inserted/erased under their feet.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&cm, &stop, t] {
      uint64_t pid = static_cast<uint64_t>(t) * 17;
      while (!stop.load(std::memory_order_relaxed)) {
        pid = (pid + 13) % kPids;
        cm.Touch(pid);
        cm.Contains(pid);
        cm.IdleSeconds(pid);
      }
    });
  }
  // Writer: churns the odd half of the pid space through insert/resize/
  // erase so readers race slot claiming and tombstoning.
  threads.emplace_back([&cm] {
    for (int round = 0; round < kRounds; ++round) {
      uint64_t pid = 1 + 2 * (static_cast<uint64_t>(round) % (kPids / 2));
      cm.Insert(pid, 64);
      cm.Resize(pid, 128);
      cm.Erase(pid);
    }
  });
  threads.back().join();
  threads.pop_back();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  // The even half was never erased; the odd half always ends erased.
  for (uint64_t pid = 0; pid < kPids; pid += 2) EXPECT_TRUE(cm.Contains(pid));
  for (uint64_t pid = 1; pid < kPids; pid += 2) EXPECT_FALSE(cm.Contains(pid));
  auto s = cm.stats();
  EXPECT_EQ(s.resident_pages, kPids / 2);
  EXPECT_EQ(s.resident_bytes, (kPids / 2) * 64);
  EXPECT_GT(s.touches, 0u);
}

TEST(CacheConcurrencyTest, TouchRacesTableGrowth) {
  CacheOptions opts;
  opts.memory_budget_bytes = ~0ull;
  opts.shards = 1;  // all inserts hit one shard: maximum growth pressure
  CacheManager cm(opts);
  cm.Insert(0, 8);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&cm, &stop] {
      // Probes keep landing while the writer doubles the slot table;
      // stale-table probes must stay safe (retired tables are kept).
      uint64_t pid = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        cm.Touch(pid);
        cm.Contains(pid + 1);
        pid = (pid + 1) % 4096;
      }
    });
  }
  for (uint64_t pid = 1; pid < 4096; ++pid) cm.Insert(pid, 8);
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  for (uint64_t pid = 0; pid < 4096; ++pid) {
    ASSERT_TRUE(cm.Contains(pid)) << pid;
  }
  EXPECT_EQ(cm.stats().resident_pages, 4096u);
}

TEST(CacheConcurrencyTest, EvictionSweepRacesReaders) {
  CacheOptions opts;
  opts.memory_budget_bytes = 64 * 100;  // room for ~100 of 400 pages
  opts.policy = EvictionPolicy::kSecondChance;
  CacheManager cm(opts);

  constexpr uint64_t kPids = 400;
  for (uint64_t pid = 0; pid < kPids; ++pid) cm.Insert(pid, 64);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&cm, &stop] {
      uint64_t pid = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        cm.Touch(pid);
        pid = (pid + 7) % kPids;
      }
    });
  }
  // The evictor loop mirrors the maintenance eviction step: pick victims
  // under the shard latches, erase them while readers keep touching the
  // same pids.
  int sweeps = 0;
  while (cm.OverBudget() && sweeps < 64) {
    uint64_t over = cm.resident_bytes() - 64 * 100;
    for (mapping::PageId pid : cm.PickVictims(over)) cm.Erase(pid);
    ++sweeps;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_FALSE(cm.OverBudget());
  // Accounting stayed consistent through the races.
  uint64_t bytes = 0;
  for (const auto& [pid, sz] : cm.ResidentEntries()) bytes += sz;
  EXPECT_EQ(bytes, cm.resident_bytes());
  EXPECT_EQ(cm.stats().resident_bytes, cm.resident_bytes());
}

TEST(CacheConcurrencyTest, SampledTouchesCountAndStaySafe) {
  CacheOptions opts;
  opts.memory_budget_bytes = ~0ull;
  opts.touch_sample = 8;
  CacheManager cm(opts);
  for (uint64_t pid = 0; pid < 64; ++pid) cm.Insert(pid, 16);

  constexpr int kThreads = 4;
  constexpr int kTouchesPerThread = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cm] {
      for (int i = 0; i < kTouchesPerThread; ++i) {
        cm.Touch(static_cast<uint64_t>(i) % 64);
      }
    });
  }
  for (auto& th : threads) th.join();

  auto s = cm.stats();
  EXPECT_EQ(s.touches, static_cast<uint64_t>(kThreads) * kTouchesPerThread);
  // Roughly 7 of 8 touches take the counted fast path (thread-phase
  // offsets make it inexact across joins, never more than 1-in-8 full).
  EXPECT_GE(s.touches_sampled, s.touches / 2);
  EXPECT_LT(s.touches_sampled, s.touches);
}

TEST(EpochConcurrencyTest, RetireReclaimHammer) {
  EpochManager epochs;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::atomic<uint64_t> freed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&epochs, &freed] {
      for (int i = 0; i < kPerThread; ++i) {
        epochs.Enter();
        int* obj = new int(i);
        epochs.Retire([obj, &freed] {
          delete obj;
          freed.fetch_add(1, std::memory_order_relaxed);
        });
        epochs.Exit();
        if ((i & 255) == 0) epochs.TryReclaim();
      }
    });
  }
  for (auto& th : threads) th.join();

  epochs.ReclaimAll();
  EXPECT_EQ(freed.load(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(epochs.retired_count(), 0u);
  EXPECT_GT(epochs.reclaim_batches(), 0u);
  EXPECT_EQ(epochs.reclaimed_items(), freed.load());
}

TEST(EpochConcurrencyTest, GuardedReadersNeverSeeFreedObject) {
  EpochManager epochs;
  struct Boxed {
    std::atomic<uint64_t> value{0};
  };
  std::atomic<Boxed*> current{new Boxed()};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&epochs, &current, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        epochs.Enter();
        Boxed* b = current.load(std::memory_order_acquire);
        // Under TSan/ASan this dereference is the assertion: the writer
        // retires swapped-out boxes, and the epoch must keep them alive
        // while we hold the guard.
        b->value.load(std::memory_order_relaxed);
        epochs.Exit();
      }
    });
  }
  for (int round = 0; round < 5000; ++round) {
    auto* fresh = new Boxed();
    fresh->value.store(static_cast<uint64_t>(round),
                       std::memory_order_relaxed);
    Boxed* old = current.exchange(fresh, std::memory_order_acq_rel);
    epochs.Retire([old] { delete old; });
    if ((round & 63) == 0) epochs.TryReclaim();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  epochs.ReclaimAll();
  delete current.load();
  EXPECT_EQ(epochs.retired_count(), 0u);
}

}  // namespace
}  // namespace costperf::llama
