// Multithreaded stress for the lock-free hot paths added with the
// sharded cache: concurrent Touch/Insert/Erase/Contains against
// one CacheManager, touches racing table growth, eviction sweeps racing
// readers, and an epoch retire/reclaim hammer. These tests assert
// end-state consistency; their real value is running clean under
// -DCOSTPERF_SANITIZE=thread, which checks the memory-ordering contract
// (payload-before-pid publication, acquire probes, relaxed recency).

#include <atomic>
#include <chrono>
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
  // Readers: lock-free Touch/Contains over the full pid range, half of
  // which is being inserted/erased under their feet.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&cm, &stop, t] {
      uint64_t pid = static_cast<uint64_t>(t) * 17;
      while (!stop.load(std::memory_order_relaxed)) {
        pid = (pid + 13) % kPids;
        cm.Touch(pid);
        cm.Contains(pid);
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
  opts.policy = EvictionPolicy::kLru;
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
  // with a lock-free sweep, erase them while readers keep touching the
  // same pids.
  int sweeps = 0;
  while (cm.resident_bytes() > 64 * 100 && sweeps < 64) {
    uint64_t over = cm.resident_bytes() - 64 * 100;
    for (mapping::PageId pid : cm.PickVictims(over)) cm.Erase(pid);
    ++sweeps;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_LE(cm.resident_bytes(), 64u * 100);
  // Accounting stayed consistent through the races.
  uint64_t bytes = 0;
  for (const auto& [pid, sz] : cm.ResidentEntries()) bytes += sz;
  EXPECT_EQ(bytes, cm.resident_bytes());
  EXPECT_EQ(cm.stats().resident_bytes, cm.resident_bytes());
}

TEST(CacheConcurrencyTest, BoundedPicksRaceInsertEraseTouchAndGrowth) {
  CacheOptions opts;
  opts.memory_budget_bytes = ~0ull;
  opts.shards = 2;  // few shards: the inserts below grow every table
  CacheManager cm(opts);
  constexpr uint64_t kPids = 4096;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> picked{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  // The picker sweeps lock-free while slots are claimed, tombstoned and
  // copied into grown tables. A pick may name a page that has just left,
  // never one that was never inserted.
  threads.emplace_back([&] {
    auto check = [&](const std::vector<mapping::PageId>& pids) {
      picked.fetch_add(pids.size(), std::memory_order_relaxed);
      for (mapping::PageId pid : pids) {
        if (pid >= kPids) bad.fetch_add(1, std::memory_order_relaxed);
      }
    };
    while (!stop.load(std::memory_order_relaxed)) {
      check(cm.PickVictims(~0ull, 8));
      check(cm.PickDemotionCandidates(4, 0.0));
    }
  });
  threads.emplace_back([&] {
    uint64_t pid = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      cm.Touch(pid);
      pid = (pid + 7) % kPids;
    }
  });
  // Writer: grows the tables, then churns the odd pids out and back in,
  // resizing them on the way, until the picker has picked something.
  for (uint64_t pid = 0; pid < kPids; ++pid) cm.Insert(pid, 64);
  for (int round = 0;
       round < 4 || (picked.load(std::memory_order_relaxed) == 0 &&
                     round < 1000);
       ++round) {
    for (uint64_t pid = 1; pid < kPids; pid += 2) {
      cm.Resize(pid, 16);
      cm.Erase(pid);
      cm.Insert(pid, 64);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(picked.load(), 0u);
  for (uint64_t pid = 0; pid < kPids; ++pid) {
    ASSERT_TRUE(cm.Contains(pid)) << pid;
  }
  auto s = cm.stats();
  EXPECT_EQ(s.resident_pages, kPids);
  EXPECT_EQ(s.resident_bytes, kPids * 64);
}

// A load that swings a page's word back after an eviction's swing (a
// demotion's too: it is an eviction onto a compressed record) re-inserts
// it through Insert. That Insert must land after the entry's erase, or
// the reloaded page is left untracked, out of reach of every victim
// pick. The swing below holds the latch until the loader has had ample
// time to try its Insert.
TEST(CacheConcurrencyTest, PromotionAfterASwingLandsAfterTheMove) {
  CacheOptions opts;
  opts.memory_budget_bytes = ~0ull;
  CacheManager cm(opts);
  cm.Insert(7, 4096);
  std::atomic<bool> swung{false};
  std::thread loader([&] {
    while (!swung.load(std::memory_order_acquire)) std::this_thread::yield();
    cm.Insert(7, 4096);  // the reload
  });
  ASSERT_TRUE(cm.SwingOut(7, [&] {
    swung.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return true;
  }));
  loader.join();
  EXPECT_TRUE(cm.Contains(7));
  EXPECT_EQ(cm.resident_bytes(), 4096u);
  EXPECT_EQ(cm.stats().evictions, 1u);
  // A swing that does not land leaves the entry where it was.
  EXPECT_FALSE(cm.SwingOut(7, [] { return false; }));
  EXPECT_TRUE(cm.Contains(7));
  EXPECT_EQ(cm.resident_bytes(), 4096u);
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
