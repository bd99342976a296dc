#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "bwtree/page_codec.h"
#include "common/random.h"
#include "core/caching_store.h"
#include "core/sharded_store.h"
#include "fault/fault_injector.h"

namespace costperf {
namespace {

// Fault-injection tests: device-level read/write errors must surface as
// IoError through every layer without corrupting in-memory state, and the
// stack must keep working once the fault clears.

class FaultyStackTest : public ::testing::Test {
 protected:
  void Build() {
    storage::SsdOptions dev;
    dev.capacity_bytes = 128ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    injector_ = std::make_unique<fault::FaultInjector>(17);
    injector_->Attach(device_.get());
    log_ = std::make_unique<llama::LogStructuredStore>(device_.get());
    bwtree::BwTreeOptions topts;
    topts.log_store = log_.get();
    // Keep retries fast: unit tests sleep microseconds, not milliseconds.
    topts.io_retry.initial_backoff_nanos = 1'000;
    tree_ = std::make_unique<bwtree::BwTree>(topts);
  }

  // Declaration order matters: the injector detaches (dtor) while the
  // device is still alive.
  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<bwtree::BwTree> tree_;
};

TEST_F(FaultyStackTest, LogStoreSurfacesWriteErrors) {
  Build();
  injector_->set_persistent_write_failure(true);
  // Appends buffer fine; the flush hits the device and fails.
  ASSERT_TRUE(log_->Append(1, Slice("x")).ok());
  Status s = log_->Flush();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
}

TEST_F(FaultyStackTest, LogStoreSurfacesReadErrors) {
  Build();
  auto addr = log_->Append(1, Slice("payload"));
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(log_->Flush().ok());
  // Break reads on the live device — runtime-armed, no rebuild needed.
  injector_->set_persistent_read_failure(true);
  std::string image;
  Status s = log_->Read(*addr, &image);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  // Clear the fault: the same address reads back intact.
  injector_->set_persistent_read_failure(false);
  ASSERT_TRUE(log_->Read(*addr, &image).ok());
  EXPECT_EQ(image, "payload");
}

TEST_F(FaultyStackTest, TreeGetReturnsIoErrorOnDeadDevice) {
  Build();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        tree_->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (auto pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
  }
  // Kill the read channel: loads must fail loudly (after exhausting
  // bounded retries), never crash or return stale data.
  injector_->set_persistent_read_failure(true);
  auto r = tree_->Get("k7");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
  EXPECT_GT(tree_->stats().io_retry_give_ups, 0u);
  // Fault clears: everything reads again.
  injector_->set_persistent_read_failure(false);
  for (int i = 0; i < 200; ++i) {
    auto v = tree_->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
}

TEST_F(FaultyStackTest, IntermittentReadErrorsRetryCleanly) {
  Build();
  // 85% of reads fail: most page loads need the tree's internal retry
  // (4 attempts ~ 48% success per Get), and many need the outer loop too.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(tree_->FlushAll().ok());
  for (auto pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->EvictPage(pid).ok());
  }
  injector_->set_read_error_rate(0.85);

  int give_ups = 0;
  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    bool ok = false;
    for (int attempt = 0; attempt < 200 && !ok; ++attempt) {
      auto r = tree_->Get(key);
      if (r.ok()) {
        EXPECT_EQ(*r, "v");
        ok = true;
      } else {
        EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
        ++give_ups;
      }
    }
    ASSERT_TRUE(ok) << key << " unreadable after 200 attempts";
    // Re-evict so the next key also needs a load.
    auto pid = tree_->LeafOf(key);
    ASSERT_TRUE(pid.ok());
    (void)tree_->EvictPage(*pid);
  }
  // The retry layer absorbed transient errors invisibly...
  EXPECT_GT(tree_->stats().io_retries, 0u) << "retries never engaged";
  // ...and at this error rate some Gets still exhausted their budget.
  EXPECT_GT(give_ups, 0) << "fault injection did not fire";
  EXPECT_EQ(tree_->stats().io_retry_give_ups, (uint64_t)give_ups);
}

TEST_F(FaultyStackTest, TransientFlushErrorsAbsorbedByRetry) {
  Build();
  // Half of writes fail; the flush path's bounded retry should ride
  // through without surfacing an error.
  injector_->set_write_error_rate(0.5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Put("k" + std::to_string(i), std::string(100, 'x')).ok());
  }
  Status s = tree_->FlushAll();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(tree_->stats().io_retries, 0u);
  EXPECT_GT(injector_->stats().write_errors, 0u);
}

TEST_F(FaultyStackTest, WriteErrorsDoNotLoseResidentData) {
  Build();
  injector_->set_persistent_write_failure(true);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Put("k" + std::to_string(i), "v").ok());
  }
  // Flushes fail at the device...
  Status s = tree_->FlushAll();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  // ...but every record is still resident and readable.
  for (int i = 0; i < 2000; ++i) {
    auto r = tree_->Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
  }
  // And once the device heals, the same data flushes fine.
  injector_->set_persistent_write_failure(false);
  EXPECT_TRUE(tree_->FlushAll().ok());
}

TEST_F(FaultyStackTest, CorruptionDetectedByChecksumOnLoad) {
  Build();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Put("key" + std::to_string(i), "value").ok());
  }
  ASSERT_TRUE(tree_->FlushAll().ok());
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_TRUE(tree_->EvictPage(pids[0]).ok());

  // Bit rot over the page's media region. Corruption is NOT transient:
  // the load must fail without burning the whole retry budget.
  ASSERT_TRUE(
      injector_
          ->CorruptRange(llama::LogStructuredStore::kSegmentHeaderBytes + 40,
                         512, /*bits=*/9)
          .ok());
  uint64_t retries_before = tree_->stats().io_retries;
  auto r = tree_->Get("key7");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption() || r.status().IsIoError())
      << r.status().ToString();
  EXPECT_EQ(tree_->stats().io_retries, retries_before)
      << "corruption must not be retried";
}

// Fails the first `fail_reads` device reads with a transient IoError
// and counts every read the device is asked for.
class CountingReadFaults : public storage::IoFaultHook {
 public:
  explicit CountingReadFaults(int fail_reads) : fail_reads_(fail_reads) {}
  Status OnRead(uint64_t, size_t) override {
    return reads_.fetch_add(1) < fail_reads_
               ? Status::IoError("injected read error")
               : Status::Ok();
  }
  WriteOutcome OnWrite(uint64_t, size_t) override { return {}; }
  int reads() const { return reads_.load(); }

 private:
  const int fail_reads_;
  std::atomic<int> reads_{0};
};

// A tree whose one leaf is evicted onto a sealed log segment, so a Get
// makes exactly one device read per attempt of its page load.
class RetryContractTest : public ::testing::Test {
 protected:
  static constexpr int kMaxAttempts = 5;

  RetryContractTest() {
    storage::SsdOptions dev;
    dev.capacity_bytes = 64ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    log_ = std::make_unique<llama::LogStructuredStore>(device_.get());
    bwtree::BwTreeOptions topts;
    topts.log_store = log_.get();
    topts.io_retry.max_attempts = kMaxAttempts;
    topts.io_retry.sleep = [](uint64_t) {};
    tree_ = std::make_unique<bwtree::BwTree>(topts);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(tree_->Put("k" + std::to_string(i), "v").ok());
    }
    EXPECT_TRUE(tree_->FlushAll().ok());
    for (auto pid : tree_->LeafPageIds()) {
      EXPECT_TRUE(
          tree_->EvictPage(pid).ok());
    }
  }
  ~RetryContractTest() override { device_->set_fault_hook(nullptr); }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<bwtree::BwTree> tree_;
};

TEST_F(RetryContractTest, PersistentReadFailureSpendsTheWholeBudget) {
  CountingReadFaults faults(/*fail_reads=*/1 << 30);
  device_->set_fault_hook(&faults);
  auto r = tree_->Get("k3");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
  EXPECT_EQ(faults.reads(), kMaxAttempts);
  EXPECT_EQ(tree_->stats().io_retries, uint64_t{kMaxAttempts - 1});
  EXPECT_EQ(tree_->stats().io_retry_give_ups, 1u);
  EXPECT_EQ(tree_->stats().page_loads, 0u);
}

TEST_F(RetryContractTest, OneTransientFailureCountsOneRetry) {
  CountingReadFaults faults(/*fail_reads=*/1);
  device_->set_fault_hook(&faults);
  auto r = tree_->Get("k3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "v");
  EXPECT_EQ(faults.reads(), 2);
  EXPECT_EQ(tree_->stats().io_retries, 1u);
  EXPECT_EQ(tree_->stats().io_retry_give_ups, 0u);
  EXPECT_EQ(tree_->stats().page_loads, 1u);
}

TEST(FaultInjectionTest, CachePressureWithTinyBudgetStaysCorrect) {
  core::CachingStoreOptions opts;
  opts.memory_budget_bytes = 64 << 10;  // absurdly small: constant churn
  opts.device.capacity_bytes = 128ull << 20;
  opts.device.max_iops = 0;
  opts.tree.max_page_bytes = 1024;
  opts.maintenance_interval_ops = 16;
  core::CachingStore store(opts);

  Random rng(44);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 5000; ++op) {
    std::string key = "k" + std::to_string(rng.Uniform(2000));
    if (rng.Bernoulli(0.6)) {
      std::string val = std::string(200, 'x') +
                        std::to_string(rng.Next() % 1000);
      ASSERT_TRUE(store.Put(key, val).ok());
      model[key] = val;
    } else {
      auto r = store.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(r.status().IsNotFound());
      } else {
        ASSERT_TRUE(r.ok()) << key << " " << r.status().ToString();
        EXPECT_EQ(*r, it->second);
      }
    }
  }
  EXPECT_GT(store.tree()->stats().full_evictions, 100u);
}

// --- degraded mode ---------------------------------------------------------

class DegradedModeTest : public ::testing::Test {
 protected:
  void Build(uint32_t threshold = 3) {
    storage::SsdOptions dev;
    dev.capacity_bytes = 64ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    injector_ = std::make_unique<fault::FaultInjector>(23);
    injector_->Attach(device_.get());
    core::CachingStoreOptions opts;
    opts.external_device = device_.get();
    opts.degrade_after_write_failures = threshold;
    opts.tree.io_retry.max_attempts = 2;  // fail fast in tests
    opts.tree.io_retry.initial_backoff_nanos = 1'000;
    store_ = std::make_unique<core::CachingStore>(opts);
  }

  // Drives the store into kDegraded via repeated failing checkpoints.
  void Degrade() {
    injector_->set_persistent_write_failure(true);
    for (int i = 0; i < 16 && store_->health() == core::HealthStatus::kHealthy;
         ++i) {
      ASSERT_TRUE(store_->Put("dirty" + std::to_string(i), "x").ok())
          << "puts are memory-only until degradation trips";
      EXPECT_FALSE(store_->Checkpoint().ok());
    }
    ASSERT_EQ(store_->health(), core::HealthStatus::kDegraded);
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<core::CachingStore> store_;
};

TEST_F(DegradedModeTest, PersistentWriteFailuresDegradeToReadOnly) {
  Build();
  ASSERT_TRUE(store_->Put("stable", "value").ok());
  ASSERT_TRUE(store_->Checkpoint().ok());
  EXPECT_EQ(store_->health(), core::HealthStatus::kHealthy);
  Degrade();

  // Writes fail fast with the original media error...
  Status w = store_->Put("rejected", "x");
  EXPECT_TRUE(w.IsIoError()) << w.ToString();
  EXPECT_TRUE(store_->Delete("stable").IsIoError());
  EXPECT_TRUE(store_->Checkpoint().IsIoError());
  // ...while reads keep serving.
  auto r = store_->Get("stable");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "value");
  EXPECT_EQ(store_->Stats().health, core::HealthStatus::kDegraded);
}

TEST_F(DegradedModeTest, ClearingFaultAloneDoesNotHeal) {
  Build();
  Degrade();
  injector_->Reset();  // media is healthy again...
  // ...but the store stays degraded until explicitly reset: silent
  // self-healing would hide the incident from the operator.
  EXPECT_EQ(store_->health(), core::HealthStatus::kDegraded);
  EXPECT_TRUE(store_->Put("still", "rejected").IsIoError());

  store_->ResetHealth();
  EXPECT_EQ(store_->health(), core::HealthStatus::kHealthy);
  ASSERT_TRUE(store_->Put("back", "alive").ok());
  ASSERT_TRUE(store_->Checkpoint().ok());
  EXPECT_EQ(*store_->Get("back"), "alive");
}

TEST_F(DegradedModeTest, ResetWhileFaultPersistsJustDegradesAgain) {
  Build();
  Degrade();
  store_->ResetHealth();  // premature: the device is still broken
  EXPECT_EQ(store_->health(), core::HealthStatus::kHealthy);
  for (int i = 0; i < 16 && store_->health() == core::HealthStatus::kHealthy;
       ++i) {
    (void)store_->Put("again" + std::to_string(i), "x");
    (void)store_->Checkpoint();
  }
  EXPECT_EQ(store_->health(), core::HealthStatus::kDegraded);
}

TEST_F(DegradedModeTest, TransientErrorsBelowThresholdDoNotDegrade) {
  Build(/*threshold=*/3);
  ASSERT_TRUE(store_->Put("k", "v").ok());
  // One failing checkpoint, then the device heals: the success resets
  // the consecutive-failure streak.
  injector_->set_persistent_write_failure(true);
  ASSERT_TRUE(store_->Put("k2", "v").ok());
  EXPECT_FALSE(store_->Checkpoint().ok());
  injector_->set_persistent_write_failure(false);
  ASSERT_TRUE(store_->Checkpoint().ok());
  EXPECT_EQ(store_->health(), core::HealthStatus::kHealthy);
}

TEST_F(DegradedModeTest, ZeroThresholdDisablesHealthTracking) {
  Build(/*threshold=*/0);
  injector_->set_persistent_write_failure(true);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store_->Put("k" + std::to_string(i), "v").ok());
    EXPECT_FALSE(store_->Checkpoint().ok());
  }
  EXPECT_EQ(store_->health(), core::HealthStatus::kHealthy)
      << "threshold 0 must never degrade";
  // Writes keep being attempted (and keep failing at the device, not at
  // the health gate).
  injector_->set_persistent_write_failure(false);
  ASSERT_TRUE(store_->Checkpoint().ok());
}

TEST(ShardedHealthTest, OneDegradedShardDoesNotTakeDownTheOthers) {
  core::CachingStoreOptions per_shard;
  per_shard.device.capacity_bytes = 32ull << 20;
  per_shard.device.max_iops = 0;
  per_shard.tree.io_retry.max_attempts = 2;
  per_shard.tree.io_retry.initial_backoff_nanos = 1'000;
  auto store = core::ShardedStore::OfCaching(2, per_shard);

  // Find keys landing on each shard.
  std::string key0, key1;
  for (int i = 0; key0.empty() || key1.empty(); ++i) {
    std::string k = "key" + std::to_string(i);
    (store->ShardIndexOf(Slice(k)) == 0 ? key0 : key1) = k;
  }

  ASSERT_TRUE(store->Put(Slice(key0), Slice("v0")).ok());
  ASSERT_TRUE(store->Put(Slice(key1), Slice("v1")).ok());

  // Break shard 0's device only.
  auto* shard0 = static_cast<core::CachingStore*>(store->shard(0));
  fault::FaultInjector fi(29);
  fi.Attach(shard0->device());
  fi.set_persistent_write_failure(true);
  for (int i = 0; i < 16 && shard0->health() == core::HealthStatus::kHealthy;
       ++i) {
    ASSERT_TRUE(store->Put(Slice(key0 + std::to_string(i)), Slice("x")).ok());
    (void)shard0->Checkpoint();
  }
  ASSERT_EQ(shard0->health(), core::HealthStatus::kDegraded);

  auto health = store->PerShardHealth();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0], core::HealthStatus::kDegraded);
  EXPECT_EQ(health[1], core::HealthStatus::kHealthy);
  // The aggregate reports degraded (any shard down)...
  EXPECT_EQ(store->Stats().health, core::HealthStatus::kDegraded);
  // ...but only shard 0's key range lost write availability.
  EXPECT_TRUE(store->Put(Slice(key0), Slice("nope")).IsIoError());
  ASSERT_TRUE(store->Put(Slice(key1), Slice("v1b")).ok());
  EXPECT_EQ(*store->Get(Slice(key1)), "v1b");
  EXPECT_EQ(*store->Get(Slice(key0)), "v0") << "reads still serve";

  fi.Detach();
}

// A torn checkpoint can leave the on-media fence chain structurally
// inconsistent: a split's source page survives with its PRE-split image
// (claiming the whole key range) while the new sibling's image was also
// adopted. The fast recovery path must reject that snapshot and the
// salvage rebuild must merge it newest-wins without losing a key. The log
// state is crafted directly so the test is deterministic — it is exactly
// what a tear between the sibling flush and the source re-flush leaves
// behind (FlushAll orders siblings first for this reason).
TEST(SalvageRecoveryTest, TornSplitCheckpointFallsBackToLosslessSalvage) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 64ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  llama::LogStructuredStore log(&device);

  // Checkpoint 1: pid 1 is the sole leaf and holds every key.
  bwtree::LeafBuilder full(Slice(), bwtree::kInvalidPageId);
  full.Add("a", "1");
  full.Add("b", "2");
  full.Add("c", "3");
  full.Add("d", "4");
  ASSERT_TRUE(log.Append(1, full.Finish()->image()).ok());
  ASSERT_TRUE(log.Flush().ok());

  // Torn checkpoint 2 after pid 1 split into (pid 1, pid 2): the sibling
  // image landed, the source's re-image was torn off the adopted prefix.
  bwtree::LeafBuilder sib(Slice(), bwtree::kInvalidPageId);
  sib.Add("c", "3x");
  sib.Add("d", "4x");
  ASSERT_TRUE(log.Append(2, sib.Finish()->image()).ok());
  ASSERT_TRUE(log.Flush().ok());

  // Both adopted images claim ranges up to +infinity, so the fast path
  // sees two sibling-chain heads and must fall back to salvage.
  bwtree::BwTreeOptions topts;
  topts.log_store = &log;
  bwtree::BwTree tree(topts);
  ASSERT_TRUE(tree.RecoverFromStore().ok());
  EXPECT_EQ(tree.stats().salvage_recoveries, 1u);

  // Newest-wins: the moved keys read from the sibling's (later) image,
  // the rest from the checkpoint image. Nothing is lost.
  EXPECT_EQ(*tree.Get("a"), "1");
  EXPECT_EQ(*tree.Get("b"), "2");
  EXPECT_EQ(*tree.Get("c"), "3x");
  EXPECT_EQ(*tree.Get("d"), "4x");
}

}  // namespace
}  // namespace costperf
