#ifndef COSTPERF_MAINTENANCE_SCHEDULER_H_
#define COSTPERF_MAINTENANCE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace costperf::maintenance {

// Per-step work bounds. A maintenance step is *incremental*: it does at
// most this much work, then returns so the worker can rotate to other
// registered stores. The numbers bound foreground interference (each
// unit can dirty the cache/log the foreground also touches), not
// correctness — a store signals again if pressure remains.
struct MaintenanceQuota {
  uint32_t evict_pages = 32;             // victims evicted per step
  uint32_t gc_segments = 1;              // log segments collected per step
  uint32_t consolidate_scan_pages = 128; // mapping slots scanned for long chains
  uint32_t flush_dirty_leaves = 8;       // dirty leaves flushed per step
  // Proactive demotions per step: evictions of pages idle past the
  // tier's demotion floor (a victim's eviction counts under evict_pages).
  uint32_t compress_pages = 16;
};

// A store-side source of background work. MaintenanceStep() runs on a
// scheduler worker thread, does at most `quota` work, and returns true
// when it knows more work remains (the scheduler re-queues the source
// without waiting for another signal). Implementations must be safe to
// run concurrently with the store's foreground operations and must make
// progress per step (a step that can do nothing returns false).
class BackgroundMaintainer {
 public:
  virtual ~BackgroundMaintainer() = default;
  virtual bool MaintenanceStep(const MaintenanceQuota& quota) = 0;
};

struct SchedulerStats {
  uint64_t steps = 0;      // MaintenanceStep invocations completed
  uint64_t signals = 0;    // Signal() calls that reached the queue path
  uint64_t coalesced = 0;  // Signal() calls absorbed by a pending flag
  uint64_t requeues = 0;   // steps that reported more work remaining
};

// Owns the background maintenance worker threads and the per-source
// signal/drain protocol. Foreground threads call Signal() from the op
// path; its fast path is a single atomic exchange when a signal is
// already pending (the common case under sustained pressure), so the
// op path never takes the scheduler mutex while maintenance is queued.
//
// Per-source state machine (pending / queued / running):
//   - Signal sets `pending`; if the source is neither queued nor mid-step
//     it is enqueued. Signals during a step are not lost: the worker
//     clears `pending` when the step starts and re-queues the source
//     afterwards if it was set again (or the step reported more work).
//   - Deregister tombstones the source and blocks until any in-flight
//     step finishes, so a store can destroy members the step touches
//     immediately after Deregister returns. Handles are never reused.
//   - Quiesce waits until no source is pending, queued, or running —
//     the quiescent point invariant checkers and checkpoints need.
//
// Shutdown ordering: Stop() (or the destructor) wakes and joins every
// worker; a mid-step worker finishes its step first, so after Stop no
// step is running. Stores must Deregister before the components their
// steps touch are destroyed; composites therefore declare the scheduler
// before their shards so it outlives them.
class MaintenanceScheduler {
 public:
  struct Options {
    uint32_t workers = 1;  // clamped to >= 1
    MaintenanceQuota quota;
  };

  struct Source;  // opaque to callers
  using Handle = Source*;

  MaintenanceScheduler();  // Options defaults
  explicit MaintenanceScheduler(Options options);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  // Registers a work source. The maintainer must stay valid until
  // Deregister(handle) returns.
  Handle Register(BackgroundMaintainer* maintainer);

  // Removes the source and blocks until any in-flight step on it has
  // finished. Safe to call with a null handle (no-op). After return the
  // scheduler holds no reference to the maintainer.
  void Deregister(Handle h);

  // Requests a maintenance step for the source. Cheap and lock-free when
  // a signal is already pending; otherwise takes the scheduler mutex
  // briefly to enqueue. Safe from any thread, including during steps.
  void Signal(Handle h);

  // Blocks until every signal has been drained: no source pending,
  // queued, or running. Returns immediately after Stop().
  void Quiesce();

  // Joins all workers. Queued work is dropped; in-flight steps complete.
  // Idempotent. Signal() after Stop() is a no-op.
  void Stop();

  SchedulerStats stats() const;
  const Options& options() const { return options_; }

  struct Source {
    BackgroundMaintainer* maintainer = nullptr;  // null once tombstoned
    // Set by Signal before the enqueue attempt; cleared by the worker at
    // step start. Atomic so the Signal fast path never takes mu_.
    std::atomic<bool> pending{false};
    bool queued = false;   // in queue_ (guarded by scheduler mu_)
    bool running = false;  // a worker is inside MaintenanceStep
  };

 private:
  void WorkerLoop();

  Options options_;
  // Queue latch. Rank 4 — the leaf of the global lock order: Signal()
  // runs on op paths (possibly under store locks) and workers release it
  // before running a step, so it must never wrap another lock on the
  // list (common/lock_order.h).
  mutable Mutex mu_ ACQUIRED_AFTER(lock_rank::kCacheShard);
  std::condition_variable_any work_cv_;  // queue became non-empty / stopping
  std::condition_variable_any idle_cv_;  // a step finished / source removed
  std::deque<Source*> queue_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Source>> sources_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  uint64_t steps_ GUARDED_BY(mu_) = 0;
  uint64_t signals_ GUARDED_BY(mu_) = 0;
  uint64_t requeues_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> coalesced_{0};
  Mutex join_mu_;  // serializes worker joins across concurrent Stop()s
  std::vector<std::thread> workers_ GUARDED_BY(join_mu_);
};

}  // namespace costperf::maintenance

#endif  // COSTPERF_MAINTENANCE_SCHEDULER_H_
