#ifndef COSTPERF_CORE_CACHING_STORE_H_
#define COSTPERF_CORE_CACHING_STORE_H_

#include <condition_variable>
#include <memory>
#include <string>

#include "bwtree/bwtree.h"
#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/kv_store.h"
#include "costmodel/advisor.h"
#include "llama/cache_manager.h"
#include "llama/log_store.h"
#include "maintenance/scheduler.h"
#include "storage/device.h"

namespace costperf::core {

struct CachingStoreOptions {
  // DRAM budget for resident leaf pages. 0 = unbounded (fully cached
  // Bw-tree, the §5 configuration).
  uint64_t memory_budget_bytes = 64ull << 20;
  llama::EvictionPolicy eviction_policy = llama::EvictionPolicy::kLru;
  // Breakeven interval for the cost-based policy; by default derived
  // from CostParams::PaperDefaults() via Eq. (6).
  double breakeven_interval_seconds = 45.0;
  // The compressed-secondary-storage tier (§7.2 / Fig. 8): with a
  // non-zero budget the store runs a live three-level hierarchy —
  // DRAM -> compressed-SS -> SS. Cold DRAM pages demote to a compressed
  // log record (still tracked by the cache manager, promoted back on
  // touch); CSS overflow falls through to plain SS; demotion refuses
  // pages whose measured compression ratio or reheat rate would make the
  // tier a loss.
  struct TierOptions {
    // Stored-byte budget for CSS-tier pages. 0 disables the tier.
    uint64_t css_budget_bytes = 0;
    // Only pages idle at least this long are demotion candidates.
    double demote_idle_seconds = 30.0;
    // Refuse demotion when compressed/raw exceeds this.
    double min_ratio = 0.85;
    // Refuse pages already promoted back out of CSS this many times.
    uint32_t max_reheats = 4;
    // Background promotion: pull the hottest CSS pages back to DRAM
    // while resident bytes sit below this fraction of the memory budget
    // (<= 0 disables proactive promotion; demand promotion on touch
    // always works).
    double promote_fill_floor = 0.7;
  };
  TierOptions tier;
  // Cache recency sampling: only every Nth Touch per thread reads the
  // clock and refreshes the recency tick; the rest just set the CLOCK
  // reference bit. 1 = exact recency on every touch (see
  // CacheOptions::touch_sample).
  uint32_t cache_touch_sample = 1;
  // Cache shard count override; 0 = CacheManager default.
  uint32_t cache_shards = 0;
  // Run maintenance every N operations.
  uint32_t maintenance_interval_ops = 256;
  // GC: maintenance collects log segments while the log's dead-space
  // fraction is at least log_dead_trigger (<= 0 disables GC), choosing
  // victims among sealed segments whose live fraction is at most
  // gc_live_threshold.
  double log_dead_trigger = 0.5;
  double gc_live_threshold = 0.9;
  // Merge adjacent leaves whose combined payload is below this fraction
  // of max_page_bytes during maintenance. 0 disables merging.
  double merge_fill_target = 0.0;
  // Degrade to read-only after this many consecutive write-path IoErrors
  // (put/delete/flush/evict/checkpoint). 0 disables health tracking.
  uint32_t degrade_after_write_failures = 3;

  // Background maintenance. Inactive by default: with scheduler == nullptr
  // and workers == 0 the store runs inline — Maintain() executes the
  // maintenance step on the calling thread every maintenance_interval_ops
  // operations. When active, the op path only *signals* pressure — an
  // atomic threshold check, never eviction/GC I/O — and scheduler worker
  // threads run the same step, quota-bounded, off the op path.
  struct BackgroundMaintenanceOptions {
    // External scheduler to register with (shared across stores/shards).
    // Not owned; must outlive the store.
    maintenance::MaintenanceScheduler* scheduler = nullptr;
    // When > 0 and no external scheduler is given, the store owns a
    // private scheduler with this many worker threads.
    uint32_t workers = 0;
    // Per-step work bounds for the owned scheduler (an external
    // scheduler applies its own) and for every Maintain() call.
    maintenance::MaintenanceQuota quota;
    // Signal when resident bytes exceed this fraction of the memory
    // budget (<= 0 disables the fill trigger; interval signals remain).
    // The log's dead space past log_dead_trigger signals too.
    double cache_fill_trigger = 0.9;
    // Write backpressure: foreground Put/Delete stalls (bounded) while
    // resident bytes exceed this multiple of the budget, giving the
    // background workers room to catch up instead of letting eviction
    // debt grow without bound. <= 0 disables stalling.
    double stall_trigger = 1.5;
    // Upper bound on a single foreground stall.
    uint32_t stall_max_wait_micros = 100000;
  };
  BackgroundMaintenanceOptions background;

  bwtree::BwTreeOptions tree;        // log_store/cache filled in by us
  storage::SsdOptions device;
  llama::LogStoreOptions log;
  Clock* clock = nullptr;
  // When set, the store attaches to this device instead of creating its
  // own — the restart path: reopen over the old media, then Recover().
  // Not owned; must outlive the store.
  storage::SsdDevice* external_device = nullptr;
};

// The paper's data caching system: Bw-tree data component over the LLAMA
// log-structured cache/storage subsystem over a (simulated) flash SSD.
class CachingStore : public KvStore,
                     private maintenance::BackgroundMaintainer {
 public:
  explicit CachingStore(CachingStoreOptions options = {});
  ~CachingStore() override;

  Status Put(const Slice& key, const Slice& value) override;
  Result<std::string> Get(const Slice& key) override;
  Status Get(const Slice& key, std::string* value_out) override;
  // Batched point reads through the Bw-tree's AMAC-interleaved
  // MultiGetBatch: a group of probes overlaps its mapping-table and
  // delta-chain cache misses instead of paying them serially. Advances
  // the maintenance op counter once per key, like N single Gets.
  void BatchGet(BatchGetOp* ops, size_t count) override;
  Status Delete(const Slice& key) override;
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override;

  // The read path is latch-free end to end: Bw-tree mapping-table reads,
  // lock-free cache touches, per-thread epoch retire lists. Writes and
  // maintenance coordinate internally (atomics, short per-shard cache
  // latches, try-lock maintenance), so no external serialization is
  // needed either.
  bool ConcurrentSafe() const override { return true; }

  uint64_t MemoryFootprintBytes() const override;
  KvStoreStats Stats() const override;
  std::string DebugString() const override;
  // Runs the maintenance step the scheduler runs, on the calling thread
  // with background.quota, repeating it while it reports more work (up to
  // kMaxMaintainSteps). Skips when another thread is maintaining.
  void Maintain() override;
  // Runs BwTreeValidator, MappingTableAuditor and LogStoreAuditor over
  // this store's components (quiescent stores only).
  std::vector<analysis::Violation> CheckInvariants() override;

  // Forces everything dirty to flash and the write buffer to the device.
  Status Checkpoint();
  // Rebuilds the tree from the attached device's log after a restart
  // (discards in-memory state; see BwTree::RecoverFromStore).
  Status Recover();
  // Evicts every leaf page (cold-cache state for miss-rate experiments).
  Status EvictAll();
  // Runs log-structure GC until no segment is below the live threshold.
  Status RunGc(double live_threshold);

  // Health: kDegraded after degrade_after_write_failures consecutive
  // write-path IoErrors. While degraded, reads serve resident and
  // previously flushed data as usual; Put/Delete/WriteBatch/Checkpoint
  // fail fast with the IoError that caused degradation, and maintenance
  // stops issuing flash writes. Clearing the underlying fault does NOT
  // auto-heal — call ResetHealth() once the media is confirmed usable.
  HealthStatus health() const;
  void ResetHealth();

  // Component access for benches and tests.
  bwtree::BwTree* tree() { return tree_.get(); }
  storage::SsdDevice* device() { return attached_device_; }
  llama::LogStructuredStore* log_store() { return log_.get(); }
  llama::CacheManager* cache() { return cache_.get(); }
  const CachingStoreOptions& options() const { return options_; }
  // Null when background maintenance is inactive (inline mode).
  maintenance::MaintenanceScheduler* maintenance_scheduler() {
    return scheduler_;
  }

 private:
  void MaybeMaintain();
  // Batched form of MaybeMaintain: advances the op counter by `count` in
  // one atomic add and replays every pacing boundary the jump crossed, so
  // a batch of N keys paces maintenance exactly like N single ops without
  // paying N shared-counter RMWs on the hot path.
  void NoteBatchOps(uint64_t count);
  // True when op number n crosses the maintenance_interval_ops pacing
  // boundary (single helper for the pow2-mask and modulo paths).
  bool IntervalCrossed(uint64_t n) const;
  // Number of pacing boundaries inside (before, after].
  uint64_t IntervalCrossings(uint64_t before, uint64_t after) const;
  // Background mode: threshold checks + Signal(); no maintenance I/O.
  void MaybeSignalPressure(uint64_t n);
  // The sampled cache-fill / stall / log-dead-space threshold checks
  // shared by the single-op and batched signal paths. Returns whether
  // any threshold wants a maintenance step.
  bool PressureThresholds();
  // Write backpressure: bounded stall while eviction debt exceeds the
  // stall budget. Called from Put/Delete before the tree write.
  void MaybeStallForDebt();
  // BackgroundMaintainer — runs on a scheduler worker thread.
  bool MaintenanceStep(const maintenance::MaintenanceQuota& quota) override;
  // The one maintenance step, shared by scheduler workers and Maintain():
  // at most `quota` of eviction, CSS tiering, GC and housekeeping. Returns
  // true when it knows more work remains.
  bool RunStep(const maintenance::MaintenanceQuota& quota)
      REQUIRES(maintenance_mu_);
  // Bound on the steps one Maintain() call repeats.
  static constexpr int kMaxMaintainSteps = 64;
  bool EvictStep(const maintenance::MaintenanceQuota& quota)
      REQUIRES(maintenance_mu_);
  // CSS tier maintenance: demotes cold DRAM pages (quota.compress_pages),
  // drops CSS overflow to plain SS, and promotes hot CSS pages back while
  // DRAM has headroom (quota.promote_pages). No-op when the tier is off.
  bool TierStep(const maintenance::MaintenanceQuota& quota)
      REQUIRES(maintenance_mu_);
  // Demote-before-evict decision for one victim: true when the page went
  // to the CSS tier (so plain eviction must be skipped).
  bool TryDemote(mapping::PageId pid) REQUIRES(maintenance_mu_);
  bool GcStep(const maintenance::MaintenanceQuota& quota)
      REQUIRES(maintenance_mu_);
  // One prepare-then-collect GC round: picks the coldest sealed segment at
  // or below victim_threshold, rewrites every page that is not simply
  // relocatable (PrepareSegmentForGc), then collects it. NotFound when no
  // segment is eligible. Collecting without the prepare step is unsafe:
  // a record can look dead to GcIsLive merely because the page's current
  // image is memory-only, and trimming it would destroy the only durable
  // copy.
  Status CollectOneSegment(double victim_threshold);
  void HousekeepingStep(const maintenance::MaintenanceQuota& quota)
      REQUIRES(maintenance_mu_);
  // Clears the stall flag and wakes stalled writers once resident bytes
  // are back under the stall budget.
  void ReleaseStallWaiters();
  // Ok when writable; the degradation-causing IoError once degraded.
  Status CheckWritable();
  // Health bookkeeping for a write-path status. An IoError grows the
  // failure streak (degrading at the threshold); `reset_on_ok` says
  // whether an OK from this call site is evidence of working media
  // (flush paths) or a possibly memory-only success (Put/Delete, which
  // must not mask concurrent flush failures).
  void NoteWriteOutcome(const Status& s, bool reset_on_ok);

  CachingStoreOptions options_;
  std::unique_ptr<storage::SsdDevice> device_;  // null when external
  storage::SsdDevice* attached_device_ = nullptr;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<llama::CacheManager> cache_;
  std::unique_ptr<bwtree::BwTree> tree_;
  std::atomic<uint64_t> op_counter_{0};
  // maintenance_interval_ops - 1 when the interval is a power of two
  // (the common case; lets MaybeMaintain test the counter with a mask
  // instead of a 64-bit division per op), 0 otherwise.
  uint64_t maintenance_mask_ = 0;
  // Single-admission gate for maintenance: concurrent callers whose op
  // count also crosses the interval skip (TryLock fails) instead of
  // double-running eviction/GC (the tree tolerates concurrent
  // flush/evict, but two eviction steps evict twice the intended
  // bytes). Rank 1 (outermost) in the global lock order: held across a
  // whole maintenance pass, which appends to the log and latches cache
  // shards underneath it (see common/lock_order.h).
  Mutex maintenance_mu_ ACQUIRED_BEFORE(lock_rank::kLogAppend);

  // Background maintenance state. scheduler_ is null in inline mode;
  // otherwise it points at either the caller-supplied scheduler or
  // owned_scheduler_. The destructor Deregisters before any component a
  // step touches is destroyed.
  maintenance::MaintenanceScheduler* scheduler_ = nullptr;
  std::unique_ptr<maintenance::MaintenanceScheduler> owned_scheduler_;
  maintenance::MaintenanceScheduler::Handle maint_handle_ = nullptr;
  // memory_budget_bytes with 0 mapped to ~0 (unbounded).
  uint64_t effective_budget_ = ~0ull;
  // Precomputed trigger thresholds (~0 / 0 = disabled) so the op-path
  // pressure check is integer compares on one resident_bytes read.
  uint64_t fill_trigger_bytes_ = ~0ull;
  uint64_t stall_limit_bytes_ = 0;
  // Resume point for the incremental consolidation/flush scan.
  mapping::PageId housekeeping_cursor_ GUARDED_BY(maintenance_mu_) = 0;

  // Backpressure: the flag is the op-path fast check (relaxed load per
  // Put/Delete); stall_mu_/stall_cv_ only come into play while actually
  // over the stall budget.
  std::atomic<bool> stall_flag_{false};
  // Never wraps another lock: Signal() runs before the stall wait, and
  // the scheduler queue mutex stays ordered after it (lock_order.h).
  Mutex stall_mu_ ACQUIRED_BEFORE(lock_rank::kSchedulerQueue);
  std::condition_variable_any stall_cv_;

  // Maintenance attribution stats. foreground_maintenance_ops_ counts
  // maintenance passes executed on an application thread — the steady
  // state in background mode keeps it at zero — and background_steps_
  // counts scheduler steps. The bg_* work counters count what the step
  // did, on whichever thread ran it.
  std::atomic<uint64_t> foreground_maintenance_ops_{0};
  std::atomic<uint64_t> background_steps_{0};
  std::atomic<uint64_t> bg_pages_evicted_{0};
  std::atomic<uint64_t> bg_pages_demoted_{0};
  std::atomic<uint64_t> bg_pages_promoted_{0};
  std::atomic<uint64_t> bg_css_fallthroughs_{0};
  std::atomic<uint64_t> bg_gc_segments_{0};
  std::atomic<uint64_t> bg_consolidations_{0};
  std::atomic<uint64_t> bg_leaf_flushes_{0};
  std::atomic<uint64_t> write_stalls_{0};
  std::atomic<uint64_t> stall_micros_total_{0};

  // Degraded-mode state. The streak/flag are atomics so the write hot
  // path pays one relaxed load when healthy; the triggering error (shown
  // to callers of failed writes) sits behind its own mutex.
  std::atomic<uint32_t> write_failure_streak_{0};
  std::atomic<bool> degraded_{false};
  mutable Mutex health_mu_;
  Status last_write_error_ GUARDED_BY(health_mu_);
};

}  // namespace costperf::core

#endif  // COSTPERF_CORE_CACHING_STORE_H_
