#ifndef COSTPERF_LLAMA_CACHE_MANAGER_H_
#define COSTPERF_LLAMA_CACHE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hot_path.h"
#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "mapping/mapping_table.h"

namespace costperf::llama {

// How the cache chooses eviction victims.
enum class EvictionPolicy {
  kLru,  // classic least-recently-used
  // The paper's §4.2 policy: evict pages whose idle time exceeds the
  // breakeven interval T_i from Eq. (6) — their continued DRAM rental
  // costs more than paying for an SS operation on next access. Falls back
  // to LRU order among eligible pages; under memory pressure with no page
  // past breakeven, evicts LRU anyway (budget is a hard constraint).
  kCostBased,
};

std::string EvictionPolicyName(EvictionPolicy p);

struct CacheOptions {
  uint64_t memory_budget_bytes = 64ull << 20;
  EvictionPolicy policy = EvictionPolicy::kLru;
  // Breakeven idle interval for kCostBased.
  double breakeven_interval_seconds = 45.0;
  // Touch sampling: with touch_sample == 1 every Touch refreshes the
  // last-access tick; with N > 1 only every Nth touch (per thread) does
  // the table probe and recency update, the rest just bump a counter and
  // return. Recency then has 1-in-N granularity; keep 1 when exact LRU
  // order matters.
  uint32_t touch_sample = 1;
  // Shard count; rounded up to a power of two. 0 = default (16).
  uint32_t shards = 0;
  Clock* clock = nullptr;  // defaults to RealClock::Global()
};

struct CacheStats {
  uint64_t insertions = 0;
  uint64_t touches = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_pages = 0;
  // Touches that took the sampled fast path (skipped: no table probe,
  // no clock read). touches counts every Touch call.
  uint64_t touches_sampled = 0;
  // Access-interval accumulator: sum of (touch - previous touch) gaps in
  // nanoseconds, and how many gaps were sampled. The mean interval is
  // the store's *measured* inter-reference time, the input the
  // five-minute-rule breakeven is compared against.
  uint64_t dram_interval_nanos = 0;
  uint64_t dram_interval_samples = 0;
};

// Resident-set accounting and victim selection for the data cache. The
// cache manager does not hold page contents — the Bw-tree owns those via
// the mapping table; this class decides *which* logical pages should be
// resident, which is the knob the paper's whole cost analysis is about.
// It tracks DRAM-resident pages only: a page that leaves DRAM leaves the
// table, and whether it now sits in CSS or SS is its record's form
// (DESIGN.md §3.7), not an entry here.
//
// Concurrency: sharded design. Pages hash to one of S shards, each an
// open-addressing table of fixed slots. The hot-path operations —
// Touch and Contains — are lock-free: they probe the slot table through
// an acquire-load of the published pid and then read or write the
// per-entry atomics (last-touch tick) with relaxed ordering. Structural
// mutations (Insert/Erase/Resize/growth) take a short per-shard mutex.
// Victim selection takes none: a pick sweeps the slot tables lock-free
// from a per-manager hand, shard after shard, until it has seen
// kSampleFactor entries per page it needs (or every slot once), and
// returns the coldest of that sample. A cache that fits in one sample is
// picked in exact LRU order; a larger one in approximate (CLOCK-like)
// order, and successive picks sweep on from where the last one stopped,
// so every page is seen within ceil(n / sample) picks. Picks are
// advisory: callers re-check each page before acting on it.
//
// Memory-ordering contract: a slot's payload fields (bytes, tick, seq)
// are written before its pid is store-released; readers
// acquire-load the pid and may then read the payload relaxed. Ticks are
// advisory recency metadata — concurrent updates race benignly (a lost
// Touch can only make a page look slightly colder).
// Outgrown tables are retired to the owning shard, not freed, so a
// lock-free reader can keep probing a stale table safely; retired memory
// is bounded by the live table's size (geometric growth).
//
// Epoch note: unlike the Bw-tree's delta chains, the cache manager needs
// no EpochManager and its readers carry no REQUIRES_EPOCH contracts —
// reclamation is designed out instead. Retired tables live until the
// manager dies (Shard::tables). That is the deliberate trade: a bounded
// amount of un-reclaimed table memory buys a guard-free Touch/Contains
// probe on every operation.
class CacheManager {
 public:
  explicit CacheManager(CacheOptions options = {});

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // Page became resident with the given footprint; a re-insert of a
  // tracked page acts as resize + touch.
  void Insert(mapping::PageId pid, uint64_t bytes);
  // Page was accessed (refreshes its last-touch tick). Lock-free.
  COSTPERF_HOT void Touch(mapping::PageId pid);
  // Page footprint changed (delta prepend, consolidation).
  void Resize(mapping::PageId pid, uint64_t new_bytes);
  // Page no longer resident (evicted or freed). No-op if absent.
  void Erase(mapping::PageId pid);
  // Lock-free.
  COSTPERF_HOT bool Contains(mapping::PageId pid) const;

  uint64_t resident_bytes() const;

  // A bounded pick for k pages samples kSampleFactor * k entries and
  // orders only that sample.
  static constexpr size_t kSampleFactor = 8;

  // Picks victims whose combined size is >= want_bytes (or until the
  // cache would be empty), in policy order. Does NOT erase them — the
  // caller evicts each page (flushing if dirty), and the eviction's
  // swing erases it (SwingOut). For kCostBased with want_bytes == 0,
  // returns every page whose idle time exceeds breakeven (proactive
  // cost-driven eviction). Unbounded: sweeps and orders the whole cache.
  std::vector<mapping::PageId> PickVictims(uint64_t want_bytes);
  // Quota-bounded variant for incremental background eviction: stops
  // after max_pages victims even if want_bytes is not yet covered (the
  // caller re-runs on its next maintenance step), and picks them from a
  // sample of kSampleFactor * max_pages entries.
  std::vector<mapping::PageId> PickVictims(uint64_t want_bytes,
                                           size_t max_pages);
  // Coldest-first pages idle for at least min_idle_seconds, from a
  // sample of kSampleFactor * max_pages entries like the bounded
  // PickVictims: the tiered store's proactive eviction list. Changes no
  // state but the sweep's hand.
  std::vector<mapping::PageId> PickDemotionCandidates(
      size_t max_pages, double min_idle_seconds);

  // Moves a page out of DRAM in step with the swing of its mapping word:
  // under pid's shard latch, runs `swing` (the caller's CAS of the word
  // to a flash address) and, only when it lands, erases the entry. A
  // load that swings the word back re-inserts the page through Insert,
  // which takes the same latch after its own CAS, so it always lands
  // after this erase. Erased after the latch is dropped, the entry of a
  // page a reader had already reloaded would be lost, and no victim pick
  // could reach that page again. Returns whether the swing landed.
  bool SwingOut(mapping::PageId pid, const std::function<bool()>& swing);

  CacheStats stats() const;
  const CacheOptions& options() const { return options_; }

  // Snapshot of (pid, bytes) for every page the cache believes resident
  // in DRAM. For invariant auditing: the analysis layer cross-checks
  // this set against the mapping table and the tree's resident chains.
  std::vector<std::pair<mapping::PageId, uint64_t>> ResidentEntries() const;

  size_t shard_count() const { return shards_.size(); }

 private:
  // Slot pid sentinels. kInvalidPageId doubles as "empty"; tombstones
  // keep linear-probe chains intact across Erase.
  static constexpr uint64_t kEmptyPid = mapping::kInvalidPageId;
  static constexpr uint64_t kTombstonePid = mapping::kInvalidPageId - 1;

  struct Slot {
    // Published last (release); readers acquire-load it before touching
    // the fields below.
    std::atomic<uint64_t> pid{kEmptyPid};
    std::atomic<uint64_t> bytes{0};
    // Last-access tick (Clock::NowNanos at the most recent full touch).
    std::atomic<uint64_t> tick{0};
    // Global insertion/re-insertion sequence; breaks recency ties among
    // pages whose ticks are equal, reproducing exact LRU order.
    std::atomic<uint64_t> seq{0};
  };

  struct Table {
    explicit Table(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    size_t capacity() const { return mask + 1; }
    const size_t mask;  // capacity - 1; capacity is a power of two
    const std::unique_ptr<Slot[]> slots;
  };

  struct alignas(64) Shard {
    // Short structural latch. Rank 3 in the global lock order: acquired
    // under the maintenance pass and after the log-append latch, never
    // the other way — holding a shard latch across a stalling append
    // would freeze this shard's Insert/Erase for the I/O's duration
    // (common/lock_order.h).
    mutable Mutex mu ACQUIRED_AFTER(lock_rank::kLogAppend)
        ACQUIRED_BEFORE(lock_rank::kSchedulerQueue);
    // Current table, readable without the mutex; swapped (under mu) on
    // growth with the old table pushed onto `tables`.
    std::atomic<Table*> table{nullptr};
    std::vector<std::unique_ptr<Table>> tables GUARDED_BY(mu);
    size_t live GUARDED_BY(mu) = 0;  // valid pids
    size_t used GUARDED_BY(mu) = 0;  // valid pids + tombstones
    std::atomic<uint64_t> resident_bytes{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
  };

  // Touch counters are striped per thread (not per shard): every touch
  // bumps its calling thread's private cell with a relaxed load+store,
  // so the hot path never does an atomic RMW on a shared line. stats()
  // sums the cells. Threads hash onto kTouchCells cells; two threads
  // sharing a cell can drop increments (counters only).
  struct alignas(64) TouchCell {
    std::atomic<uint64_t> touches{0};
    std::atomic<uint64_t> sampled{0};
    // Inter-reference gap accumulator (nanoseconds / gap count), fed by
    // the full-touch path reading the slot's previous tick before
    // refreshing it. Same single-writer load+store discipline as the
    // counters above.
    std::atomic<uint64_t> dram_interval_nanos{0};
    std::atomic<uint64_t> dram_interval_samples{0};
  };
  static constexpr int kTouchCells = 64;
  static int TouchCellIndex();

  // One entry a sweep saw: a slot's payload, read lock-free between two
  // loads of the same pid.
  struct VictimCandidate {
    mapping::PageId pid;
    uint64_t bytes;
    uint64_t tick;
    uint64_t seq;
  };

  Shard& ShardFor(mapping::PageId pid) const;
  // Lock-free probe of the shard's current table. Returns nullptr when
  // pid is absent.
  COSTPERF_HOT Slot* FindSlot(const Shard& shard, mapping::PageId pid) const;
  // Probe under shard.mu for insert: returns the slot holding pid, or a
  // free (empty/tombstone) slot to claim, growing the table if needed.
  Slot* FindOrClaimSlot(Shard& shard, mapping::PageId pid,
                        bool* claimed_tombstone) REQUIRES(shard.mu);
  void GrowTable(Shard& shard) REQUIRES(shard.mu);
  // Visits slots from hand_, shard after shard, without a shard mutex,
  // and collects up to `limit` entries, visiting each slot at most once.
  // Leaves the hand just past the last entry collected.
  std::vector<VictimCandidate> Sweep(size_t limit);
  // The k coldest entries of a sweep of kSampleFactor * k entries, in
  // (tick, seq) order: exact LRU order within the sample.
  std::vector<VictimCandidate> Sample(size_t k);
  // Tombstones a found slot and releases its bytes.
  void EraseSlot(Shard& shard, Slot* s) REQUIRES(shard.mu);

  const CacheOptions options_;
  Clock* clock_;
  // Monotonic recency tiebreak, bumped on insert/re-insert.
  std::atomic<uint64_t> lru_seq_{0};
  // The sweep's next slot: shard index above kHandSlotBits, slot index
  // below. The only state a pick writes; racing picks may sweep the same
  // slots, which only repeats a sample.
  static constexpr int kHandSlotBits = 48;
  std::atomic<uint64_t> hand_{0};
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable TouchCell touch_cells_[kTouchCells];
};

}  // namespace costperf::llama

#endif  // COSTPERF_LLAMA_CACHE_MANAGER_H_
