#ifndef COSTPERF_LLAMA_CACHE_MANAGER_H_
#define COSTPERF_LLAMA_CACHE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

// Which tier of the paper's three-level hierarchy (§7.2 / Fig. 8) a
// tracked page currently occupies. kDram pages have a live in-memory
// delta chain; kCss pages live only as a compressed record on secondary
// storage but stay tracked here so the tiering policy can see their
// recency and compressed footprint. Pages that fall all
// the way to plain SS are simply erased from the cache manager.
enum class CacheTier : uint8_t {
  kDram = 0,
  kCss = 1,
};

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
  // Compressed-secondary-storage tier occupancy and traffic.
  uint64_t css_pages = 0;
  uint64_t css_bytes = 0;    // compressed (stored) footprint
  uint64_t promotions = 0;   // CSS -> DRAM transitions (reheats)
  // Per-tier access-interval accumulators: sum of (touch - previous
  // touch) gaps in nanoseconds, and how many gaps were sampled. The
  // mean interval is the store's *measured* inter-reference time, the
  // input the five-minute-rule breakeven is compared against.
  uint64_t dram_interval_nanos = 0;
  uint64_t dram_interval_samples = 0;
  uint64_t css_interval_nanos = 0;
  uint64_t css_interval_samples = 0;

  double MeanDramIntervalSeconds() const {
    return dram_interval_samples == 0
               ? 0.0
               : static_cast<double>(dram_interval_nanos) * 1e-9 /
                     static_cast<double>(dram_interval_samples);
  }
  double MeanCssIntervalSeconds() const {
    return css_interval_samples == 0
               ? 0.0
               : static_cast<double>(css_interval_nanos) * 1e-9 /
                     static_cast<double>(css_interval_samples);
  }
};

// Resident-set accounting and victim selection for the data cache. The
// cache manager does not hold page contents — the Bw-tree owns those via
// the mapping table; this class decides *which* logical pages should be
// resident, which is the knob the paper's whole cost analysis is about.
//
// Concurrency: sharded design. Pages hash to one of S shards, each an
// open-addressing table of fixed slots. The hot-path operations —
// Touch, Contains, IdleSeconds — are lock-free: they probe the slot
// table through an acquire-load of the published pid and then read or
// write the per-entry atomics (last-touch tick) with relaxed ordering.
// Structural mutations (Insert/Erase/Resize/growth) take a short
// per-shard mutex. Victim selection takes none: a pick sweeps the slot
// tables lock-free from a per-manager hand, shard after shard, until it
// has seen kSampleFactor entries of the wanted tier per page it needs
// (or every slot once), and returns the coldest of that sample (the
// hottest, for promotion). A tier that fits in one sample is picked in
// exact LRU order; a larger one in approximate (CLOCK-like) order, and
// successive picks sweep on from where the last one stopped, so every
// page is seen within ceil(n / sample) picks. Picks are advisory:
// callers re-check each page before acting on it.
//
// Memory-ordering contract: a slot's payload fields (bytes, tick, seq,
// tier) are written before its pid is store-released; readers
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

  // Page became resident (DRAM tier) with the given footprint. If pid is
  // currently tracked in the CSS tier this IS the promotion path: the
  // entry flips to kDram and byte accounting moves between tiers, so the
  // tree's ordinary load-and-install flow promotes compressed pages
  // without any tier-specific calls.
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
  bool OverBudget() const;

  // A bounded pick for k pages samples kSampleFactor * k entries of its
  // tier and orders only that sample.
  static constexpr size_t kSampleFactor = 8;

  // Picks victims whose combined size is >= want_bytes (or until the
  // cache would be empty), in policy order. Does NOT erase them — the
  // caller evicts each page (flushing if dirty) and then calls Erase.
  // For kCostBased with want_bytes == 0, returns every page whose idle
  // time exceeds breakeven (proactive cost-driven eviction). Unbounded:
  // sweeps and orders the whole DRAM tier.
  std::vector<mapping::PageId> PickVictims(uint64_t want_bytes);
  // Quota-bounded variant for incremental background eviction: stops
  // after max_pages victims even if want_bytes is not yet covered (the
  // caller re-runs on its next maintenance step), and picks them from a
  // sample of kSampleFactor * max_pages DRAM-tier entries.
  std::vector<mapping::PageId> PickVictims(uint64_t want_bytes,
                                           size_t max_pages);

  // Seconds since pid was last touched; negative if unknown. Lock-free.
  double IdleSeconds(mapping::PageId pid) const;

  // --- Tier hierarchy (DESIGN.md §3.7) -----------------------------------

  // Moves a tracked page between tiers; `bytes` is its footprint in the
  // destination tier (compressed size for kCss, raw chain size for
  // kDram). Returns false (no accounting change) if pid is untracked or
  // already in `tier`. kCss -> kDram through here counts a promotion,
  // same as the Insert path.
  bool SetTier(mapping::PageId pid, CacheTier tier, uint64_t bytes);
  // Current tier; kDram if untracked (use Contains to distinguish).
  // Lock-free.
  CacheTier GetTier(mapping::PageId pid) const;
  // Moves a page out of DRAM in step with the swing of its mapping word:
  // under pid's shard latch, runs `swing` (the caller's CAS of the word
  // to a flash address) and, only when it lands, moves the entry to the
  // CSS tier charged `css_bytes` (a demotion) or erases it (nullopt: a
  // full eviction). A load that swings the word back promotes through
  // Insert, which takes the same latch after its own CAS, so it always
  // lands after this move. Moved after the latch is dropped, a demotion
  // could label a page that a reader had already reloaded CSS, and an
  // eviction could drop a reloaded page's entry. Returns whether the
  // swing landed.
  bool SwingOut(mapping::PageId pid, std::optional<uint64_t> css_bytes,
                const std::function<bool()>& swing);

  uint64_t css_resident_bytes() const;

  // The three tier picks below choose from a sample of kSampleFactor *
  // max_pages entries, like the bounded PickVictims, and change no state
  // but the sweep's hand.

  // Coldest-first DRAM-tier pages idle for at least min_idle_seconds:
  // the demotion work list. The caller runs DemotePage (which may
  // refuse) and the tier flips via SetTier.
  std::vector<mapping::PageId> PickDemotionCandidates(
      size_t max_pages, double min_idle_seconds);
  // Coldest-first CSS-tier pages covering want_bytes: when the CSS tier
  // itself is over budget these fall through to plain SS (their durable
  // record already exists — the caller just drops them with EraseCss).
  std::vector<mapping::PageId> PickCssVictims(uint64_t want_bytes,
                                              size_t max_pages);
  // Hottest-first CSS-tier pages: promotion candidates for when DRAM has
  // headroom and background work can pay decompression ahead of demand.
  std::vector<mapping::PageId> PickPromotionCandidates(size_t max_pages);
  // Drops pid only while it is a CSS-tier entry, so a page a reader
  // promoted after it was picked stays tracked. Returns whether it did.
  bool EraseCss(mapping::PageId pid);

  // Snapshot of (pid, stored bytes) for every CSS-tier page, for
  // invariant auditing against the records the mapping entries name.
  std::vector<std::pair<mapping::PageId, uint64_t>> CssEntries() const;

  CacheStats stats() const;
  const CacheOptions& options() const { return options_; }

  // Snapshot of (pid, bytes) for every page the cache believes resident
  // in DRAM. For invariant auditing: the analysis layer cross-checks
  // this set against the mapping table and the tree's resident chains —
  // CSS-tier pages are excluded because their mapping word is a flash
  // address, not a live chain.
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
    // CacheTier the entry occupies (raw uint32 so lock-free readers can
    // load it relaxed like the other payload fields).
    std::atomic<uint32_t> tier{0};
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
    // Stored (compressed) footprint and page count of this shard's
    // CSS-tier entries; disjoint from resident_bytes, which is DRAM-tier
    // only (`live` counts both tiers).
    std::atomic<uint64_t> css_bytes{0};
    std::atomic<uint64_t> css_pages{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> promotions{0};
  };

  // Touch counters are striped per thread (not per shard): every touch
  // bumps its calling thread's private cell with a relaxed load+store,
  // so the hot path never does an atomic RMW on a shared line. stats()
  // sums the cells. Threads hash onto kTouchCells cells; two threads
  // sharing a cell can drop increments (counters only).
  struct alignas(64) TouchCell {
    std::atomic<uint64_t> touches{0};
    std::atomic<uint64_t> sampled{0};
    // Per-tier inter-reference gap accumulators (nanoseconds / gap
    // count), fed by the full-touch path reading the slot's previous
    // tick before refreshing it. Same single-writer load+store
    // discipline as the counters above.
    std::atomic<uint64_t> dram_interval_nanos{0};
    std::atomic<uint64_t> dram_interval_samples{0};
    std::atomic<uint64_t> css_interval_nanos{0};
    std::atomic<uint64_t> css_interval_samples{0};
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
  // and collects up to `limit` entries of `tier`, visiting each slot at
  // most once. Leaves the hand just past the last entry collected.
  std::vector<VictimCandidate> Sweep(CacheTier tier, size_t limit);
  // The k coldest entries (the k hottest with hottest_first) of a sweep
  // of kSampleFactor * k entries of `tier`, in (tick, seq) order: exact
  // LRU order within the sample.
  std::vector<VictimCandidate> Sample(CacheTier tier, size_t k,
                                      bool hottest_first = false);
  // Tombstones a found slot and releases its tier's accounting.
  void EraseSlot(Shard& shard, Slot* s) REQUIRES(shard.mu);
  // SetTier on a found slot.
  bool SetSlotTier(Shard& shard, Slot* s, CacheTier tier, uint64_t bytes)
      REQUIRES(shard.mu);

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
