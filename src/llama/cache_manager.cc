#include "llama/cache_manager.h"

#include <algorithm>
#include <limits>

namespace costperf::llama {
namespace {

// splitmix64 finalizer — spreads sequential pids across shards and probe
// positions.
inline uint64_t Mix(uint64_t x) {
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 32;
  return x;
}

constexpr size_t kInitialTableCapacity = 64;
constexpr uint32_t kDefaultShards = 16;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::string EvictionPolicyName(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kCostBased:
      return "cost-based";
  }
  return "?";
}

CacheManager::CacheManager(CacheOptions options)
    : options_(options),
      clock_(options.clock ? options.clock : RealClock::Global()) {
  const size_t n =
      RoundUpPow2(options_.shards ? options_.shards : kDefaultShards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    MutexLock lk(&shard->mu);
    shard->tables.push_back(std::make_unique<Table>(kInitialTableCapacity));
    shard->table.store(shard->tables.back().get(), std::memory_order_release);
    shards_.push_back(std::move(shard));
  }
}

CacheManager::Shard& CacheManager::ShardFor(mapping::PageId pid) const {
  return *shards_[Mix(pid) & shard_mask_];
}

CacheManager::Slot* CacheManager::FindSlot(const Shard& shard,
                                           mapping::PageId pid) const {
  Table* t = shard.table.load(std::memory_order_acquire);
  const uint64_t h = Mix(pid);
  size_t i = (h >> 16) & t->mask;
  for (size_t probes = 0; probes <= t->mask;
       ++probes, i = (i + 1) & t->mask) {
    Slot& s = t->slots[i];
    const uint64_t cur = s.pid.load(std::memory_order_acquire);
    if (cur == pid) return &s;
    if (cur == kEmptyPid) return nullptr;
    // Tombstone or another pid: keep probing.
  }
  return nullptr;
}

void CacheManager::GrowTable(Shard& shard) {
  Table* old = shard.table.load(std::memory_order_relaxed);
  auto grown = std::make_unique<Table>(old->capacity() * 2);
  Table* t = grown.get();
  for (size_t i = 0; i <= old->mask; ++i) {
    Slot& src = old->slots[i];
    const uint64_t pid = src.pid.load(std::memory_order_relaxed);
    if (pid == kEmptyPid || pid == kTombstonePid) continue;
    size_t j = (Mix(pid) >> 16) & t->mask;
    while (t->slots[j].pid.load(std::memory_order_relaxed) != kEmptyPid) {
      j = (j + 1) & t->mask;
    }
    Slot& dst = t->slots[j];
    dst.bytes.store(src.bytes.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    dst.tick.store(src.tick.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    dst.seq.store(src.seq.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    dst.pid.store(pid, std::memory_order_release);
  }
  // Tombstones are dropped by the rehash.
  shard.used = shard.live;
  // The old table stays alive in shard.tables: a lock-free reader may
  // still be probing it. Its entries go stale, which is benign — Touch
  // through a stale slot only loses advisory recency metadata.
  shard.tables.push_back(std::move(grown));
  shard.table.store(t, std::memory_order_release);
}

CacheManager::Slot* CacheManager::FindOrClaimSlot(Shard& shard,
                                                  mapping::PageId pid,
                                                  bool* claimed_tombstone) {
  *claimed_tombstone = false;
  Table* t = shard.table.load(std::memory_order_relaxed);
  // Keep load factor below 3/4 counting tombstones, so probes terminate.
  if ((shard.used + 1) * 4 >= t->capacity() * 3) {
    GrowTable(shard);
    t = shard.table.load(std::memory_order_relaxed);
  }
  const uint64_t h = Mix(pid);
  size_t i = (h >> 16) & t->mask;
  Slot* tombstone = nullptr;
  for (size_t probes = 0; probes <= t->mask;
       ++probes, i = (i + 1) & t->mask) {
    Slot& s = t->slots[i];
    const uint64_t cur = s.pid.load(std::memory_order_relaxed);
    if (cur == pid) return &s;
    if (cur == kTombstonePid) {
      if (tombstone == nullptr) tombstone = &s;
      continue;
    }
    if (cur == kEmptyPid) {
      if (tombstone != nullptr) {
        *claimed_tombstone = true;
        return tombstone;
      }
      return &s;
    }
  }
  // Unreachable: load factor is kept below capacity.
  *claimed_tombstone = tombstone != nullptr;
  return tombstone;
}

void CacheManager::Insert(mapping::PageId pid, uint64_t bytes) {
  Shard& shard = ShardFor(pid);
  MutexLock lk(&shard.mu);
  bool claimed_tombstone = false;
  Slot* s = FindOrClaimSlot(shard, pid, &claimed_tombstone);
  const uint64_t now = clock_->NowNanos();
  const uint64_t seq = lru_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (s->pid.load(std::memory_order_relaxed) == pid) {
    // Re-insert of a resident page: treat as resize + touch (MRU).
    const uint64_t old = s->bytes.load(std::memory_order_relaxed);
    shard.resident_bytes.fetch_add(bytes - old, std::memory_order_relaxed);
    s->bytes.store(bytes, std::memory_order_relaxed);
    s->tick.store(now, std::memory_order_relaxed);
    s->seq.store(seq, std::memory_order_relaxed);
    return;
  }
  s->bytes.store(bytes, std::memory_order_relaxed);
  s->tick.store(now, std::memory_order_relaxed);
  s->seq.store(seq, std::memory_order_relaxed);
  s->pid.store(pid, std::memory_order_release);
  shard.live++;
  if (!claimed_tombstone) shard.used++;
  shard.resident_bytes.fetch_add(bytes, std::memory_order_relaxed);
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

int CacheManager::TouchCellIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kTouchCells;
  return static_cast<int>(idx);
}

namespace {
// Single-writer cell increment: relaxed load+store, no RMW.
inline void BumpCell(std::atomic<uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}
}  // namespace

void CacheManager::Touch(mapping::PageId pid) {
  TouchCell& cell = touch_cells_[TouchCellIndex()];
  BumpCell(cell.touches);
  if (options_.touch_sample > 1) {
    // Sampled fast path: 1-in-N touches do the full probe + recency
    // update; the rest return after counting. A hot page is touched
    // often enough that some full touch refreshes its tick before it
    // ages into the victim set.
    thread_local uint32_t tls_touch_round = 0;
    if (++tls_touch_round < options_.touch_sample) {
      BumpCell(cell.sampled);
      return;
    }
    tls_touch_round = 0;
  }
  Shard& shard = ShardFor(pid);
  Slot* s = FindSlot(shard, pid);
  if (s == nullptr) return;
  const uint64_t now = clock_->NowNanos();
  const uint64_t prev = s->tick.load(std::memory_order_relaxed);
  s->tick.store(now, std::memory_order_relaxed);
  // Accumulate the inter-reference gap into this thread's cell: the
  // mean gap is the measured access interval the five-minute-rule
  // breakeven gets compared against. Racing touches can double-count or
  // drop a gap — advisory statistics, like ticks.
  if (prev != 0 && now > prev) {
    cell.dram_interval_nanos.store(
        cell.dram_interval_nanos.load(std::memory_order_relaxed) +
            (now - prev),
        std::memory_order_relaxed);
    BumpCell(cell.dram_interval_samples);
  }
}

void CacheManager::Resize(mapping::PageId pid, uint64_t new_bytes) {
  Shard& shard = ShardFor(pid);
  MutexLock lk(&shard.mu);
  Slot* s = FindSlot(shard, pid);
  if (s == nullptr) return;
  const uint64_t old = s->bytes.load(std::memory_order_relaxed);
  s->bytes.store(new_bytes, std::memory_order_relaxed);
  shard.resident_bytes.fetch_add(new_bytes - old, std::memory_order_relaxed);
}

void CacheManager::Erase(mapping::PageId pid) {
  Shard& shard = ShardFor(pid);
  MutexLock lk(&shard.mu);
  Slot* s = FindSlot(shard, pid);
  if (s != nullptr) EraseSlot(shard, s);
}

void CacheManager::EraseSlot(Shard& shard, Slot* s) {
  const uint64_t bytes = s->bytes.load(std::memory_order_relaxed);
  // Tombstone keeps the probe chain intact for concurrent readers.
  s->pid.store(kTombstonePid, std::memory_order_release);
  shard.live--;
  shard.resident_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  shard.evictions.fetch_add(1, std::memory_order_relaxed);
}

bool CacheManager::Contains(mapping::PageId pid) const {
  return FindSlot(ShardFor(pid), pid) != nullptr;
}

uint64_t CacheManager::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->resident_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

bool CacheManager::SwingOut(mapping::PageId pid,
                            const std::function<bool()>& swing) {
  Shard& shard = ShardFor(pid);
  MutexLock lk(&shard.mu);
  if (!swing()) return false;
  Slot* s = FindSlot(shard, pid);
  if (s != nullptr) EraseSlot(shard, s);
  return true;
}

std::vector<CacheManager::VictimCandidate> CacheManager::Sweep(
    size_t limit) {
  std::vector<VictimCandidate> out;
  if (limit == 0) return out;
  out.reserve(std::min<size_t>(limit, 1024));
  constexpr uint64_t kSlotMask = (uint64_t{1} << kHandSlotBits) - 1;
  const uint64_t hand = hand_.load(std::memory_order_relaxed);
  const size_t first_shard = (hand >> kHandSlotBits) & shard_mask_;
  const size_t first_slot = hand & kSlotMask;
  // The hand's shard from the hand on, every other shard whole, then the
  // hand's shard again up to the hand: each slot at most once. Tables
  // only grow, so a slot index the hand kept stays in range; a table
  // retired mid-sweep is still readable, and its entries are re-checked
  // by the caller like any other pick.
  const size_t n = shards_.size();
  for (size_t step = 0; step <= n; ++step) {
    const size_t si = (first_shard + step) & shard_mask_;
    const Table* t = shards_[si]->table.load(std::memory_order_acquire);
    const size_t end =
        step == n ? std::min(first_slot, t->capacity()) : t->capacity();
    for (size_t i = step == 0 ? first_slot : 0; i < end; ++i) {
      const Slot& s = t->slots[i];
      const uint64_t pid = s.pid.load(std::memory_order_acquire);
      if (pid == kEmptyPid || pid == kTombstonePid) continue;
      const VictimCandidate c{pid, s.bytes.load(std::memory_order_relaxed),
                              s.tick.load(std::memory_order_relaxed),
                              s.seq.load(std::memory_order_relaxed)};
      // The payload reads stay before the re-load: a slot erased or
      // re-claimed meanwhile is dropped rather than reported with a
      // mixed payload.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.pid.load(std::memory_order_relaxed) != pid) continue;
      out.push_back(c);
      if (out.size() == limit) {
        hand_.store((static_cast<uint64_t>(si) << kHandSlotBits) | (i + 1),
                    std::memory_order_relaxed);
        return out;
      }
    }
  }
  return out;
}

std::vector<CacheManager::VictimCandidate> CacheManager::Sample(size_t k) {
  // Saturating: the unbounded PickVictims sweeps the whole cache.
  const size_t limit = k > std::numeric_limits<size_t>::max() / kSampleFactor
                           ? std::numeric_limits<size_t>::max()
                           : k * kSampleFactor;
  std::vector<VictimCandidate> sample = Sweep(limit);
  const size_t keep = std::min(k, sample.size());
  // (tick, seq) ascending is exact LRU order, coldest first: every Insert
  // and full Touch refreshes tick; seq breaks same-tick ties by insertion
  // order.
  std::partial_sort(sample.begin(), sample.begin() + keep, sample.end(),
                    [](const VictimCandidate& a, const VictimCandidate& b) {
                      return a.tick != b.tick ? a.tick < b.tick
                                              : a.seq < b.seq;
                    });
  sample.resize(keep);
  return sample;
}

std::vector<mapping::PageId> CacheManager::PickVictims(uint64_t want_bytes) {
  return PickVictims(want_bytes, std::numeric_limits<size_t>::max());
}

std::vector<mapping::PageId> CacheManager::PickVictims(uint64_t want_bytes,
                                                       size_t max_pages) {
  // The sample holds at most max_pages entries.
  const std::vector<VictimCandidate> order = Sample(max_pages);
  // Read after the sweep, so no tick it saw is newer than `now`.
  const uint64_t now = clock_->NowNanos();
  const uint64_t breakeven_nanos =
      static_cast<uint64_t>(options_.breakeven_interval_seconds * 1e9);
  std::vector<mapping::PageId> victims;
  uint64_t picked = 0;
  size_t i = 0;
  // First pass, cost-based only: every page idle past breakeven is worth
  // evicting regardless of budget — its DRAM rental now exceeds the cost
  // of an SS operation on its next access (paper §4.2). The sample is
  // recency-ordered, so stop at the first page younger than breakeven.
  if (options_.policy == EvictionPolicy::kCostBased) {
    for (; i < order.size() && now - order[i].tick > breakeven_nanos; ++i) {
      victims.push_back(order[i].pid);
      picked += order[i].bytes;
    }
  }
  // The budget is a hard constraint: take LRU order until it is covered.
  for (; i < order.size() && picked < want_bytes; ++i) {
    victims.push_back(order[i].pid);
    picked += order[i].bytes;
  }
  return victims;
}

std::vector<mapping::PageId> CacheManager::PickDemotionCandidates(
    size_t max_pages, double min_idle_seconds) {
  std::vector<mapping::PageId> out;
  const std::vector<VictimCandidate> order = Sample(max_pages);
  const uint64_t now = clock_->NowNanos();
  const uint64_t min_idle_nanos =
      static_cast<uint64_t>(min_idle_seconds * 1e9);
  // Coldest-first; stop at the first page younger than the idle floor —
  // everything after it in the sample is younger still.
  for (const VictimCandidate& c : order) {
    if (now - c.tick < min_idle_nanos) break;
    out.push_back(c.pid);
  }
  return out;
}

std::vector<std::pair<mapping::PageId, uint64_t>>
CacheManager::ResidentEntries() const {
  std::vector<std::pair<mapping::PageId, uint64_t>> out;
  for (const auto& shard : shards_) {
    MutexLock lk(&shard->mu);
    Table* t = shard->table.load(std::memory_order_relaxed);
    for (size_t i = 0; i <= t->mask; ++i) {
      const Slot& s = t->slots[i];
      const uint64_t pid = s.pid.load(std::memory_order_relaxed);
      if (pid == kEmptyPid || pid == kTombstonePid) continue;
      out.emplace_back(pid, s.bytes.load(std::memory_order_relaxed));
    }
  }
  return out;
}

CacheStats CacheManager::stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    s.insertions += shard->insertions.load(std::memory_order_relaxed);
    s.evictions += shard->evictions.load(std::memory_order_relaxed);
    s.resident_bytes += shard->resident_bytes.load(std::memory_order_relaxed);
    MutexLock lk(&shard->mu);
    s.resident_pages += shard->live;
  }
  for (const TouchCell& cell : touch_cells_) {
    s.touches += cell.touches.load(std::memory_order_relaxed);
    s.touches_sampled += cell.sampled.load(std::memory_order_relaxed);
    s.dram_interval_nanos +=
        cell.dram_interval_nanos.load(std::memory_order_relaxed);
    s.dram_interval_samples +=
        cell.dram_interval_samples.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace costperf::llama
