#ifndef COSTPERF_CORE_KV_STORE_H_
#define COSTPERF_CORE_KV_STORE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_checker.h"
#include "common/slice.h"
#include "common/status.h"
#include "core/batch.h"

namespace costperf::core {

// Store health. kDegraded means the store has shed write availability
// after persistent device write failures: reads still serve resident and
// previously flushed data, writes fail fast with the original IoError.
// An aggregate (ShardedStore) is degraded when any shard is.
enum class HealthStatus {
  kHealthy = 0,
  kDegraded = 1,
};

inline const char* HealthStatusName(HealthStatus h) {
  return h == HealthStatus::kHealthy ? "healthy" : "degraded";
}

// Structured operation/IO counters common to every KvStore. Benches and
// tests consume these fields directly instead of parsing DebugString().
// "hits" are operations completed purely in memory (the paper's MM ops);
// "misses" needed at least one secondary-storage read (SS ops) — for a
// pure main-memory store misses is always zero.
struct KvStoreStats {
  uint64_t reads = 0;          // Get + Scan operations
  uint64_t writes = 0;         // Put + Delete operations
  uint64_t hits = 0;           // ops served without any flash read (MM)
  uint64_t misses = 0;         // ops that required a flash read (SS)
  uint64_t io_reads = 0;       // device read I/Os
  uint64_t io_writes = 0;      // device write I/Os
  uint64_t bytes_read = 0;     // device bytes read
  uint64_t bytes_written = 0;  // device bytes written
  uint64_t memory_bytes = 0;   // resident DRAM footprint
  uint64_t io_retries = 0;     // transient I/O errors absorbed by retry
  HealthStatus health = HealthStatus::kHealthy;

  // Hot-path contention visibility (so future PRs can see serialization
  // without a profiler): lock-free cache-touch hits, epoch reclamation
  // batches, and log group-append batching.
  uint64_t cache_touches = 0;          // lock-free Touch fast-path hits
  uint64_t cache_touches_sampled = 0;  // of which: ref-bit-only (sampled)
  uint64_t epoch_reclaim_batches = 0;  // reclaim passes that freed memory
  uint64_t epoch_reclaimed_items = 0;  // total retired deleters run
  uint64_t log_append_groups = 0;      // completed append fill groups
  // Append group sizes, bucketed 1, 2, 3-4, 5-8, 9-16, 17+.
  static constexpr size_t kLogGroupBuckets = 6;
  std::array<uint64_t, kLogGroupBuckets> log_group_size_hist{};

  // Batched-surface visibility: how much traffic arrives through the
  // batch API and how well composites (ShardedStore) group it. A wire
  // server whose pipelined windows reach the batched store paths shows up
  // here as multiget_keys >> multiget_batches with
  // multiget_shard_groups << multiget_keys (one shard visit serving many
  // keys). Plain stores leave these 0; ShardedStore fills them.
  uint64_t multiget_batches = 0;       // batched MultiGet calls served
  uint64_t multiget_keys = 0;          // keys across those calls
  uint64_t multiget_shard_groups = 0;  // per-shard group visits
  uint64_t writebatch_batches = 0;     // batched WriteBatch calls served
  uint64_t writebatch_entries = 0;     // entries across those calls
  uint64_t writebatch_shard_groups = 0;

  // Maintenance attribution: who paid for eviction/GC/consolidation.
  // foreground_maintenance_ops counts maintenance passes executed on an
  // application thread (inline mode, or a background-mode fallback) —
  // with background maintenance active it stays 0 in steady state. The
  // background_* work counters below count what the maintenance step did
  // on whichever thread ran it.
  uint64_t foreground_maintenance_ops = 0;
  uint64_t background_maintenance_steps = 0;  // scheduler worker steps
  uint64_t background_pages_evicted = 0;
  uint64_t background_gc_segments = 0;
  uint64_t background_consolidations = 0;
  uint64_t background_leaf_flushes = 0;
  // Write backpressure: bounded foreground stalls taken while eviction
  // debt exceeded the stall budget, and the total time spent in them.
  uint64_t write_stalls = 0;
  uint64_t stall_micros_total = 0;

  // Three-tier hierarchy (DRAM -> compressed-SS -> SS, §7.2 / Fig. 8).
  // Occupancy (point-in-time), traffic (cumulative), and the per-tier
  // access-interval accumulators that make the five-minute-rule breakeven
  // a *measured* quantity. Stores without a tier leave these 0.
  uint64_t tier_dram_pages = 0;
  uint64_t tier_dram_bytes = 0;
  uint64_t tier_css_pages = 0;
  uint64_t tier_css_bytes = 0;          // compressed (stored) footprint
  uint64_t tier_css_hits = 0;           // loads served by compressed records
  uint64_t tier_demotions = 0;          // DRAM -> CSS
  uint64_t tier_promotions = 0;         // CSS -> DRAM
  uint64_t tier_demotion_refusals = 0;  // policy said CSS would be a loss
  uint64_t tier_css_fallthroughs = 0;   // CSS -> plain SS (budget overflow)
  uint64_t css_raw_bytes = 0;           // pre-compression bytes demoted
  uint64_t css_stored_bytes = 0;        // compressed bytes demoted
  uint64_t tier_dram_interval_nanos = 0;    // sum of DRAM touch gaps
  uint64_t tier_dram_interval_samples = 0;
  uint64_t tier_css_interval_nanos = 0;     // sum of CSS reheat gaps
  uint64_t tier_css_interval_samples = 0;
  uint64_t background_pages_demoted = 0;
  uint64_t background_pages_promoted = 0;

  // Five-minute-rule breakeven T_i (Eq. 6), seconds: modeled at the
  // paper's §4.1 constants, and measured at the mean demoted page size
  // (css_raw_bytes / tier_demotions; 0 before any demotion). Likewise the
  // Fig. 8 CSS-vs-SS crossover, ops/sec, at the modeled vs the measured
  // compression ratio. Computed from the additive accumulators, so a
  // summed (sharded) KvStoreStats yields the exact aggregate.
  double ModeledTiSeconds() const;
  double MeasuredTiSeconds() const;
  double ModeledCssBreakevenOps() const;
  double MeasuredCssBreakevenOps() const;

  // Measured compression ratio across all demotions (1.0 before any).
  double MeasuredCompressionRatio() const {
    return css_raw_bytes == 0 ? 1.0
                              : static_cast<double>(css_stored_bytes) /
                                    static_cast<double>(css_raw_bytes);
  }
  // Mean measured inter-access gap per tier, seconds (0 with no samples).
  double MeanDramIntervalSeconds() const {
    return tier_dram_interval_samples == 0
               ? 0.0
               : static_cast<double>(tier_dram_interval_nanos) * 1e-9 /
                     static_cast<double>(tier_dram_interval_samples);
  }
  double MeanCssIntervalSeconds() const {
    return tier_css_interval_samples == 0
               ? 0.0
               : static_cast<double>(tier_css_interval_nanos) * 1e-9 /
                     static_cast<double>(tier_css_interval_samples);
  }

  // Fraction of classified ops that missed (the paper's F). 0 when the
  // store classified nothing.
  double MissFraction() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / total;
  }

  KvStoreStats& operator+=(const KvStoreStats& other);

  // One-line "kv: reads=... writes=..." rendering; the canonical body of
  // DebugString().
  std::string ToString() const;
};

// The library's public key-value abstraction. Implemented by
// CachingStore (Bw-tree over LLAMA over the simulated SSD — the paper's
// data caching system), MemoryStore (MassTree — the paper's main
// memory system), and ShardedStore (hash-partitioned composition of
// either, the concurrent execution substrate). Workload generators and
// benches target this interface so all systems run identical workloads.
class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(const Slice& key, const Slice& value) = 0;
  virtual Result<std::string> Get(const Slice& key) = 0;
  // Out-param read: copies the value into *value_out, whose capacity
  // survives across calls — a read-heavy loop pays one memcpy per hit
  // instead of a fresh heap allocation per Result<std::string>. The
  // default adapts the Result overload; hot-path stores override it.
  virtual Status Get(const Slice& key, std::string* value_out);
  virtual Status Delete(const Slice& key) = 0;
  virtual Status Scan(
      const Slice& start, size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) = 0;

  // Batched point lookups, the canonical batch read surface: fills
  // out->statuses[i]/out->values[i] for keys[i], reusing the result's
  // value buffers across calls (no per-key allocation in steady state).
  // The returned Status is out->FirstError(): Ok unless some key hit a
  // real error — NotFound is reported per key, not as a call failure.
  // The default loops over the out-param Get(); ShardedStore overrides
  // it to group keys per shard (one shard visit per touched shard
  // instead of one per key).
  virtual Status MultiGet(std::span<const std::string> keys,
                          const ReadOptions& options, BatchReadResult* out);
  Status MultiGet(std::span<const std::string> keys, BatchReadResult* out) {
    return MultiGet(keys, ReadOptions(), out);
  }

  // Lowest-level batched read surface: each op names a key and the
  // caller-owned value/status slots it fills (see BatchGetOp). MultiGet
  // routes through this. Index-backed stores override it with the
  // miss-interleaved batch probe (Bw-tree MultiGetBatch / MassTree
  // LookupBatch) so a group of point reads overlaps its descent cache
  // misses instead of serializing them; the default loops the
  // out-param Get(). NotFound is a per-op status, never a call failure.
  virtual void BatchGet(BatchGetOp* ops, size_t count);

  // Batched upserts, the canonical batch write surface: one status per
  // entry in input order via *out (nothing is swallowed after the first
  // failure — that was the old contract's flaw). Returns
  // out->FirstError() for callers that only need the old single-status
  // view. The default loops over Put(); ShardedStore groups entries per
  // shard and merges per-shard outcomes back into input order.
  virtual Status WriteBatch(std::span<const KvEntry> entries,
                            const WriteOptions& options,
                            BatchWriteResult* out);
  Status WriteBatch(std::span<const KvEntry> entries, BatchWriteResult* out) {
    return WriteBatch(entries, WriteOptions(), out);
  }

  // True when Get/MultiGet may be called concurrently with any other
  // operation on this store without external locking. CachingStore's
  // read path is latch-free end to end (Bw-tree mapping table, lock-free
  // cache touches, epoch-protected memory), so it returns true;
  // compositions like ShardedStore use this to skip their per-shard
  // latch on reads.
  virtual bool ConcurrentSafe() const { return false; }

  // Resident DRAM footprint of the store (data + index + bookkeeping).
  virtual uint64_t MemoryFootprintBytes() const = 0;

  // Structured counters for reports and cost-model calibration.
  virtual KvStoreStats Stats() const = 0;

  // Health of each independent failure domain, in stable shard order.
  // Single-shard stores report one entry (their Stats().health);
  // compositions like ShardedStore report one per shard so a serving
  // layer can tell "one shard lost its log device" from "everything is
  // down" and degrade write availability per key subset.
  virtual std::vector<HealthStatus> PerShardHealth() const {
    return {Stats().health};
  }

  // Human-readable counters for reports and debug dumps. The base
  // rendering is Stats().ToString(); implementations append component
  // detail (tree/device/cache lines). Display-only by contract: it is
  // not a format — parse nothing out of it, consume Stats() instead.
  // (The old StatsString() name, which callers had started parsing, is
  // gone; this replacement makes the display-only contract part of the
  // name.)
  virtual std::string DebugString() const { return Stats().ToString(); }

  // Gives the store a chance to run maintenance (eviction, GC, epoch
  // reclamation). Called periodically by workload runners.
  virtual void Maintain() {}

  // Debug hook into the analysis layer (src/analysis/): runs every
  // structural invariant checker the implementation supports and returns
  // the violations found — empty means healthy. Assumes the store is
  // quiescent; meant for tests and debug sweeps, never the hot path. The
  // base implementation has no structure to check.
  virtual std::vector<analysis::Violation> CheckInvariants() { return {}; }
};

}  // namespace costperf::core

#endif  // COSTPERF_CORE_KV_STORE_H_
