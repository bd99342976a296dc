#ifndef COSTPERF_CORE_KV_STORE_H_
#define COSTPERF_CORE_KV_STORE_H_

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

// Whether a counter only grows or reports current occupancy. A run's
// delta (KvStoreStats::operator-) subtracts a kCount and keeps the later
// value of a kLevel.
enum class StatKind { kCount, kLevel };

// The DebugString() line a KvStoreStats counter prints on.
enum class StatsLine { kKv, kContention, kBatch, kMaintenance, kTier };
inline constexpr int kStatsLines = static_cast<int>(StatsLine::kTier) + 1;

// Every KvStoreStats counter, one line each: X(name, kind, line), with
// kind a StatKind and line a StatsLine enumerator. The members,
// operator+=, operator-, ToString() and the wire STATS `store.<name>`
// keys are all generated from this list, so a new counter is one line
// here plus the code that counts it and fills it in Stats().
//
// "hits" are operations completed purely in memory (the paper's MM ops);
// "misses" needed at least one secondary-storage read (SS ops) — for a
// pure main-memory store misses is always zero.
#define COSTPERF_KV_STORE_STATS(X)                                         \
  X(reads, kCount, kKv)         /* Get + Scan operations */                \
  X(writes, kCount, kKv)        /* Put + Delete operations */              \
  X(hits, kCount, kKv)          /* ops served without any flash read */    \
  X(misses, kCount, kKv)        /* ops that required a flash read */       \
  X(io_reads, kCount, kKv)      /* device read I/Os */                     \
  X(io_writes, kCount, kKv)     /* device write I/Os */                    \
  X(bytes_read, kCount, kKv)    /* device bytes read */                    \
  X(bytes_written, kCount, kKv) /* device bytes written */                 \
  X(memory_bytes, kLevel, kKv)  /* resident DRAM footprint */              \
  X(io_retries, kCount, kKv)    /* transient I/O errors absorbed */        \
  /* Hot-path contention: lock-free cache touches, epoch reclamation */    \
  /* batches, and log group-append batching. */                            \
  X(cache_touches, kCount, kContention)         /* every cache Touch */    \
  X(cache_touches_sampled, kCount, kContention) /* of which skipped */     \
  X(epoch_reclaim_batches, kCount, kContention) /* passes that freed */    \
  X(epoch_reclaimed_items, kCount, kContention) /* retired deleters run */ \
  X(log_append_groups, kCount, kContention)     /* completed groups */     \
  /* Batched-surface visibility: how much traffic arrives through the */   \
  /* batch API and how well composites (ShardedStore) group it. A wire */  \
  /* server whose pipelined windows reach the batched store paths shows */ \
  /* multiget_keys >> multiget_batches with multiget_shard_groups << */    \
  /* multiget_keys. Plain stores leave these 0. */                         \
  X(multiget_batches, kCount, kBatch)        /* MultiGet calls served */   \
  X(multiget_keys, kCount, kBatch)           /* keys across those calls */ \
  X(multiget_shard_groups, kCount, kBatch)   /* per-shard group visits */  \
  X(writebatch_batches, kCount, kBatch)      /* WriteBatch calls served */ \
  X(writebatch_entries, kCount, kBatch)      /* entries across those */    \
  X(writebatch_shard_groups, kCount, kBatch)                               \
  /* Maintenance attribution: who paid for eviction/GC/consolidation. */   \
  /* foreground_maintenance_ops counts passes run on an application */     \
  /* thread (inline mode, or a background-mode fallback); with */          \
  /* background maintenance active it stays 0 in steady state. The */      \
  /* background_* counters count what the step did on whichever thread */  \
  /* ran it. Write stalls are the bounded foreground waits taken while */  \
  /* eviction debt exceeded the stall budget, and their total time. */     \
  X(foreground_maintenance_ops, kCount, kMaintenance)                      \
  X(background_maintenance_steps, kCount, kMaintenance) /* worker steps */ \
  X(background_pages_evicted, kCount, kMaintenance)                        \
  X(background_gc_segments, kCount, kMaintenance)                          \
  X(background_consolidations, kCount, kMaintenance)                       \
  X(background_leaf_flushes, kCount, kMaintenance)                         \
  X(write_stalls, kCount, kMaintenance)                                    \
  X(stall_micros_total, kCount, kMaintenance)                              \
  /* Three-tier hierarchy (DRAM -> compressed-SS -> SS, §7.2 / Fig. 8): */ \
  /* occupancy, traffic, and the access-interval accumulator that makes */ \
  /* the five-minute-rule breakeven a measured quantity. A page is in */   \
  /* CSS when it is not resident and its record is compressed, so a */     \
  /* demotion is an eviction onto a compressed record and a promotion */   \
  /* is a load of one. Stores without a tier leave the CSS counters 0. */  \
  X(tier_dram_pages, kLevel, kTier)                                        \
  X(tier_dram_bytes, kLevel, kTier)                                        \
  X(tier_css_bytes, kLevel, kTier)         /* compressed, log retains */   \
  X(tier_css_hits, kCount, kTier)          /* loads served by CSS */       \
  X(tier_demotions, kCount, kTier)         /* DRAM -> CSS */               \
  X(tier_clean_demotions, kCount, kTier)   /* of which nothing flushed */  \
  X(tier_proactive_demotions, kCount, kTier) /* of which not victims */    \
  X(tier_promotions, kCount, kTier)        /* CSS -> DRAM, = css hits */   \
  X(tier_demotion_refusals, kCount, kTier) /* on a plain record */         \
  X(css_raw_bytes, kCount, kTier)          /* pre-compression, demoted */  \
  X(css_stored_bytes, kCount, kTier)       /* compressed, demoted */       \
  X(tier_dram_interval_nanos, kCount, kTier) /* sum of DRAM touch gaps */  \
  X(tier_dram_interval_samples, kCount, kTier)

// Structured counters common to every KvStore. Benches and tests consume
// these fields directly instead of parsing DebugString().
struct KvStoreStats {
#define COSTPERF_KV_STATS_MEMBER(name, kind, line) uint64_t name = 0;
  COSTPERF_KV_STORE_STATS(COSTPERF_KV_STATS_MEMBER)
#undef COSTPERF_KV_STATS_MEMBER
  HealthStatus health = HealthStatus::kHealthy;

#define COSTPERF_KV_STATS_ONE(name, kind, line) +1
  static constexpr size_t kCounters =
      0 COSTPERF_KV_STORE_STATS(COSTPERF_KV_STATS_ONE);
#undef COSTPERF_KV_STATS_ONE

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
  // Mean measured inter-access gap of DRAM pages, seconds (0 with no
  // samples).
  double MeanDramIntervalSeconds() const {
    return tier_dram_interval_samples == 0
               ? 0.0
               : static_cast<double>(tier_dram_interval_nanos) * 1e-9 /
                     static_cast<double>(tier_dram_interval_samples);
  }

  // Fraction of classified ops that missed (the paper's F). 0 when the
  // store classified nothing.
  double MissFraction() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / total;
  }

  // Sums every counter (a sharded aggregate); the sum is degraded when
  // either side is.
  KvStoreStats& operator+=(const KvStoreStats& other);
  // The run delta from `earlier` to this snapshot: counts subtract,
  // levels and health keep this (later) snapshot's values.
  KvStoreStats operator-(const KvStoreStats& earlier) const;

  // "kv: reads=... writes=..." followed by one line per StatsLine and a
  // derived-value line; the canonical body of DebugString().
  std::string ToString() const;
};

// Every member is in the list: the counters plus the health word, padded
// to 8 bytes, are the whole struct.
static_assert(sizeof(KvStoreStats) ==
              (KvStoreStats::kCounters + 1) * sizeof(uint64_t));

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
