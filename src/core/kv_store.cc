#include "core/kv_store.h"

#include <cstdio>

#include "costmodel/five_minute_rule.h"

namespace costperf::core {

KvStoreStats& KvStoreStats::operator+=(const KvStoreStats& other) {
  reads += other.reads;
  writes += other.writes;
  hits += other.hits;
  misses += other.misses;
  io_reads += other.io_reads;
  io_writes += other.io_writes;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  memory_bytes += other.memory_bytes;
  io_retries += other.io_retries;
  cache_touches += other.cache_touches;
  cache_touches_sampled += other.cache_touches_sampled;
  epoch_reclaim_batches += other.epoch_reclaim_batches;
  epoch_reclaimed_items += other.epoch_reclaimed_items;
  log_append_groups += other.log_append_groups;
  for (size_t i = 0; i < log_group_size_hist.size(); ++i) {
    log_group_size_hist[i] += other.log_group_size_hist[i];
  }
  multiget_batches += other.multiget_batches;
  multiget_keys += other.multiget_keys;
  multiget_shard_groups += other.multiget_shard_groups;
  writebatch_batches += other.writebatch_batches;
  writebatch_entries += other.writebatch_entries;
  writebatch_shard_groups += other.writebatch_shard_groups;
  foreground_maintenance_ops += other.foreground_maintenance_ops;
  background_maintenance_steps += other.background_maintenance_steps;
  background_pages_evicted += other.background_pages_evicted;
  background_gc_segments += other.background_gc_segments;
  background_consolidations += other.background_consolidations;
  background_leaf_flushes += other.background_leaf_flushes;
  write_stalls += other.write_stalls;
  stall_micros_total += other.stall_micros_total;
  tier_dram_pages += other.tier_dram_pages;
  tier_dram_bytes += other.tier_dram_bytes;
  tier_css_pages += other.tier_css_pages;
  tier_css_bytes += other.tier_css_bytes;
  tier_css_hits += other.tier_css_hits;
  tier_demotions += other.tier_demotions;
  tier_promotions += other.tier_promotions;
  tier_demotion_refusals += other.tier_demotion_refusals;
  tier_css_fallthroughs += other.tier_css_fallthroughs;
  css_raw_bytes += other.css_raw_bytes;
  css_stored_bytes += other.css_stored_bytes;
  tier_dram_interval_nanos += other.tier_dram_interval_nanos;
  tier_dram_interval_samples += other.tier_dram_interval_samples;
  tier_css_interval_nanos += other.tier_css_interval_nanos;
  tier_css_interval_samples += other.tier_css_interval_samples;
  background_pages_demoted += other.background_pages_demoted;
  background_pages_promoted += other.background_pages_promoted;
  // Aggregate health: degraded if any contributor is degraded.
  if (other.health == HealthStatus::kDegraded) health = HealthStatus::kDegraded;
  return *this;
}

namespace {

// The paper's constants with the page size measured from demotions.
costmodel::CostParams MeasuredParams(const KvStoreStats& s) {
  costmodel::CostParams p = costmodel::CostParams::PaperDefaults();
  p.page_size_bytes = static_cast<double>(s.css_raw_bytes) /
                      static_cast<double>(s.tier_demotions);
  return p;
}

bool HasDemotions(const KvStoreStats& s) {
  return s.tier_demotions > 0 && s.css_raw_bytes > 0;
}

}  // namespace

double KvStoreStats::ModeledTiSeconds() const {
  return costmodel::BreakevenIntervalSeconds(
      costmodel::CostParams::PaperDefaults());
}

double KvStoreStats::MeasuredTiSeconds() const {
  if (!HasDemotions(*this)) return 0;
  return costmodel::BreakevenIntervalSeconds(MeasuredParams(*this));
}

double KvStoreStats::ModeledCssBreakevenOps() const {
  return costmodel::CssSsBreakevenOpsPerSec(
      costmodel::CostParams::PaperDefaults(), costmodel::CompressionParams{});
}

double KvStoreStats::MeasuredCssBreakevenOps() const {
  if (!HasDemotions(*this)) return 0;
  costmodel::CompressionParams ratio;
  ratio.compression_ratio = MeasuredCompressionRatio();
  return costmodel::CssSsBreakevenOpsPerSec(MeasuredParams(*this), ratio);
}

std::string KvStoreStats::ToString() const {
  char buf[320];
  snprintf(buf, sizeof(buf),
           "kv: reads=%llu writes=%llu hits=%llu misses=%llu (F=%.3f) "
           "io_reads=%llu io_writes=%llu bytes_read=%llu bytes_written=%llu "
           "memory_bytes=%llu io_retries=%llu health=%s",
           (unsigned long long)reads, (unsigned long long)writes,
           (unsigned long long)hits, (unsigned long long)misses,
           MissFraction(), (unsigned long long)io_reads,
           (unsigned long long)io_writes, (unsigned long long)bytes_read,
           (unsigned long long)bytes_written,
           (unsigned long long)memory_bytes,
           (unsigned long long)io_retries, HealthStatusName(health));
  char contention[320];
  snprintf(contention, sizeof(contention),
           "\ncontention: cache_touches=%llu (sampled=%llu) "
           "epoch_reclaims=%llu reclaimed=%llu log_groups=%llu "
           "group_hist=[1:%llu 2:%llu 3-4:%llu 5-8:%llu 9-16:%llu 17+:%llu]",
           (unsigned long long)cache_touches,
           (unsigned long long)cache_touches_sampled,
           (unsigned long long)epoch_reclaim_batches,
           (unsigned long long)epoch_reclaimed_items,
           (unsigned long long)log_append_groups,
           (unsigned long long)log_group_size_hist[0],
           (unsigned long long)log_group_size_hist[1],
           (unsigned long long)log_group_size_hist[2],
           (unsigned long long)log_group_size_hist[3],
           (unsigned long long)log_group_size_hist[4],
           (unsigned long long)log_group_size_hist[5]);
  char batch[256];
  snprintf(batch, sizeof(batch),
           "\nbatch: multiget_batches=%llu multiget_keys=%llu "
           "multiget_shard_groups=%llu writebatch_batches=%llu "
           "writebatch_entries=%llu writebatch_shard_groups=%llu",
           (unsigned long long)multiget_batches,
           (unsigned long long)multiget_keys,
           (unsigned long long)multiget_shard_groups,
           (unsigned long long)writebatch_batches,
           (unsigned long long)writebatch_entries,
           (unsigned long long)writebatch_shard_groups);
  char maintenance[320];
  snprintf(maintenance, sizeof(maintenance),
           "\nmaintenance: foreground_ops=%llu background_steps=%llu "
           "bg_evicted=%llu bg_gc_segments=%llu bg_consolidations=%llu "
           "bg_leaf_flushes=%llu write_stalls=%llu stall_micros=%llu",
           (unsigned long long)foreground_maintenance_ops,
           (unsigned long long)background_maintenance_steps,
           (unsigned long long)background_pages_evicted,
           (unsigned long long)background_gc_segments,
           (unsigned long long)background_consolidations,
           (unsigned long long)background_leaf_flushes,
           (unsigned long long)write_stalls,
           (unsigned long long)stall_micros_total);
  std::string out = std::string(buf) + contention + batch + maintenance;
  // Tier line only when a tier has ever been active — the common
  // two-level configuration keeps the dump compact.
  if (tier_css_pages != 0 || tier_demotions != 0 || tier_css_hits != 0 ||
      tier_demotion_refusals != 0) {
    char tier[512];
    snprintf(tier, sizeof(tier),
             "\ntier: dram=%llu pages/%llu B css=%llu pages/%llu B "
             "css_hits=%llu demotions=%llu promotions=%llu refusals=%llu "
             "fallthroughs=%llu ratio=%.3f dram_interval=%.3fs "
             "css_interval=%.3fs T_i=%.1fs (modeled %.1fs) "
             "css_breakeven=%.1f ops/s (modeled %.1f)",
             (unsigned long long)tier_dram_pages,
             (unsigned long long)tier_dram_bytes,
             (unsigned long long)tier_css_pages,
             (unsigned long long)tier_css_bytes,
             (unsigned long long)tier_css_hits,
             (unsigned long long)tier_demotions,
             (unsigned long long)tier_promotions,
             (unsigned long long)tier_demotion_refusals,
             (unsigned long long)tier_css_fallthroughs,
             MeasuredCompressionRatio(), MeanDramIntervalSeconds(),
             MeanCssIntervalSeconds(), MeasuredTiSeconds(),
             ModeledTiSeconds(), MeasuredCssBreakevenOps(),
             ModeledCssBreakevenOps());
    out += tier;
  }
  return out;
}

Status KvStore::Get(const Slice& key, std::string* value_out) {
  Result<std::string> r = Get(key);
  if (!r.ok()) return r.status();
  *value_out = std::move(*r);
  return Status::Ok();
}

void KvStore::BatchGet(BatchGetOp* ops, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    *ops[i].status = Get(ops[i].key, ops[i].value);
  }
}

Status KvStore::MultiGet(std::span<const std::string> keys,
                         const ReadOptions& options, BatchReadResult* out) {
  out->Reset(keys.size());
  // Route through BatchGet so a store that overrides only the batch
  // probe (CachingStore, MemoryStore) serves MultiGet through it too.
  // Scratch is per thread: the op array is rebuilt each call but its
  // capacity survives, so a steady-state batch loop does not allocate.
  thread_local std::vector<BatchGetOp> ops;
  ops.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].key = Slice(keys[i]);
    ops[i].value = &out->values[i];
    ops[i].status = &out->statuses[i];
  }
  BatchGet(ops.data(), ops.size());
  if (options.max_value_bytes != 0) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (out->statuses[i].ok() &&
          out->values[i].size() > options.max_value_bytes) {
        out->statuses[i] =
            Status::ResourceExhausted("value exceeds max_value_bytes");
      }
    }
  }
  return out->FirstError();
}

Status KvStore::WriteBatch(std::span<const KvEntry> entries,
                           const WriteOptions& options,
                           BatchWriteResult* out) {
  out->Reset(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    Status s = Put(Slice(entries[i].first), Slice(entries[i].second));
    const bool failed = !s.ok();
    if (s.ok()) ++out->ok_count;
    out->statuses[i] = std::move(s);
    if (failed && options.fail_fast) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        out->statuses[j] = Status::Aborted("not attempted (fail_fast)");
      }
      break;
    }
  }
  return out->FirstError();
}

}  // namespace costperf::core
