#include "core/kv_store.h"

#include <cstdio>

#include "costmodel/five_minute_rule.h"

namespace costperf::core {

KvStoreStats& KvStoreStats::operator+=(const KvStoreStats& other) {
#define COSTPERF_KV_STATS_ADD(name, kind, line) name += other.name;
  COSTPERF_KV_STORE_STATS(COSTPERF_KV_STATS_ADD)
#undef COSTPERF_KV_STATS_ADD
  if (other.health == HealthStatus::kDegraded) health = HealthStatus::kDegraded;
  return *this;
}

KvStoreStats KvStoreStats::operator-(const KvStoreStats& earlier) const {
  KvStoreStats delta = *this;
#define COSTPERF_KV_STATS_SUB(name, kind, line) \
  if (StatKind::kind == StatKind::kCount) delta.name -= earlier.name;
  COSTPERF_KV_STORE_STATS(COSTPERF_KV_STATS_SUB)
#undef COSTPERF_KV_STATS_SUB
  return delta;
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
  static constexpr const char* kLineNames[kStatsLines] = {
      "kv:", "contention:", "batch:", "maintenance:", "tier:"};
  std::string lines[kStatsLines];
#define COSTPERF_KV_STATS_PRINT(name, kind, line)                  \
  lines[static_cast<int>(StatsLine::line)] += " " #name "=" +      \
                                              std::to_string(name);
  COSTPERF_KV_STORE_STATS(COSTPERF_KV_STATS_PRINT)
#undef COSTPERF_KV_STATS_PRINT
  std::string out;
  for (int i = 0; i < kStatsLines; ++i) {
    out += kLineNames[i] + lines[i] + "\n";
  }
  char derived[320];
  snprintf(derived, sizeof(derived),
           "derived: health=%s F=%.3f css_ratio=%.3f dram_interval=%.3fs "
           "T_i=%.1fs (modeled %.1fs) "
           "css_breakeven=%.1f ops/s (modeled %.1f)",
           HealthStatusName(health), MissFraction(),
           MeasuredCompressionRatio(), MeanDramIntervalSeconds(),
           MeasuredTiSeconds(), ModeledTiSeconds(),
           MeasuredCssBreakevenOps(), ModeledCssBreakevenOps());
  return out + derived;
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
