#include "trace.h"

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/clock.h"
#include "common/op_class.h"
#include "gen.h"

namespace costperf::benchmark {

namespace {

enum Field {
  kReadKeys,
  kReadNs,
  kWriteKeys,
  kWriteNs,
  kCpuKeys,
  kCpuNs,
  kMmKeys,
  kMmNs,
  kSsKeys,
  kSsNs,
  kFields,
};

constexpr int kMaxDepth = 8;
// One root call in this many is kept in full, with its children.
constexpr uint64_t kKeepOneIn = 2048;
// Bounds trace.json to a few MB whatever the run length.
constexpr size_t kMaxSpansPerThread = 20000;
// Thread CPU is read on root calls whose sequence number falls on a given
// phase of this cycle: the caching layer on one phase, the sharded layer
// on the others (batched calls) or on one other phase (single-key calls).
constexpr uint64_t kCpuPhases = 16;
constexpr uint64_t kCachingPhase = kCpuPhases / 2;

std::atomic<uint64_t> g_generation{0};

const char* const kLayerNames[kLayers] = {"client", "sharded", "caching"};
const char* const kSpanNames[kLayers][kOps] = {
    {"client.get", "client.put", "client.delete", "client.scan",
     "client.multiget", "client.batchget", "client.writebatch"},
    {"sharded.get", "sharded.put", "sharded.delete", "sharded.scan",
     "sharded.multiget", "sharded.batchget", "sharded.writebatch"},
    {"caching.get", "caching.put", "caching.delete", "caching.scan",
     "caching.multiget", "caching.batchget", "caching.writebatch"},
};

bool IsWrite(Op op) {
  return op == Op::kPut || op == Op::kDelete || op == Op::kWriteBatch;
}

}  // namespace

struct SpanRecord {
  Layer layer;
  Op op;
  uint64_t start, end, id, parent, request, keys;
};

struct ThreadState {
  pid_t tid = 0;
  uint64_t index = 0;
  // Written only by the owning thread; Totals() reads them concurrently.
  std::atomic<uint64_t> counters[kLayers][kFields] = {};
  uint64_t roots = 0;  // root calls begun on this thread
  int depth = 0;
  bool sampled = false;  // the current root is kept in full
  uint64_t request = 0;
  uint64_t next_id = 0;
  uint64_t stack[kMaxDepth] = {};
  std::vector<SpanRecord> spans;

  void Add(Layer layer, int field, uint64_t v) {
    std::atomic<uint64_t>& c = counters[static_cast<int>(layer)][field];
    c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }
  void Count(Layer layer, Op op, uint64_t keys, uint64_t ns) {
    const bool w = IsWrite(op);
    Add(layer, w ? kWriteKeys : kReadKeys, keys);
    Add(layer, w ? kWriteNs : kReadNs, ns);
  }
  uint64_t NewId() { return ((index + 1) << 40) | ++next_id; }
  bool Keep() const { return spans.size() < kMaxSpansPerThread; }
};

Tracer::Tracer() : generation_(++g_generation) {}

Tracer::~Tracer() = default;

ThreadState* Tracer::State() {
  thread_local uint64_t tls_generation = 0;
  thread_local ThreadState* tls_state = nullptr;
  if (tls_generation != generation_) {
    auto state = std::make_unique<ThreadState>();
    state->tid = gettid();
    tls_state = state.get();
    tls_generation = generation_;
    MutexLock lock(&mu_);
    state->index = threads_.size();
    threads_.push_back(std::move(state));
  }
  return tls_state;
}

LayerTotals Tracer::Totals(Layer layer) const {
  uint64_t sum[kFields] = {};
  {
    MutexLock lock(&mu_);
    for (const auto& t : threads_) {
      for (int f = 0; f < kFields; ++f) {
        sum[f] += t->counters[static_cast<int>(layer)][f].load(
            std::memory_order_relaxed);
      }
    }
  }
  LayerTotals out;
  out.read_keys = sum[kReadKeys];
  out.read_ns = sum[kReadNs];
  out.write_keys = sum[kWriteKeys];
  out.write_ns = sum[kWriteNs];
  out.cpu_keys = sum[kCpuKeys];
  out.cpu_ns = sum[kCpuNs];
  out.mm_keys = sum[kMmKeys];
  out.mm_ns = sum[kMmNs];
  out.ss_keys = sum[kSsKeys];
  out.ss_ns = sum[kSsNs];
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  MutexLock lock(&mu_);
  uint64_t origin = UINT64_MAX;
  for (const auto& t : threads_) {
    for (const SpanRecord& s : t->spans) origin = std::min(origin, s.start);
  }
  fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  const char* sep = "\n";
  for (const auto& t : threads_) {
    for (const SpanRecord& s : t->spans) {
      const int layer = static_cast<int>(s.layer);
      fprintf(f,
              "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
              "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
              "\"args\": {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
              "\"keys\": %llu}}",
              sep, kSpanNames[layer][static_cast<int>(s.op)],
              kLayerNames[layer], static_cast<int>(t->tid),
              static_cast<double>(s.start - origin) / 1e3,
              static_cast<double>(s.end - s.start) / 1e3,
              static_cast<unsigned long long>(s.id),
              static_cast<unsigned long long>(s.parent),
              static_cast<unsigned long long>(s.request),
              static_cast<unsigned long long>(s.keys));
      sep = ",\n";
    }
  }
  fprintf(f, "\n]}\n");
  return fclose(f) == 0;
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer, Op op, uint64_t keys) {
  if (tracer == nullptr) return;
  t_ = tracer->State();
  layer_ = layer;
  op_ = op;
  keys_ = keys;
  ThreadState& t = *t_;
  if (t.depth == 0) {
    ++t.roots;
    t.sampled = t.roots % kKeepOneIn == 0 && t.Keep();
    t.request = 0;
  }
  const uint64_t phase = t.roots % kCpuPhases;
  if (layer == Layer::kCaching) {
    cpu_ = phase == kCachingPhase;
  } else if (layer == Layer::kSharded) {
    cpu_ = keys > 1 ? phase != kCachingPhase : phase == 0;
  }
  if (t.sampled) {
    id_ = t.NewId();
    parent_ = t.depth > 0 ? t.stack[std::min(t.depth, kMaxDepth) - 1] : 0;
    if (t.depth == 0) t.request = id_;
  }
  if (t.depth < kMaxDepth) t.stack[t.depth] = id_;
  ++t.depth;
  if (cpu_) {
    if (layer == Layer::kCaching) opclass::Reset();
    cpu0_ = ThreadCpuNanos();
  }
  start_ = NowNanos();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  const uint64_t end = NowNanos();
  ThreadState& t = *t_;
  if (cpu_) {
    const uint64_t cpu = ThreadCpuNanos() - cpu0_;
    t.Add(layer_, kCpuKeys, keys_);
    t.Add(layer_, kCpuNs, cpu);
    if (layer_ == Layer::kCaching) {
      const OpClass c = opclass::Last();
      if (c == OpClass::kMm) {
        t.Add(layer_, kMmKeys, keys_);
        t.Add(layer_, kMmNs, cpu);
      } else if (c == OpClass::kSs) {
        t.Add(layer_, kSsKeys, keys_);
        t.Add(layer_, kSsNs, cpu);
      }
    }
  }
  t.Count(layer_, op_, keys_, end - start_);
  if (t.sampled) {
    t.spans.push_back({layer_, op_, start_, end, id_, parent_, t.request,
                       keys_});
  }
  if (--t.depth == 0) t.sampled = false;
}

TimedStore::TimedStore(std::unique_ptr<core::KvStore> inner, Tracer* tracer,
                       Layer layer)
    : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}

Status TimedStore::Put(const Slice& key, const Slice& value) {
  Tracer::Scope span(tracer_, layer_, Op::kPut, 1);
  return inner_->Put(key, value);
}

Result<std::string> TimedStore::Get(const Slice& key) {
  Tracer::Scope span(tracer_, layer_, Op::kGet, 1);
  return inner_->Get(key);
}

Status TimedStore::Get(const Slice& key, std::string* value_out) {
  Tracer::Scope span(tracer_, layer_, Op::kGet, 1);
  return inner_->Get(key, value_out);
}

Status TimedStore::Delete(const Slice& key) {
  Tracer::Scope span(tracer_, layer_, Op::kDelete, 1);
  return inner_->Delete(key);
}

Status TimedStore::Scan(
    const Slice& start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  Tracer::Scope span(tracer_, layer_, Op::kScan, 1);
  return inner_->Scan(start, limit, out);
}

Status TimedStore::MultiGet(std::span<const std::string> keys,
                            const core::ReadOptions& options,
                            core::BatchReadResult* out) {
  Tracer::Scope span(tracer_, layer_, Op::kMultiGet, keys.size());
  return inner_->MultiGet(keys, options, out);
}

void TimedStore::BatchGet(core::BatchGetOp* ops, size_t count) {
  Tracer::Scope span(tracer_, layer_, Op::kBatchGet, count);
  inner_->BatchGet(ops, count);
}

Status TimedStore::WriteBatch(std::span<const core::KvEntry> entries,
                              const core::WriteOptions& options,
                              core::BatchWriteResult* out) {
  Tracer::Scope span(tracer_, layer_, Op::kWriteBatch, entries.size());
  return inner_->WriteBatch(entries, options, out);
}

}  // namespace costperf::benchmark
