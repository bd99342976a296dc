#ifndef COSTPERF_BENCHMARK_TRACE_H_
#define COSTPERF_BENCHMARK_TRACE_H_

// Spans recorded from the benchmark's own side of each layer boundary: the
// client's requests, the calls into ShardedStore, and the calls into each
// CachingStore shard (through TimedStore decorators). Every call's keys and
// time go into per-thread totals; one root call in N is kept in full,
// with its child spans, for trace.json (Chrome trace-event format).
//
// A layer's self time is its span time minus its children's, so the
// sharded layer's self time is (sharded span time - caching span time).
// Thread CPU is sampled on a fixed phase of each thread's root calls, and
// never on both a call and its children, so the clock reads of one do not
// inflate the other.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/kv_store.h"

namespace costperf::benchmark {

enum class Layer : int { kClient = 0, kSharded = 1, kCaching = 2 };
inline constexpr int kLayers = 3;

enum class Op : int {
  kGet = 0,
  kPut,
  kDelete,
  kScan,
  kMultiGet,
  kBatchGet,
  kWriteBatch,
};
inline constexpr int kOps = 7;

// One layer's totals, summed over threads.
struct LayerTotals {
  uint64_t read_keys = 0, read_ns = 0;
  uint64_t write_keys = 0, write_ns = 0;
  // Calls whose thread CPU was sampled: their keys and CPU nanoseconds.
  uint64_t cpu_keys = 0, cpu_ns = 0;
  // Caching layer: the sampled CPU split by the class the store published
  // for the call (opclass::Last(): MM = no flash read, SS = at least one).
  uint64_t mm_keys = 0, mm_ns = 0, ss_keys = 0, ss_ns = 0;
};

// Per-thread span stack and counters (defined in trace.cc).
struct ThreadState;

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  LayerTotals Totals(Layer layer) const;

  // Writes the kept spans as Chrome trace events. Call only after every
  // thread that recorded spans has stopped. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  // RAII span around one call into `layer`. A null tracer makes it free.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, Op op, uint64_t keys);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadState* t_ = nullptr;
    Layer layer_ = Layer::kClient;
    Op op_ = Op::kGet;
    uint64_t keys_ = 0;
    bool cpu_ = false;
    uint64_t cpu0_ = 0;
    uint64_t start_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
  };

 private:
  ThreadState* State();

  const uint64_t generation_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_ GUARDED_BY(mu_);
};

// Forwarding KvStore decorator that opens a Tracer::Scope around every
// data call. Everything else (stats, invariants, maintenance) passes
// straight through, so the store behaves exactly like the one it wraps.
class TimedStore : public core::KvStore {
 public:
  TimedStore(std::unique_ptr<core::KvStore> inner, Tracer* tracer,
             Layer layer);

  Status Put(const Slice& key, const Slice& value) override;
  Result<std::string> Get(const Slice& key) override;
  Status Get(const Slice& key, std::string* value_out) override;
  Status Delete(const Slice& key) override;
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override;
  Status MultiGet(std::span<const std::string> keys,
                  const core::ReadOptions& options,
                  core::BatchReadResult* out) override;
  using core::KvStore::MultiGet;
  void BatchGet(core::BatchGetOp* ops, size_t count) override;
  Status WriteBatch(std::span<const core::KvEntry> entries,
                    const core::WriteOptions& options,
                    core::BatchWriteResult* out) override;
  using core::KvStore::WriteBatch;

  bool ConcurrentSafe() const override { return inner_->ConcurrentSafe(); }
  uint64_t MemoryFootprintBytes() const override {
    return inner_->MemoryFootprintBytes();
  }
  core::KvStoreStats Stats() const override { return inner_->Stats(); }
  std::vector<core::HealthStatus> PerShardHealth() const override {
    return inner_->PerShardHealth();
  }
  std::string DebugString() const override { return inner_->DebugString(); }
  void Maintain() override { inner_->Maintain(); }
  std::vector<analysis::Violation> CheckInvariants() override {
    return inner_->CheckInvariants();
  }

 private:
  std::unique_ptr<core::KvStore> inner_;
  Tracer* tracer_;
  Layer layer_;
};

}  // namespace costperf::benchmark

#endif  // COSTPERF_BENCHMARK_TRACE_H_
