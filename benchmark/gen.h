#ifndef COSTPERF_BENCHMARK_GEN_H_
#define COSTPERF_BENCHMARK_GEN_H_

// The benchmark's one load generator: seeded keys and self-describing
// values, per-key version bookkeeping that turns every read into a
// correctness check, and the load loop of T client threads making direct
// KvStore calls.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/kv_store.h"

namespace costperf::benchmark {

class Tracer;

inline constexpr size_t kKeyBytes = 16;

// Key k is "key:" followed by k in 12 decimal digits (kKeyBytes bytes).
void FormatKey(uint32_t k, char* out);
std::string KeyOf(uint32_t k);

// A value of `size` bytes (>= 16) encodes its own identity:
//   [0,4) key id   [4,8) version   [8,16) checksum of everything else
//   [16,size) a filler template that depends only on the key — records
//   repeat field names the way real rows do, so pages compress.
void EncodeValue(uint32_t key, uint32_t version, size_t size,
                 std::string* out);
// The version `v` encodes when it is an intact value of `key` with the
// expected size; 0 otherwise (versions start at 1).
uint32_t DecodeValue(uint32_t key, std::string_view v, size_t size);

// Per key, the newest version issued to the store and the newest one it
// acknowledged. Key k is written only by stream k % streams, so each key
// has one writer; readers anywhere may load both. A read is correct when
// it returns a version between the acknowledged version loaded before the
// call and the issued version loaded after it.
class VersionTable {
 public:
  // Every key starts at version 1 (the preload), issued and acknowledged.
  explicit VersionTable(uint32_t keys);

  // Next version of `k`; only k's writer stream may call this.
  uint32_t Issue(uint32_t k);
  void Ack(uint32_t k, uint32_t version);
  uint32_t acked(uint32_t k) const {
    return acked_[k].load(std::memory_order_acquire);
  }
  uint32_t issued(uint32_t k) const {
    return issued_[k].load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

// Failure accounting shared by every load loop and the final verification.
// Wrong and missing results make a run incorrect; errors (a read or write
// the store refused) only count as failed operations.
class Checker {
 public:
  // Checks one read answer for `key` against [lo, hi].
  void CheckRead(uint32_t key, const Status& s, std::string_view value,
                 size_t value_bytes, uint32_t lo, uint32_t hi);
  void Attempted(uint64_t n) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void Error(uint64_t n, const std::string& what);
  // Records a correctness failure that is not a read answer (an invariant
  // violation, an ordering breach).
  void Violation(const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t wrong() const { return wrong_.load(); }
  uint64_t missing() const { return missing_.load(); }
  uint64_t errors() const { return errors_.load(); }
  uint64_t violations() const { return violations_.load(); }
  uint64_t failed() const { return wrong() + missing() + errors(); }
  bool correct() const {
    return wrong() == 0 && missing() == 0 && violations() == 0;
  }
  // The first few failure messages, for the report.
  std::vector<std::string> messages() const;

 private:
  void Note(const std::string& what);

  std::atomic<uint64_t> attempted_{0}, wrong_{0}, missing_{0}, errors_{0},
      violations_{0};
  mutable Mutex mu_;
  std::vector<std::string> messages_ GUARDED_BY(mu_);
};

// Log-linear latency histogram: 64 linear sub-buckets per power of two,
// so a percentile is exact to ~1.6% at any scale. Values in nanoseconds.
// (common/histogram.h grows its buckets 1.5x, too coarse to resolve the
// 10% changes the benchmark compares.)
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(uint64_t nanos);
  void Merge(const LatencyHistogram& other);
  // p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Zipf-skewed key choice. Rank r is key r, so hot keys are neighbours
// that share pages, as in bench/loadgen.
class KeyChooser {
 public:
  KeyChooser(uint32_t keys, double theta, uint64_t seed);
  uint32_t Next();
  // A key written by `stream`: one with k % streams == stream.
  uint32_t NextOwned(uint32_t stream, uint32_t streams);

 private:
  uint32_t keys_;
  ZipfianGenerator zipf_;
};

// What one workload asks of the generator.
struct LoadSpec {
  uint32_t keys = 200'000;
  size_t value_bytes = 100;
  double read_fraction = 0.95;
  double zipf_theta = 0.99;
  uint32_t streams = 2;  // client threads
};

// Steady-clock instants (nanoseconds) that bound a run: operations
// completing in [measure_begin, measure_end) are measured, earlier ones
// are warm-up, and no operation is issued at or after measure_end.
struct Window {
  uint64_t measure_begin = 0;
  uint64_t measure_end = 0;
  uint32_t slices = 1;  // equal parts, each with its own latency histogram
};

// One client thread's account of its run.
struct ClientResult {
  explicit ClientResult(const Window& w) : latency(w.slices) {}

  // Counts an operation that completed at `end` after `latency_ns`.
  // Returns false, counting nothing, outside the window.
  bool Record(const Window& w, uint64_t end, uint64_t latency_ns);

  // Latency per op, one histogram per slice.
  std::vector<LatencyHistogram> latency;
  uint64_t ops = 0;  // operations completed in the window
  uint64_t user_bytes_written = 0;  // key + value bytes written by them
};

// Steady-clock nanoseconds. Called around every op, so it avoids the
// virtual call of RealClock::NowNanos.
uint64_t NowNanos();

// One read or write of key k against `store`, checked.
void CheckedRead(core::KvStore* store, uint32_t k, const LoadSpec& spec,
                 const VersionTable* versions, Checker* checker,
                 std::string* scratch);
Status CheckedWrite(core::KvStore* store, uint32_t k, const LoadSpec& spec,
                    VersionTable* versions, Checker* checker,
                    std::string* scratch);

// Writes every key at version 1 through WriteBatch calls of 1,024 entries.
Status Preload(core::KvStore* store, const LoadSpec& spec);

// Reads every key back and checks it against the version table; run on a
// quiescent store after all writers stopped.
void VerifyAll(core::KvStore* store, const LoadSpec& spec,
               const VersionTable& versions, Checker* checker);

// Ends a workload once its clients stopped: quiesce() (drain background
// maintenance), then store->CheckInvariants(), then VerifyAll.
void Finish(core::KvStore* store, const std::function<void()>& quiesce,
            const LoadSpec& spec, const VersionTable& versions,
            Checker* checker);

// Closed-loop single-key client: thread `stream` of spec.streams issues
// Get/Put until window.measure_end.
void RunLibClient(core::KvStore* store, const LoadSpec& spec,
                  const Window& window, uint32_t stream, uint64_t seed,
                  VersionTable* versions, Checker* checker, Tracer* tracer,
                  ClientResult* out);

}  // namespace costperf::benchmark

#endif  // COSTPERF_BENCHMARK_GEN_H_
