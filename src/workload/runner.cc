#include "workload/runner.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/op_class.h"
#include "common/thread_annotations.h"

namespace costperf::workload {

namespace {

// Reusable rendezvous: every thread that calls Arrive() blocks until all
// `n` participants have arrived. Keeps the load phase strictly before the
// measured phase across all workers.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(int n) : remaining_(n), size_(n) {}

  void Arrive() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const uint64_t gen = generation_;
    if (--remaining_ == 0) {
      remaining_ = size_;
      ++generation_;
      cv_.notify_all();
    } else {
      // Explicit predicate loop (not the lambda overload): the wait
      // re-acquires mu_ before each generation_ read, and keeping the
      // read in this scope lets -Wthread-safety see the lock is held.
      while (generation_ == gen) cv_.wait(mu_);
    }
  }

 private:
  costperf::Mutex mu_;
  std::condition_variable_any cv_;
  int remaining_ GUARDED_BY(mu_);
  const int size_;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
};

struct ThreadResult {
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  uint64_t batch_calls = 0;
  uint64_t op_counts[5] = {};
  double cpu_seconds = 0;
  uint64_t wall_start_nanos = 0;
  uint64_t wall_end_nanos = 0;
  Histogram latency_micros;
  Histogram mm_latency_micros;
  Histogram ss_latency_micros;
  Status load_status;
};

// Executes one non-batchable op (scan / RMW / anything in unbatched
// mode). Returns false on failure. `read_buf` is a per-thread value
// buffer reused across reads so in-cache Gets don't allocate.
bool ExecuteOp(core::KvStore* store, const Op& op, size_t value_size,
               std::vector<std::pair<std::string, std::string>>* scan_buf,
               std::string* read_buf) {
  switch (op.type) {
    case OpType::kRead: {
      Status s = store->Get(Slice(op.key), read_buf);
      return s.ok() || s.IsNotFound();
    }
    case OpType::kUpdate:
    case OpType::kInsert:
      return store->Put(Slice(op.key), Slice(op.value)).ok();
    case OpType::kScan:
      return store->Scan(Slice(op.key), op.scan_len, scan_buf).ok();
    case OpType::kReadModifyWrite: {
      Status s = store->Get(Slice(op.key), read_buf);
      std::string v = s.ok() ? *read_buf : std::string();
      v += op.value;
      if (v.size() > 2 * value_size) v.resize(value_size);
      return store->Put(Slice(op.key), Slice(v)).ok();
    }
  }
  return false;
}

class LatencyTimer {
 public:
  LatencyTimer(bool enabled, uint32_t sample, Histogram* hist,
               Histogram* mm_hist, Histogram* ss_hist)
      : enabled_(enabled),
        sample_(sample < 1 ? 1 : sample),
        hist_(hist),
        mm_hist_(mm_hist),
        ss_hist_(ss_hist) {}

  void Start() {
    armed_ = enabled_ && ++round_ >= sample_;
    if (armed_) {
      round_ = 0;
      opclass::Reset();  // the store publishes MM/SS during the op
      start_ = RealClock::Global()->NowNanos();
    }
  }
  void Stop() {
    if (armed_) {
      const double micros =
          static_cast<double>(RealClock::Global()->NowNanos() - start_) *
          1e-3;
      hist_->Add(micros);
      switch (opclass::Last()) {
        case OpClass::kMm:
          mm_hist_->Add(micros);
          break;
        case OpClass::kSs:
          ss_hist_->Add(micros);
          break;
        case OpClass::kUnknown:
          break;  // store doesn't classify
      }
    }
  }

 private:
  const bool enabled_;
  const uint32_t sample_;
  Histogram* hist_;
  Histogram* mm_hist_;
  Histogram* ss_hist_;
  uint32_t round_ = 0;
  bool armed_ = false;
  uint64_t start_ = 0;
};

void RunPhase(core::KvStore* store, const WorkloadSpec& spec,
              const RunnerOptions& options, int thread_index,
              ThreadResult* result) {
  Workload workload(spec, /*thread_seed_offset=*/thread_index + 1);
  std::vector<std::pair<std::string, std::string>> scan_buf;
  std::string read_buf;
  LatencyTimer timer(options.record_latencies, options.latency_sample,
                     &result->latency_micros, &result->mm_latency_micros,
                     &result->ss_latency_micros);
  const size_t batch = std::max<size_t>(1, spec.batch_size);

  // Batch staging and results, reused across groups (the out-param batch
  // surface keeps value-buffer capacity across calls, so the batched loop
  // settles into zero allocations per group). read_keys is a string pool:
  // it only ever grows to the batch size and keys are assign()ed into the
  // existing elements, so staging a read costs a copy into retained
  // capacity, not a fresh string per key.
  std::vector<std::string> read_keys;
  size_t staged_reads = 0;
  std::vector<core::KvEntry> write_entries;
  std::vector<Op> singles;
  core::BatchReadResult read_result;
  core::BatchWriteResult write_result;

  result->wall_start_nanos = RealClock::Global()->NowNanos();
  const uint64_t cpu_start = ThreadCpuNanos();

  uint64_t done = 0;
  Op op;  // reused across ops in both modes: key/value capacity persists
  while (done < options.ops_per_thread) {
    if (batch == 1) {
      workload.NextOp(&op);
      ++result->op_counts[static_cast<int>(op.type)];
      timer.Start();
      bool ok = ExecuteOp(store, op, spec.value_size, &scan_buf, &read_buf);
      timer.Stop();
      if (!ok) ++result->failed_ops;
      ++done;
      continue;
    }

    // Batched mode: stage up to `batch` generated ops, then issue reads
    // as one MultiGet, updates/inserts as one WriteBatch, and the rest
    // (scans, RMW) individually.
    const uint64_t group =
        std::min<uint64_t>(batch, options.ops_per_thread - done);
    staged_reads = 0;
    write_entries.clear();
    singles.clear();
    for (uint64_t i = 0; i < group; ++i) {
      workload.NextOp(&op);
      ++result->op_counts[static_cast<int>(op.type)];
      switch (op.type) {
        case OpType::kRead:
          if (staged_reads == read_keys.size()) read_keys.emplace_back();
          read_keys[staged_reads].assign(op.key);
          ++staged_reads;
          break;
        case OpType::kUpdate:
        case OpType::kInsert:
          write_entries.emplace_back(std::move(op.key), std::move(op.value));
          break;
        default:
          singles.push_back(op);
      }
    }
    if (staged_reads != 0) {
      timer.Start();
      (void)store->MultiGet(
          std::span<const std::string>(read_keys.data(), staged_reads),
          &read_result);
      timer.Stop();
      ++result->batch_calls;
      for (const Status& s : read_result.statuses) {
        if (!s.ok() && !s.IsNotFound()) ++result->failed_ops;
      }
    }
    if (!write_entries.empty()) {
      timer.Start();
      (void)store->WriteBatch(write_entries, &write_result);
      timer.Stop();
      ++result->batch_calls;
      // Per-entry statuses: every failed entry counts, not just the first.
      result->failed_ops += write_entries.size() - write_result.ok_count;
    }
    for (const Op& single : singles) {
      timer.Start();
      bool ok =
          ExecuteOp(store, single, spec.value_size, &scan_buf, &read_buf);
      timer.Stop();
      if (!ok) ++result->failed_ops;
    }
    done += group;
  }

  result->cpu_seconds =
      static_cast<double>(ThreadCpuNanos() - cpu_start) * 1e-9;
  result->wall_end_nanos = RealClock::Global()->NowNanos();
  result->ops = options.ops_per_thread;
}

RunReport MergeResults(int threads, std::vector<ThreadResult>& results) {
  RunReport report;
  report.threads = threads;
  uint64_t wall_start = ~0ull, wall_end = 0;
  for (ThreadResult& r : results) {
    if (!r.load_status.ok()) ++report.failed_ops;
    report.ops += r.ops;
    report.failed_ops += r.failed_ops;
    report.batch_calls += r.batch_calls;
    for (int i = 0; i < 5; ++i) report.op_counts[i] += r.op_counts[i];
    report.cpu_seconds_total += r.cpu_seconds;
    report.cpu_seconds_max = std::max(report.cpu_seconds_max, r.cpu_seconds);
    wall_start = std::min(wall_start, r.wall_start_nanos);
    wall_end = std::max(wall_end, r.wall_end_nanos);
    report.latency_micros.Merge(r.latency_micros);
    report.mm_latency_micros.Merge(r.mm_latency_micros);
    report.ss_latency_micros.Merge(r.ss_latency_micros);
  }
  report.wall_seconds =
      wall_end > wall_start
          ? static_cast<double>(wall_end - wall_start) * 1e-9
          : 0;
  if (report.wall_seconds > 0) {
    report.ops_per_wall_sec = report.ops / report.wall_seconds;
  }
  if (report.cpu_seconds_total > 0) {
    report.ops_per_cpu_sec = report.ops / report.cpu_seconds_total;
  }
  if (report.cpu_seconds_max > 0) {
    report.modeled_parallel_ops_per_sec = report.ops / report.cpu_seconds_max;
  }
  if (report.latency_micros.count() > 0) {
    report.p50_micros = report.latency_micros.Percentile(50.0);
    report.p99_micros = report.latency_micros.Percentile(99.0);
    report.p999_micros = report.latency_micros.Percentile(99.9);
  }
  if (report.mm_latency_micros.count() > 0) {
    report.mm_p50_micros = report.mm_latency_micros.Percentile(50.0);
    report.mm_p99_micros = report.mm_latency_micros.Percentile(99.0);
  }
  if (report.ss_latency_micros.count() > 0) {
    report.ss_p50_micros = report.ss_latency_micros.Percentile(50.0);
    report.ss_p99_micros = report.ss_latency_micros.Percentile(99.0);
  }
  return report;
}

}  // namespace

std::string RunReport::ToString() const {
  char buf[640];
  snprintf(buf, sizeof(buf),
           "threads=%d ops=%llu failed=%llu wall=%.3fs cpu=%.3fs | "
           "%.0f ops/wall-sec, %.0f ops/cpu-sec, %.0f modeled ops/sec | "
           "p50=%.1fus p99=%.1fus p999=%.1fus | "
           "r/u/i/s/rmw=%llu/%llu/%llu/%llu/%llu batch_calls=%llu",
           threads, (unsigned long long)ops, (unsigned long long)failed_ops,
           wall_seconds, cpu_seconds_total, ops_per_wall_sec,
           ops_per_cpu_sec, modeled_parallel_ops_per_sec, p50_micros,
           p99_micros, p999_micros, (unsigned long long)op_counts[0],
           (unsigned long long)op_counts[1], (unsigned long long)op_counts[2],
           (unsigned long long)op_counts[3], (unsigned long long)op_counts[4],
           (unsigned long long)batch_calls);
  std::string out = buf;
  if (mm_latency_micros.count() > 0 || ss_latency_micros.count() > 0) {
    snprintf(buf, sizeof(buf),
             "\nclasses: mm=%llu (p50=%.1fus p99=%.1fus) "
             "ss=%llu (p50=%.1fus p99=%.1fus)",
             (unsigned long long)mm_latency_micros.count(), mm_p50_micros,
             mm_p99_micros, (unsigned long long)ss_latency_micros.count(),
             ss_p50_micros, ss_p99_micros);
    out += buf;
  }
  if (store.foreground_maintenance_ops > 0 ||
      store.background_maintenance_steps > 0 || store.write_stalls > 0) {
    snprintf(buf, sizeof(buf),
             "\nmaintenance: foreground_ops=%llu background_steps=%llu "
             "write_stalls=%llu stall_micros=%llu",
             (unsigned long long)store.foreground_maintenance_ops,
             (unsigned long long)store.background_maintenance_steps,
             (unsigned long long)store.write_stalls,
             (unsigned long long)store.stall_micros_total);
    out += buf;
  }
  return out;
}

Runner::Runner(core::KvStore* store, WorkloadSpec spec, RunnerOptions options)
    : store_(store), spec_(spec), options_(options) {
  if (options_.threads < 1) options_.threads = 1;
}

Status Runner::Load() {
  const int threads = options_.threads;
  const uint64_t per =
      (spec_.record_count + threads - 1) / static_cast<uint64_t>(threads);
  std::vector<Status> statuses(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t begin = std::min<uint64_t>(t * per, spec_.record_count);
      const uint64_t end = std::min<uint64_t>(begin + per, spec_.record_count);
      Workload loader(spec_, /*thread_seed_offset=*/1000 + t);
      statuses[t] = loader.LoadRange(store_, begin, end);
    });
  }
  for (auto& w : workers) w.join();
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

RunReport Runner::Run() {
  const int threads = options_.threads;
  std::vector<ThreadResult> results(threads);
  PhaseBarrier barrier(threads);
  const core::KvStoreStats before = store_->Stats();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      barrier.Arrive();  // synchronized start: no thread measures alone
      RunPhase(store_, spec_, options_, t, &results[t]);
    });
  }
  for (auto& w : workers) w.join();
  RunReport report = MergeResults(threads, results);
  report.store = store_->Stats() - before;
  return report;
}

RunReport Runner::LoadAndRun() {
  if (!options_.parallel_load) {
    Workload loader(spec_);
    Status s = loader.Load(store_);
    if (!s.ok()) {
      RunReport failed;
      failed.threads = options_.threads;
      failed.failed_ops = 1;
      return failed;
    }
    return Run();
  }

  const int threads = options_.threads;
  std::vector<ThreadResult> results(threads);
  PhaseBarrier barrier(threads);
  const core::KvStoreStats before = store_->Stats();
  const uint64_t per =
      (spec_.record_count + threads - 1) / static_cast<uint64_t>(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t begin = std::min<uint64_t>(t * per, spec_.record_count);
      const uint64_t end = std::min<uint64_t>(begin + per, spec_.record_count);
      Workload loader(spec_, /*thread_seed_offset=*/1000 + t);
      results[t].load_status = loader.LoadRange(store_, begin, end);
      // Phase barrier: every partition is fully loaded before any
      // thread's first measured op.
      barrier.Arrive();
      RunPhase(store_, spec_, options_, t, &results[t]);
    });
  }
  for (auto& w : workers) w.join();
  RunReport report = MergeResults(threads, results);
  report.store = store_->Stats() - before;
  return report;
}

}  // namespace costperf::workload
