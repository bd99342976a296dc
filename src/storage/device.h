#ifndef COSTPERF_STORAGE_DEVICE_H_
#define COSTPERF_STORAGE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/io_path.h"
#include "storage/rate_limiter.h"

namespace costperf::storage {

// Configuration for the simulated flash SSD.
//
// Substitution note (see DESIGN.md §2): the paper's experiments ran on a
// real Samsung SSD via SPDK. The cost analysis consumes only three device
// properties — IOPS capacity, CPU execution cost per I/O, and media
// latency — so the simulation reproduces exactly those, with the media
// itself held in RAM.
struct SsdOptions {
  uint64_t capacity_bytes = 4ull << 30;  // .5TB in the paper; scaled down
  // Max I/O operations per second the device admits (paper: 2e5; the drive
  // itself was 3e5-class). 0 disables the throttle.
  double max_iops = 200'000.0;
  // Media service times (typical flash: ~90us read). These contribute to
  // latency accounting, never to CPU cost.
  uint64_t read_service_nanos = 90'000;
  uint64_t write_service_nanos = 30'000;
  // Which CPU execution path each I/O charges (§7.1.1).
  IoPathKind io_path = IoPathKind::kUserLevel;
  IoPathOptions path_options;
  // Time source; defaults to RealClock::Global().
  Clock* clock = nullptr;
};

// Fault-injection hook consulted on every I/O when attached (see
// fault/fault_injector.h for the scriptable implementation). Implementations
// must be thread-safe: SsdDevice calls them concurrently from every I/O
// thread. The device itself pays a single atomic pointer load per I/O when
// no hook is attached.
class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;

  // Consulted before a read transfers data. A non-OK status fails the read:
  // no bytes move, no I/O is charged, and the status is returned verbatim.
  virtual Status OnRead(uint64_t offset, size_t len) = 0;

  // Verdict for one write. `admit_bytes` is how much of the payload reaches
  // media before `status` is returned — the torn-write model: a crash mid
  // write persists a prefix and the caller sees the error. `bit_flips` are
  // XOR masks applied to admitted bytes (offset relative to this write),
  // modelling media corruption of data the device claimed to accept.
  struct WriteOutcome {
    Status status = Status::Ok();
    size_t admit_bytes = ~size_t{0};  // clamped to the payload size
    std::vector<std::pair<size_t, uint8_t>> bit_flips;
  };
  virtual WriteOutcome OnWrite(uint64_t offset, size_t len) = 0;
};

// Monotonic device counters. Plain struct snapshot for reporting.
struct DeviceStatsSnapshot {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t trims = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t path_units = 0;            // CPU work units burned in I/O paths
  uint64_t throttle_wait_nanos = 0;   // admission delay accrued
  uint64_t service_nanos = 0;         // media busy time accrued
  uint64_t injected_read_errors = 0;
  uint64_t injected_write_errors = 0;
  uint64_t occupied_bytes = 0;        // physically allocated media
};

// Byte-addressable simulated flash device. Thread-safe. Storage is sparse:
// 1 MiB chunks allocated on first write, freed by Trim — so `occupied_
// bytes` tracks live media for storage-cost accounting.
class SsdDevice {
 public:
  explicit SsdDevice(SsdOptions options);
  ~SsdDevice();

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  // Reads len bytes at offset into dst. Charges one I/O: path CPU work,
  // one IOPS token, service time. Unwritten regions read as zero.
  Status Read(uint64_t offset, size_t len, char* dst);

  // Writes data at offset. Charges one I/O (LLAMA batches many pages per
  // write, so per-write cost amortizes exactly as in the paper).
  Status Write(uint64_t offset, const Slice& data);

  // Releases physical media in [offset, offset+len). Control-path only:
  // no IOPS token, no media service time.
  Status Trim(uint64_t offset, uint64_t len);

  DeviceStatsSnapshot stats() const;
  void ResetStats();

  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  const SsdOptions& options() const { return options_; }

  // Switches the I/O execution path at runtime (used by the Fig. 7 bench
  // to compare OS-mediated vs user-level on the same store).
  void set_io_path(IoPathKind kind) { options_.io_path = kind; }
  IoPathKind io_path() const { return options_.io_path; }

  // Attaches (or, with nullptr, detaches) a fault hook. The hook must
  // outlive every in-flight I/O issued after attachment; detach before
  // destroying it. Runtime-settable so tests arm faults against a live
  // device mid-workload.
  void set_fault_hook(IoFaultHook* hook) {
    fault_hook_.store(hook, std::memory_order_release);
  }
  IoFaultHook* fault_hook() const {
    return fault_hook_.load(std::memory_order_acquire);
  }

  // Observed IOPS capability of this device configuration, measured by
  // issuing a saturation burst (used by calibration).
  double MeasureIops(uint64_t probe_ios = 10'000);

 private:
  static constexpr uint64_t kChunkBytes = 1ull << 20;

  struct Chunk {
    std::vector<char> data;
  };

  // Charges the non-media costs of one I/O touching `bytes`.
  Status ChargeIo(bool is_read, char* transfer, size_t bytes);

  SsdOptions options_;
  Clock* clock_;
  IoPathSimulator path_;
  RateLimiter limiter_;

  mutable SharedMutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Chunk>> chunks_
      GUARDED_BY(mu_);

  // Counters (relaxed; they are statistics, not synchronization).
  std::atomic<uint64_t> reads_{0}, writes_{0}, trims_{0};
  std::atomic<uint64_t> bytes_read_{0}, bytes_written_{0};
  std::atomic<uint64_t> path_units_{0}, throttle_wait_nanos_{0};
  std::atomic<uint64_t> service_nanos_{0};
  std::atomic<uint64_t> injected_read_errors_{0}, injected_write_errors_{0};
  std::atomic<uint64_t> occupied_bytes_{0};

  // Single pointer load on the hot path; null when no faults are armed.
  std::atomic<IoFaultHook*> fault_hook_{nullptr};
};

}  // namespace costperf::storage

#endif  // COSTPERF_STORAGE_DEVICE_H_
