#include "storage/device.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace costperf::storage {

SsdDevice::SsdDevice(SsdOptions options)
    : options_(options),
      clock_(options.clock ? options.clock : RealClock::Global()),
      path_(options.path_options),
      limiter_(clock_, options.max_iops) {}

SsdDevice::~SsdDevice() = default;

Status SsdDevice::ChargeIo(bool is_read, char* transfer, size_t bytes) {
  // 1. CPU execution cost of the I/O path (the paper's key SS-op cost).
  path_units_.fetch_add(path_.Execute(options_.io_path, transfer, bytes),
                        std::memory_order_relaxed);
  // 2. IOPS admission. The wait is accounted, never slept: the paper's
  // "core execution time" measure excludes I/O waiting.
  uint64_t wait = limiter_.Acquire();
  if (wait > 0) {
    throttle_wait_nanos_.fetch_add(wait, std::memory_order_relaxed);
  }
  // 3. Media service time (latency only, never CPU).
  service_nanos_.fetch_add(
      is_read ? options_.read_service_nanos : options_.write_service_nanos,
      std::memory_order_relaxed);
  return Status::Ok();
}

Status SsdDevice::Read(uint64_t offset, size_t len, char* dst) {
  if (offset + len > options_.capacity_bytes) {
    return Status::OutOfRange("read beyond device capacity");
  }
  if (IoFaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    Status s = hook->OnRead(offset, len);
    if (!s.ok()) {
      injected_read_errors_.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(len, std::memory_order_relaxed);

  {
    ReaderMutexLock lk(&mu_);
    size_t done = 0;
    while (done < len) {
      uint64_t pos = offset + done;
      uint64_t chunk_id = pos / kChunkBytes;
      uint64_t in_chunk = pos % kChunkBytes;
      size_t n = std::min<uint64_t>(len - done, kChunkBytes - in_chunk);
      // as_const: find() must bind to the const overload so the shared
      // (reader) capability suffices under -Wthread-safety.
      auto it = std::as_const(chunks_).find(chunk_id);
      if (it == chunks_.end()) {
        memset(dst + done, 0, n);
      } else {
        memcpy(dst + done, it->second->data.data() + in_chunk, n);
      }
      done += n;
    }
  }
  return ChargeIo(/*is_read=*/true, dst, len);
}

Status SsdDevice::Write(uint64_t offset, const Slice& data) {
  if (offset + data.size() > options_.capacity_bytes) {
    return Status::OutOfRange("write beyond device capacity");
  }
  // Default verdict: admit everything, no corruption, success.
  IoFaultHook::WriteOutcome verdict;
  if (IoFaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    verdict = hook->OnWrite(offset, data.size());
  }
  const size_t admit = std::min(verdict.admit_bytes, data.size());
  if (!verdict.status.ok()) {
    injected_write_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (admit == 0 && !verdict.status.ok()) {
    // Fully rejected write: like the read path, nothing moved and nothing
    // is charged or counted.
    return verdict.status;
  }

  // Corrupted writes stage the payload so caller data stays untouched.
  Slice payload(data.data(), admit);
  std::string corrupted;
  if (!verdict.bit_flips.empty()) {
    corrupted.assign(data.data(), admit);
    for (const auto& [at, mask] : verdict.bit_flips) {
      if (at < admit) corrupted[at] = static_cast<char>(corrupted[at] ^ mask);
    }
    payload = Slice(corrupted);
  }

  writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(admit, std::memory_order_relaxed);

  {
    WriterMutexLock lk(&mu_);
    size_t done = 0;
    while (done < payload.size()) {
      uint64_t pos = offset + done;
      uint64_t chunk_id = pos / kChunkBytes;
      uint64_t in_chunk = pos % kChunkBytes;
      size_t n =
          std::min<uint64_t>(payload.size() - done, kChunkBytes - in_chunk);
      auto& chunk = chunks_[chunk_id];
      if (chunk == nullptr) {
        chunk = std::make_unique<Chunk>();
        chunk->data.assign(kChunkBytes, 0);
        occupied_bytes_.fetch_add(kChunkBytes, std::memory_order_relaxed);
      }
      memcpy(chunk->data.data() + in_chunk, payload.data() + done, n);
      done += n;
    }
  }
  if (!verdict.status.ok()) {
    // Torn write: the prefix reached media but the device "died" before
    // acknowledging — no cost accounting for an I/O that never completed.
    return verdict.status;
  }
  // The path simulator may scribble through a copy on the OS path; pass a
  // scratch view so caller data is untouched.
  return ChargeIo(/*is_read=*/false, /*transfer=*/nullptr, data.size());
}

Status SsdDevice::Trim(uint64_t offset, uint64_t len) {
  if (offset + len > options_.capacity_bytes) {
    return Status::OutOfRange("trim beyond device capacity");
  }
  trims_.fetch_add(1, std::memory_order_relaxed);
  WriterMutexLock lk(&mu_);
  // Free only chunks fully covered by the trim.
  uint64_t first_full = (offset + kChunkBytes - 1) / kChunkBytes;
  uint64_t last_full = (offset + len) / kChunkBytes;  // exclusive
  for (uint64_t c = first_full; c < last_full; ++c) {
    auto it = chunks_.find(c);
    if (it != chunks_.end()) {
      chunks_.erase(it);
      occupied_bytes_.fetch_sub(kChunkBytes, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

DeviceStatsSnapshot SsdDevice::stats() const {
  DeviceStatsSnapshot s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.trims = trims_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.path_units = path_units_.load(std::memory_order_relaxed);
  s.throttle_wait_nanos = throttle_wait_nanos_.load(std::memory_order_relaxed);
  s.service_nanos = service_nanos_.load(std::memory_order_relaxed);
  s.injected_read_errors =
      injected_read_errors_.load(std::memory_order_relaxed);
  s.injected_write_errors =
      injected_write_errors_.load(std::memory_order_relaxed);
  s.occupied_bytes = occupied_bytes_.load(std::memory_order_relaxed);
  return s;
}

void SsdDevice::ResetStats() {
  reads_ = writes_ = trims_ = 0;
  bytes_read_ = bytes_written_ = 0;
  path_units_ = throttle_wait_nanos_ = service_nanos_ = 0;
  injected_read_errors_ = injected_write_errors_ = 0;
}

double SsdDevice::MeasureIops(uint64_t probe_ios) {
  // Drain tokens in a tight burst; the final token's admission delay tells
  // us how long the device needs to serve the batch, i.e. its IOPS rate.
  uint64_t last_wait = 0;
  const uint64_t start = clock_->NowNanos();
  for (uint64_t i = 0; i < probe_ios; ++i) {
    last_wait = limiter_.Acquire();
  }
  const uint64_t elapsed = clock_->NowNanos() - start;
  const uint64_t span = last_wait + elapsed;
  if (span == 0) {
    // Unthrottled device: report configured rate or "infinite".
    return options_.max_iops > 0 ? options_.max_iops : 1e9;
  }
  return static_cast<double>(probe_ios) /
         (static_cast<double>(span) * 1e-9);
}

}  // namespace costperf::storage
