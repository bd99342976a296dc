#ifndef COSTPERF_LLAMA_LOG_STORE_H_
#define COSTPERF_LLAMA_LOG_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/slice.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "llama/flash_address.h"
#include "mapping/mapping_table.h"
#include "storage/device.h"

namespace costperf::llama {

using mapping::PageId;

struct LogStoreOptions {
  // Segment == write buffer == GC unit. Aligned with the device's 1 MiB
  // trim granularity so collected segments actually free media.
  uint64_t segment_bytes = 1 << 20;
};

struct LogStoreStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;       // payload + headers
  uint64_t payload_bytes_appended = 0;  // stored (on-media) payload bytes
  uint64_t segments_written = 0;
  uint64_t buffer_reads = 0;    // reads served from the open write buffer
  uint64_t device_reads = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_relocated_records = 0;
  uint64_t gc_reclaimed_bytes = 0;
  uint64_t dead_bytes_marked = 0;
  // Space-accounting closure terms (consumed by analysis::LogStoreAuditor;
  // see its header for the two identities these must satisfy):
  uint64_t bytes_collected = 0;       // record bytes retired with GC'd segments
  uint64_t dead_bytes_collected = 0;  // dead marks retired with GC'd segments
  uint64_t recovered_bytes = 0;       // record bytes adopted by Recover()
  // CSS (compressed-record) accounting. `stored` is bytes on media,
  // `raw` the decompressed size the header declares. These close their
  // own auditor identity, mirroring the space-accounting closure above:
  //   css_stored_appended + css_stored_recovered
  //     == sum(segment css_stored_bytes) + css_stored_collected
  // (and the same for raw). GC relocation of a compressed record counts
  // as a fresh compressed append, exactly like bytes_appended does.
  uint64_t css_records_appended = 0;
  uint64_t css_stored_bytes_appended = 0;
  uint64_t css_raw_bytes_appended = 0;
  uint64_t css_stored_bytes_collected = 0;
  uint64_t css_raw_bytes_collected = 0;
  uint64_t css_stored_bytes_recovered = 0;
  uint64_t css_raw_bytes_recovered = 0;
  // Group-append visibility: appends reserve space under the latch and
  // encode outside it; a "group" is the run of appends whose encodes
  // overlapped (the fill counter rose from and returned to zero). With no
  // concurrency every group holds one append.
  uint64_t append_groups = 0;
};

struct SegmentInfo {
  uint64_t id = 0;
  uint64_t used_bytes = 0;
  uint64_t dead_bytes = 0;
  // Compressed-record payload bytes appended into this segment (stored =
  // on media, raw = declared decompressed size). Never decremented by
  // MarkDead: like used_bytes these retire with the segment.
  uint64_t css_stored_bytes = 0;
  uint64_t css_raw_bytes = 0;
  bool sealed = false;
  double live_fraction() const {
    return used_bytes == 0
               ? 1.0
               : 1.0 - static_cast<double>(dead_bytes) /
                           static_cast<double>(used_bytes);
  }
};

// What GC's install callback found for one relocated record.
enum class InstallOutcome {
  // The page now references the relocated copy.
  kInstalled,
  // The page no longer references the old record: a flush, eviction or
  // free replaced it after the liveness check.
  kSuperseded,
  // The page still references the old record and could not be moved.
  kStillReferenced,
};

struct GcStats {
  uint64_t segment_id = 0;
  uint64_t relocated_records = 0;
  uint64_t relocated_bytes = 0;
  uint64_t reclaimed_bytes = 0;
  // Live records whose relocation could not be installed while their page
  // still referenced them. When nonzero the victim was NOT trimmed: its
  // durable copies are still referenced, so reclaiming the media would
  // lose them. A superseded record does not count: nothing needs it.
  uint64_t failed_installs = 0;
};

// What Recover() found on media and what it decided about it. A crash can
// tear at most the log tail, so bytes_truncated/torn_segments are expected
// after an unclean shutdown; corrupt_records_skipped > 0 means mid-log
// checksum damage (bad media, not a crash).
struct RecoveryReport {
  uint64_t segments_scanned = 0;        // segments with a valid header
  uint64_t records_adopted = 0;         // records replayed to the visitor
  uint64_t bytes_adopted = 0;           // record bytes adopted (incl. skipped)
  uint64_t bytes_truncated = 0;         // torn-tail bytes discarded
  uint64_t corrupt_records_skipped = 0; // framed records failing checksum
  uint64_t torn_segments = 0;           // segments with a torn tail/header
  std::string ToString() const;
};

// Deuteronomy-LLAMA-style log-structured store (paper §6.1, Fig. 4/5):
// variable-size page images accumulate in a large in-memory write buffer
// and reach the device in one large write per segment, shrinking both the
// number of writes and (with variable sizes) the bytes written. (A GC
// round writes the open segment's tail early, so its relocations are
// durable before the victim is trimmed.) Every append relocates the
// page, so callers track positions via FlashAddress and the mapping
// table.
//
// Thread-safe. Appends are group-batched: each append takes the latch
// only to reserve its byte range in the open buffer, then encodes the
// header, checksum, and payload copy *outside* the latch (the buffer's
// capacity is pre-reserved at segment size, so reserved ranges are
// pointer-stable). A fill counter plus condition variable lets sealing —
// and open-buffer reads — wait for in-flight encodes, so the latch hold
// time is O(1) regardless of payload size. A read of a record in a
// sealed segment takes no latch at all: it compares the segment id with
// an atomic mirror of the open segment id, published only after the
// seal's device write, so it never queues behind appends or behind a
// seal's write. Only a read that may hit the open segment takes the
// latch, to copy out of the buffer or to find the segment sealed.
class LogStructuredStore {
 public:
  // `device` must outlive the store.
  LogStructuredStore(storage::SsdDevice* device, LogStoreOptions options = {});

  LogStructuredStore(const LogStructuredStore&) = delete;
  LogStructuredStore& operator=(const LogStructuredStore&) = delete;

  // Buffers one record; the returned address is final (the segment's
  // device position is fixed at creation). Seals+writes the buffer first
  // if the record does not fit.
  Result<FlashAddress> Append(PageId pid, const Slice& image);

  // Buffers an already-compressed record (the caller ran the image
  // through compression::Compressor — a tiered tree's flush compresses
  // once and applies its ratio test to that call's output). `raw_len` is
  // the decompressed size, carried in the header so Read/Recover can
  // bound and validate decompression. The CRC covers the compressed bytes as
  // stored, so torn-tail recovery sees both record forms identically.
  Result<FlashAddress> AppendCompressed(PageId pid, const Slice& compressed,
                                        uint32_t raw_len);

  // Reads a record's payload. Serves from the open write buffer when the
  // address has not been flushed yet (no I/O — this is what makes freshly
  // written pages cheap to re-read), and from the device without taking
  // the latch when its segment is sealed. Verifies pid and checksum.
  // Compressed records are decompressed transparently; *was_compressed
  // (when non-null) reports which form was on media so callers can count
  // CSS-tier reads.
  Status Read(FlashAddress addr, std::string* image,
              PageId* pid_out = nullptr, bool* was_compressed = nullptr);

  // Seals the open buffer and writes it to the device (no-op if empty).
  Status Flush();

  // Declares the record at addr superseded; fuels GC victim selection.
  void MarkDead(FlashAddress addr);

  // --- Garbage collection (paper §6.1: run when load is low; delaying it
  // raises reclaimed-bytes-per-segment efficiency) ---

  // Asks whether pid's current location is still `addr` (i.e. the record
  // is live).
  using LivenessFn = std::function<bool(PageId, FlashAddress)>;
  // Atomically re-points pid from old to new location. Unless it answers
  // kInstalled the relocated copy is marked dead, and only
  // kStillReferenced keeps the victim from its trim.
  using InstallFn = std::function<InstallOutcome(
      PageId, FlashAddress old_addr, FlashAddress new_addr)>;

  // Relocates live records out of a sealed segment, then trims it.
  Result<GcStats> CollectSegment(uint64_t segment_id, const LivenessFn& live,
                                 const InstallFn& install);

  // Collects the sealed segment with the lowest live fraction, if any is
  // below `live_threshold`. Returns NotFound if none qualifies.
  Result<GcStats> CollectColdest(const LivenessFn& live,
                                 const InstallFn& install,
                                 double live_threshold = 0.75);

  // Rebuilds segment directory and replays records after a restart. Calls
  // the visitor with each record in log order (last call per pid wins):
  // its address, its payload (decompressed when the record is stored
  // compressed) and whether it is. Only sealed (on-device) segments are
  // recoverable, by construction.
  //
  // Torn-tail tolerant: each segment is adopted up to its last record with
  // a valid checksum; everything after it (a torn tail from a crash mid
  // segment-write) is truncated. A checksum-failed record *before* later
  // valid ones is skipped and marked dead — its page either has a newer
  // image (adopted) or is genuinely lost (surfaced by the caller, not by
  // failing the whole recovery). The report (also kept, see
  // last_recovery_report) says exactly what was kept and dropped.
  using RecoveryVisitor = std::function<void(
      PageId, FlashAddress, const Slice& payload, bool compressed)>;
  Status Recover(const RecoveryVisitor& visitor,
                 RecoveryReport* report = nullptr);

  // Report from the most recent Recover() call (zeroes before any).
  RecoveryReport last_recovery_report() const;

  LogStoreStats stats() const;
  std::vector<SegmentInfo> segments() const;
  uint64_t open_segment_id() const;
  const LogStoreOptions& options() const { return options_; }

  // Dead bytes / used record bytes across the directory, read from two
  // relaxed atomics (mirrors maintained under mu_ at every directory
  // mutation). Lock-free: this is the op-path maintenance *trigger* —
  // a foreground thread asking "does the log need GC?" must not contend
  // with appends or GC itself. Advisory (the two loads are not a
  // consistent snapshot); exact accounting stays in segments().
  double DeadSpaceFraction() const;

  // Corrupts a segment's accounting by `used_delta`/`dead_delta` bytes.
  // Exists solely so tests can seed the miscounted-segment violations that
  // analysis::LogStoreAuditor must detect; never call it elsewhere.
  void TestOnlyAdjustSegmentAccounting(uint64_t segment_id,
                                       int64_t used_delta, int64_t dead_delta);

  // On-media record header size: magic(4) pid(8) stored_len(4) crc(4)
  // flags(1) raw_len(4). `stored_len` stays at offset 12 so GC/recovery
  // framing is form-agnostic; the CRC at offset 16 covers the stored
  // payload bytes (compressed form for CSS records).
  static constexpr uint64_t kHeaderBytes = 4 + 8 + 4 + 4 + 1 + 4;
  static constexpr uint32_t kRecordMagic = 0x4C4C414Du;   // "LLAM"
  static constexpr uint32_t kSegmentMagic = 0x5345474Du;  // "SEGM"
  // Record flag bits (header byte at offset 20).
  static constexpr uint8_t kRecordFlagCompressed = 0x01;
  // Segment header: magic + id.
  static constexpr uint64_t kSegmentHeaderBytes = 4 + 8;

 private:
  // Starts segment `id` with its header in the buffer.
  void OpenSegmentLocked(uint64_t id) REQUIRES(mu_);
  // Writes and seals the open segment.
  Status FlushLocked() REQUIRES(mu_);
  // Writes the open segment's unwritten tail to its device slot and
  // keeps the segment open: every record appended so far is durable,
  // and no device slot is spent on a part-filled segment.
  Status SyncLocked() REQUIRES(mu_);
  // Shared append path: `stored` is what goes on media verbatim. Both
  // public Append forms and GC relocation (which must preserve the
  // record's form) funnel through here.
  Result<FlashAddress> AppendRecord(PageId pid, const Slice& stored,
                                    uint8_t flags, uint32_t raw_len);
  // Encodes into a pre-reserved buffer range of exactly
  // kHeaderBytes + stored.size() bytes (the unlatched half of Append).
  static void EncodeRecordTo(PageId pid, const Slice& stored, uint8_t flags,
                             uint32_t raw_len, char* dst);
  // Parses and checksums the record at `data`; returns the *stored*
  // payload view (still compressed for CSS records) plus the form
  // fields, or error.
  static Status DecodeRecord(const char* data, uint64_t len, PageId* pid,
                             Slice* payload, uint8_t* flags,
                             uint32_t* raw_len);

  storage::SsdDevice* device_;
  LogStoreOptions options_;

  // Append/group-commit latch. Rank 2 in the global lock order: nests
  // inside a store maintenance pass and may be held across (simulated)
  // media waits, so the short cache-shard latches are ordered after it —
  // a shard latch must never wrap a stalling append (lock_order.h).
  mutable Mutex mu_ ACQUIRED_AFTER(lock_rank::kStoreMaintenance)
      ACQUIRED_BEFORE(lock_rank::kCacheShard);
  // Signaled when in-flight fills drain to zero and when sealing ends.
  std::condition_variable_any cv_;
  // Appends that reserved a range in open_buffer_ but have not finished
  // encoding into it.
  uint64_t pending_fills_ GUARDED_BY(mu_) = 0;
  // True while a flusher waits for fills and writes the segment; blocks
  // new reservations so the sealed image is complete.
  bool sealing_ GUARDED_BY(mu_) = false;
  // Contents of the open segment so far. Capacity is reserved at
  // segment_bytes, so in-place fills never move the data.
  std::string open_buffer_ GUARDED_BY(mu_);
  // Leading bytes of open_buffer_ already on the device (SyncLocked).
  uint64_t synced_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t open_segment_id_ GUARDED_BY(mu_) = 0;
  // open_segment_id_, stored (release) by OpenSegmentLocked: after the
  // previous segment's device write when a seal opens it. A segment below
  // it is sealed and wholly on the device, which is what lets Read skip
  // mu_ for it.
  std::atomic<uint64_t> open_segment_mirror_{0};
  uint64_t next_segment_id_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, SegmentInfo> directory_ GUARDED_BY(mu_);

  // Every LogStoreStats field but device_reads, which latch-free reads
  // bump in device_reads_ (relaxed; stats() folds it in).
  LogStoreStats stats_ GUARDED_BY(mu_);
  std::atomic<uint64_t> device_reads_{0};
  RecoveryReport recovery_report_ GUARDED_BY(mu_);

  // Directory-total mirrors for DeadSpaceFraction(): record bytes in the
  // directory (headers excluded) and dead marks against them. Written
  // only under mu_, read lock-free.
  std::atomic<uint64_t> approx_used_bytes_{0};
  std::atomic<uint64_t> approx_dead_bytes_{0};
};

}  // namespace costperf::llama

#endif  // COSTPERF_LLAMA_LOG_STORE_H_
