#include "llama/log_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "compression/compressor.h"

namespace costperf::llama {

std::string FlashAddress::ToString() const {
  char buf[64];
  snprintf(buf, sizeof(buf), "flash[%llu+%llu]",
           static_cast<unsigned long long>(offset()),
           static_cast<unsigned long long>(len()));
  return buf;
}

LogStructuredStore::LogStructuredStore(storage::SsdDevice* device,
                                       LogStoreOptions options)
    : device_(device), options_(options) {
  MutexLock lk(&mu_);
  OpenSegmentLocked(next_segment_id_++);
}

void LogStructuredStore::OpenSegmentLocked(uint64_t id) {
  open_segment_id_ = id;
  open_segment_mirror_.store(id, std::memory_order_release);
  synced_bytes_ = 0;
  open_buffer_.clear();
  open_buffer_.reserve(options_.segment_bytes);
  PutFixed32(&open_buffer_, kSegmentMagic);
  PutFixed64(&open_buffer_, id);
  SegmentInfo info;
  info.id = id;
  info.used_bytes = kSegmentHeaderBytes;
  directory_[id] = info;
}

void LogStructuredStore::EncodeRecordTo(PageId pid, const Slice& stored,
                                        uint8_t flags, uint32_t raw_len,
                                        char* dst) {
  EncodeFixed32(dst, kRecordMagic);
  EncodeFixed64(dst + 4, pid);
  EncodeFixed32(dst + 12, static_cast<uint32_t>(stored.size()));
  // The CRC covers the stored bytes — the compressed form for CSS
  // records — so torn-tail recovery validates both forms the same way.
  EncodeFixed32(dst + 16, MaskCrc(Crc32c(stored.data(), stored.size())));
  dst[20] = static_cast<char>(flags);
  EncodeFixed32(dst + 21, raw_len);
  memcpy(dst + kHeaderBytes, stored.data(), stored.size());
}

Status LogStructuredStore::DecodeRecord(const char* data, uint64_t len,
                                        PageId* pid, Slice* payload,
                                        uint8_t* flags, uint32_t* raw_len) {
  if (len < kHeaderBytes) return Status::Corruption("record too short");
  if (DecodeFixed32(data) != kRecordMagic) {
    return Status::Corruption("bad record magic");
  }
  uint64_t record_pid = DecodeFixed64(data + 4);
  uint32_t payload_len = DecodeFixed32(data + 12);
  uint32_t stored_crc = UnmaskCrc(DecodeFixed32(data + 16));
  uint8_t record_flags = static_cast<uint8_t>(data[20]);
  uint32_t record_raw_len = DecodeFixed32(data + 21);
  if (kHeaderBytes + payload_len > len) {
    return Status::Corruption("record payload truncated");
  }
  if (Crc32c(data + kHeaderBytes, payload_len) != stored_crc) {
    return Status::Corruption("record checksum mismatch");
  }
  if ((record_flags & ~kRecordFlagCompressed) != 0) {
    return Status::Corruption("unknown record flags");
  }
  if ((record_flags & kRecordFlagCompressed) == 0 &&
      record_raw_len != payload_len) {
    return Status::Corruption("raw length mismatch on plain record");
  }
  *pid = record_pid;
  *payload = Slice(data + kHeaderBytes, payload_len);
  *flags = record_flags;
  *raw_len = record_raw_len;
  return Status::Ok();
}

Result<FlashAddress> LogStructuredStore::Append(PageId pid,
                                                const Slice& image) {
  if (image.size() > UINT32_MAX) {
    return Status::InvalidArgument("page image exceeds length field");
  }
  return AppendRecord(pid, image, 0, static_cast<uint32_t>(image.size()));
}

Result<FlashAddress> LogStructuredStore::AppendCompressed(
    PageId pid, const Slice& compressed, uint32_t raw_len) {
  return AppendRecord(pid, compressed, kRecordFlagCompressed, raw_len);
}

Result<FlashAddress> LogStructuredStore::AppendRecord(PageId pid,
                                                      const Slice& stored,
                                                      uint8_t flags,
                                                      uint32_t raw_len) {
  const uint64_t record_len = kHeaderBytes + stored.size();
  if (record_len > options_.segment_bytes - kSegmentHeaderBytes) {
    return Status::InvalidArgument("page image exceeds segment size");
  }
  if (record_len > FlashAddress::kMaxLen) {
    return Status::InvalidArgument("page image exceeds address length field");
  }
  const bool compressed = (flags & kRecordFlagCompressed) != 0;
  uint64_t device_offset = 0;
  char* dst = nullptr;
  {
    MutexLock lk(&mu_);
    // A sealing flusher owns the buffer until the segment is on media.
    while (sealing_) cv_.wait(mu_);
    if (open_buffer_.size() + record_len > options_.segment_bytes) {
      Status s = FlushLocked();
      if (!s.ok()) return s;
    }
    const uint64_t in_segment = open_buffer_.size();
    device_offset = open_segment_id_ * options_.segment_bytes + in_segment;
    // Reserve the record's byte range; capacity was pre-reserved at
    // segment size, so this never reallocates and `dst` stays valid
    // after the latch drops.
    open_buffer_.resize(in_segment + record_len);
    dst = open_buffer_.data() + in_segment;
    pending_fills_++;
    SegmentInfo& seg = directory_[open_segment_id_];
    seg.used_bytes = open_buffer_.size();
    stats_.records_appended++;
    stats_.bytes_appended += record_len;
    stats_.payload_bytes_appended += stored.size();
    if (compressed) {
      seg.css_stored_bytes += stored.size();
      seg.css_raw_bytes += raw_len;
      stats_.css_records_appended++;
      stats_.css_stored_bytes_appended += stored.size();
      stats_.css_raw_bytes_appended += raw_len;
    }
    approx_used_bytes_.fetch_add(record_len, std::memory_order_relaxed);
  }
  // Header, checksum, and payload copy happen outside the latch —
  // concurrent appends encode their disjoint ranges in parallel.
  EncodeRecordTo(pid, stored, flags, raw_len, dst);
  {
    MutexLock lk(&mu_);
    if (--pending_fills_ == 0) {
      stats_.append_groups++;
      cv_.notify_all();
    }
  }
  return FlashAddress(device_offset, record_len);
}

Status LogStructuredStore::FlushLocked() {
  // Another flusher may be sealing; once it finishes the buffer is fresh
  // (usually empty) and the size check below turns this into a no-op.
  while (sealing_) cv_.wait(mu_);
  if (open_buffer_.size() <= kSegmentHeaderBytes) return Status::Ok();
  // Nothing can take sealing_ between the check above and SyncLocked:
  // mu_ is held throughout.
  Status s = SyncLocked();
  if (!s.ok()) return s;
  directory_[open_segment_id_].sealed = true;
  stats_.segments_written++;
  OpenSegmentLocked(next_segment_id_++);
  return Status::Ok();
}

Status LogStructuredStore::SyncLocked() {
  while (sealing_) cv_.wait(mu_);
  if (open_buffer_.size() <= std::max(synced_bytes_, kSegmentHeaderBytes)) {
    return Status::Ok();
  }
  // Block new reservations and wait out in-flight encodes so the tail
  // written below is complete.
  sealing_ = true;
  while (pending_fills_ > 0) cv_.wait(mu_);
  const uint64_t device_offset =
      open_segment_id_ * options_.segment_bytes + synced_bytes_;
  Status s = device_->Write(
      device_offset, Slice(open_buffer_.data() + synced_bytes_,
                           open_buffer_.size() - synced_bytes_));
  sealing_ = false;
  cv_.notify_all();
  if (s.ok()) synced_bytes_ = open_buffer_.size();
  return s;
}

Status LogStructuredStore::Flush() {
  MutexLock lk(&mu_);
  return FlushLocked();
}

namespace {

// Materializes a decoded record's payload into *image, inflating
// compressed records. The header's raw_len bounds the decompression, and
// a post-CRC decompress failure is Corruption — a compressed image whose
// checksum passes but whose stream is malformed must never be adopted.
Status MaterializeRecordPayload(const Slice& payload, uint8_t flags,
                                uint32_t raw_len, std::string* image) {
  if ((flags & LogStructuredStore::kRecordFlagCompressed) == 0) {
    image->assign(payload.data(), payload.size());
    return Status::Ok();
  }
  Status s = compression::Compressor::Decompress(payload, image, raw_len);
  if (!s.ok()) return s;
  if (image->size() != raw_len) {
    return Status::Corruption("compressed record raw length mismatch");
  }
  return Status::Ok();
}

}  // namespace

Status LogStructuredStore::Read(FlashAddress addr, std::string* image,
                                PageId* pid_out, bool* was_compressed) {
  if (!addr.valid()) return Status::InvalidArgument("invalid flash address");
  const uint64_t seg = addr.offset() / options_.segment_bytes;
  // Raw record bytes land here (copied out of the open buffer, or read
  // from the device); decode and any decompression run latch-free. The
  // buffer is per thread and keeps its capacity, so a read allocates only
  // the payload it hands back.
  thread_local std::string raw;
  bool buffered = false;
  // A segment below the mirror was sealed after its device write (the
  // acquire pairs with OpenSegmentLocked's release), so its records are
  // read from the device with no latch taken. Otherwise the record may
  // be in the open buffer, which only mu_ covers.
  if (seg >= open_segment_mirror_.load(std::memory_order_acquire)) {
    MutexLock lk(&mu_);
    // Wait out in-flight encodes so we never read a reserved-but-unfilled
    // range. The open segment may seal while we wait, flipping us to the
    // device path.
    while (seg == open_segment_id_ && pending_fills_ > 0) cv_.wait(mu_);
    if (seg == open_segment_id_) {
      // Served from the open write buffer: no device I/O. Copy the record
      // out so decode/decompress need not hold the append latch.
      const uint64_t in_seg = addr.offset() % options_.segment_bytes;
      if (in_seg + addr.len() > open_buffer_.size()) {
        return Status::Corruption("address beyond open buffer");
      }
      stats_.buffer_reads++;
      raw.assign(open_buffer_.data() + in_seg, addr.len());
      buffered = true;
    }
  }
  if (!buffered) {
    device_reads_.fetch_add(1, std::memory_order_relaxed);
    raw.resize(addr.len());
    Status s = device_->Read(addr.offset(), addr.len(), raw.data());
    if (!s.ok()) return s;
  }
  PageId pid = 0;
  Slice payload;
  uint8_t flags = 0;
  uint32_t raw_len = 0;
  Status s =
      DecodeRecord(raw.data(), raw.size(), &pid, &payload, &flags, &raw_len);
  if (!s.ok()) return s;
  if (pid_out != nullptr) *pid_out = pid;
  if (was_compressed != nullptr) {
    *was_compressed = (flags & kRecordFlagCompressed) != 0;
  }
  return MaterializeRecordPayload(payload, flags, raw_len, image);
}

void LogStructuredStore::MarkDead(FlashAddress addr) {
  if (!addr.valid()) return;
  const uint64_t seg = addr.offset() / options_.segment_bytes;
  MutexLock lk(&mu_);
  auto it = directory_.find(seg);
  if (it == directory_.end()) return;  // already collected
  it->second.dead_bytes += addr.len();
  stats_.dead_bytes_marked += addr.len();
  approx_dead_bytes_.fetch_add(addr.len(), std::memory_order_relaxed);
}

Result<GcStats> LogStructuredStore::CollectSegment(uint64_t segment_id,
                                                   const LivenessFn& live,
                                                   const InstallFn& install) {
  uint64_t used_bytes = 0;
  {
    MutexLock lk(&mu_);
    auto it = directory_.find(segment_id);
    if (it == directory_.end()) return Status::NotFound("no such segment");
    if (!it->second.sealed) {
      return Status::FailedPrecondition("cannot collect the open segment");
    }
    used_bytes = it->second.used_bytes;
    stats_.gc_runs++;
  }
  // Read the whole segment in one I/O (GC is itself log-structured work).
  std::string raw(options_.segment_bytes, '\0');
  Status s = device_->Read(segment_id * options_.segment_bytes,
                           options_.segment_bytes, raw.data());
  if (!s.ok()) return s;
  device_reads_.fetch_add(1, std::memory_order_relaxed);

  GcStats gc;
  gc.segment_id = segment_id;
  std::vector<FlashAddress> relocated_old;
  if (DecodeFixed32(raw.data()) != kSegmentMagic ||
      DecodeFixed64(raw.data() + 4) != segment_id) {
    return Status::Corruption("segment header mismatch during GC");
  }

  // Scan only the adopted range: bytes past used_bytes are either slack or
  // a truncated torn tail that Recover() already discarded.
  const uint64_t scan_end = std::min<uint64_t>(used_bytes, raw.size());
  uint64_t pos = kSegmentHeaderBytes;
  while (pos + kHeaderBytes <= scan_end &&
         DecodeFixed32(raw.data() + pos) == kRecordMagic) {
    PageId pid = 0;
    Slice payload;
    uint8_t flags = 0;
    uint32_t raw_len = 0;
    const uint64_t framed_len =
        kHeaderBytes + DecodeFixed32(raw.data() + pos + 12);
    if (pos + framed_len > scan_end) break;  // runs off the adopted range
    s = DecodeRecord(raw.data() + pos, raw.size() - pos, &pid, &payload,
                     &flags, &raw_len);
    if (!s.ok()) {
      // Checksum-failed record (skipped and marked dead by Recover):
      // nothing live to relocate; step over it.
      pos += framed_len;
      continue;
    }
    const uint64_t record_len = kHeaderBytes + payload.size();
    FlashAddress old_addr(segment_id * options_.segment_bytes + pos,
                          record_len);
    if (live(pid, old_addr)) {
      // Relocate the stored bytes verbatim, preserving the record's
      // form — GC must never pay a recompression, and a compressed
      // record stays compressed at its new address.
      Result<FlashAddress> appended = AppendRecord(pid, payload, flags,
                                                   raw_len);
      if (!appended.ok()) return appended.status();
      const InstallOutcome outcome = install(pid, old_addr, *appended);
      if (outcome == InstallOutcome::kInstalled) {
        gc.relocated_records++;
        gc.relocated_bytes += record_len;
        relocated_old.push_back(old_addr);
      } else {
        // The copy we just wrote is garbage. A page that was rewritten
        // since the liveness check no longer needs old_addr, and its
        // replacement is synced below with the relocations; one that
        // still references old_addr keeps the victim from its trim.
        MarkDead(*appended);
        if (outcome == InstallOutcome::kStillReferenced) gc.failed_installs++;
      }
    }
    pos += record_len;
  }

  // Durability ordering: every record in the victim is now either
  // relocated (sitting in the open segment's in-memory buffer) or dead —
  // superseded by a newer image that may ALSO still be buffered. Either
  // way the replacement must reach media before the victim's durable
  // copy is destroyed, or a crash here loses the page entirely. Write
  // the open segment's tail first, then trim. Sealing it instead would
  // spend a device slot per round on a part-filled segment, and slots
  // are never reused, so a busy GC would fill the device.
  {
    MutexLock lk(&mu_);
    s = SyncLocked();
  }
  if (!s.ok()) return s;

  if (gc.failed_installs > 0) {
    // Some page still references a record in this segment (an install
    // raced a concurrent load), so the media cannot be reclaimed. Mark
    // the successfully relocated records dead so the segment's live
    // fraction reflects reality and a later round retries the trim.
    for (const FlashAddress& a : relocated_old) MarkDead(a);
    {
      MutexLock lk(&mu_);
      stats_.gc_relocated_records += gc.relocated_records;
    }
    return gc;
  }

  // Reclaim the media and forget the segment.
  s = device_->Trim(segment_id * options_.segment_bytes,
                    options_.segment_bytes);
  if (!s.ok()) return s;
  {
    MutexLock lk(&mu_);
    auto it = directory_.find(segment_id);
    if (it != directory_.end()) {
      gc.reclaimed_bytes = options_.segment_bytes;
      // Close the space-accounting loop: record bytes (and their dead
      // marks) leave the directory with the collected segment.
      stats_.bytes_collected += it->second.used_bytes - kSegmentHeaderBytes;
      stats_.dead_bytes_collected += it->second.dead_bytes;
      stats_.css_stored_bytes_collected += it->second.css_stored_bytes;
      stats_.css_raw_bytes_collected += it->second.css_raw_bytes;
      approx_used_bytes_.fetch_sub(it->second.used_bytes - kSegmentHeaderBytes,
                                   std::memory_order_relaxed);
      approx_dead_bytes_.fetch_sub(it->second.dead_bytes,
                                   std::memory_order_relaxed);
      directory_.erase(it);
    }
    stats_.gc_relocated_records += gc.relocated_records;
    stats_.gc_reclaimed_bytes += gc.reclaimed_bytes;
  }
  return gc;
}

Result<GcStats> LogStructuredStore::CollectColdest(const LivenessFn& live,
                                                   const InstallFn& install,
                                                   double live_threshold) {
  uint64_t victim = 0;
  double victim_live = 2.0;
  {
    MutexLock lk(&mu_);
    for (const auto& [id, info] : directory_) {
      if (!info.sealed) continue;
      double lf = info.live_fraction();
      if (lf < victim_live) {
        victim_live = lf;
        victim = id;
      }
    }
  }
  if (victim_live > live_threshold) {
    return Status::NotFound("no segment below live threshold");
  }
  return CollectSegment(victim, live, install);
}

namespace {

// Bytes of actual data (trailing non-zero content) in raw at or after
// `from`. Zero means the tail is pristine (never written or trimmed).
uint64_t TrailingDataBytes(const std::string& raw, uint64_t from) {
  for (uint64_t i = raw.size(); i > from; --i) {
    if (raw[i - 1] != '\0') return i - from;
  }
  return 0;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "recovery: segments=%llu records=%llu bytes=%llu truncated=%llu "
           "corrupt_skipped=%llu torn_segments=%llu",
           (unsigned long long)segments_scanned,
           (unsigned long long)records_adopted,
           (unsigned long long)bytes_adopted,
           (unsigned long long)bytes_truncated,
           (unsigned long long)corrupt_records_skipped,
           (unsigned long long)torn_segments);
  return buf;
}

Status LogStructuredStore::Recover(const RecoveryVisitor& visitor,
                                   RecoveryReport* report) {
  // Scan the device in segment strides; rebuild directory from headers.
  const uint64_t nsegs = device_->capacity_bytes() / options_.segment_bytes;
  std::string raw(options_.segment_bytes, '\0');
  RecoveryReport rep;
  uint64_t max_seen = 0;
  bool any = false;
  for (uint64_t seg = 0; seg < nsegs; ++seg) {
    // Cheap header probe first.
    char hdr[kSegmentHeaderBytes];
    Status s = device_->Read(seg * options_.segment_bytes,
                             kSegmentHeaderBytes, hdr);
    if (!s.ok()) return s;
    const bool header_valid = DecodeFixed32(hdr) == kSegmentMagic &&
                              DecodeFixed64(hdr + 4) == seg;
    if (!header_valid) {
      // Segment writes start with a nonzero magic, and a torn write
      // persists a prefix — so an all-zero probe means nothing of any
      // segment write landed here: pristine (never written / trimmed).
      bool probe_zero = true;
      for (uint64_t i = 0; i < kSegmentHeaderBytes; ++i) {
        if (hdr[i] != '\0') probe_zero = false;
      }
      if (probe_zero) continue;
      s = device_->Read(seg * options_.segment_bytes, options_.segment_bytes,
                        raw.data());
      if (!s.ok()) return s;
      const uint64_t garbage = TrailingDataBytes(raw, 0);
      // Torn segment header: the crash hit inside the first 12 bytes of
      // the segment write. Nothing is adoptable, but the slot id is
      // consumed — the re-opened log must not reuse it over the garbage.
      rep.torn_segments++;
      rep.bytes_truncated += garbage;
      max_seen = std::max(max_seen, seg);
      any = true;
      continue;
    }
    s = device_->Read(seg * options_.segment_bytes, options_.segment_bytes,
                      raw.data());
    if (!s.ok()) return s;
    rep.segments_scanned++;

    // Walk the record framing. A record is adoptable only if every framed
    // record is walked past it: the adopted range ends after the LAST
    // record with a valid checksum; framed-but-corrupt records before that
    // point are skipped (marked dead), everything after it is torn tail.
    struct Rec {
      uint64_t pos = 0;
      uint64_t len = 0;
      PageId pid = 0;
      Slice payload;           // stored bytes (compressed for CSS records)
      std::string inflated;    // decompressed form of a valid CSS record
      uint8_t flags = 0;
      uint32_t raw_len = 0;
      bool valid = false;
    };
    std::vector<Rec> recs;
    uint64_t pos = kSegmentHeaderBytes;
    while (pos + kHeaderBytes <= raw.size() &&
           DecodeFixed32(raw.data() + pos) == kRecordMagic) {
      const uint64_t payload_len = DecodeFixed32(raw.data() + pos + 12);
      if (pos + kHeaderBytes + payload_len > raw.size()) break;  // runs off
      Rec rec;
      rec.pos = pos;
      rec.len = kHeaderBytes + payload_len;
      Status ds = DecodeRecord(raw.data() + pos, raw.size() - pos, &rec.pid,
                               &rec.payload, &rec.flags, &rec.raw_len);
      rec.valid = ds.ok();
      if (rec.valid && (rec.flags & kRecordFlagCompressed) != 0) {
        // A compressed image must inflate cleanly to be adoptable: a
        // record whose CRC passes but whose stream is torn/malformed is
        // treated exactly like a checksum failure (skipped, marked dead)
        // rather than surfacing garbage to the visitor.
        rec.valid = MaterializeRecordPayload(rec.payload, rec.flags,
                                             rec.raw_len, &rec.inflated)
                        .ok();
      }
      recs.push_back(std::move(rec));
      pos += kHeaderBytes + payload_len;
    }
    size_t last_valid = recs.size();
    for (size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].valid) last_valid = i;
    }
    uint64_t adopted_end = kSegmentHeaderBytes;
    if (last_valid != recs.size()) {
      adopted_end = recs[last_valid].pos + recs[last_valid].len;
    }
    const uint64_t torn = TrailingDataBytes(raw, adopted_end);
    if (torn > 0) {
      rep.torn_segments++;
      rep.bytes_truncated += torn;
    }

    SegmentInfo info;
    info.id = seg;
    info.sealed = true;
    info.used_bytes = adopted_end;
    uint64_t skipped_dead = 0;
    for (const Rec& r : recs) {
      if (r.pos >= adopted_end) break;
      if (!r.valid) {
        rep.corrupt_records_skipped++;
        skipped_dead += r.len;
        continue;
      }
      if ((r.flags & kRecordFlagCompressed) != 0) {
        // CSS accounting covers only records adopted as compressed; a
        // corrupt record's form is unknowable (its header may be the
        // damage), so it stays out of the css closure on both sides.
        info.css_stored_bytes += r.payload.size();
        info.css_raw_bytes += r.raw_len;
      }
      rep.records_adopted++;
      const bool compressed = (r.flags & kRecordFlagCompressed) != 0;
      visitor(r.pid,
              FlashAddress(seg * options_.segment_bytes + r.pos, r.len),
              compressed ? Slice(r.inflated) : r.payload, compressed);
    }
    info.dead_bytes = skipped_dead;
    rep.bytes_adopted += adopted_end - kSegmentHeaderBytes;
    {
      MutexLock lk(&mu_);
      directory_[seg] = info;
      stats_.recovered_bytes += info.used_bytes - kSegmentHeaderBytes;
      stats_.css_stored_bytes_recovered += info.css_stored_bytes;
      stats_.css_raw_bytes_recovered += info.css_raw_bytes;
      stats_.dead_bytes_marked += skipped_dead;
      approx_used_bytes_.fetch_add(info.used_bytes - kSegmentHeaderBytes,
                                   std::memory_order_relaxed);
      approx_dead_bytes_.fetch_add(skipped_dead, std::memory_order_relaxed);
    }
    max_seen = std::max(max_seen, seg);
    any = true;
  }
  MutexLock lk(&mu_);
  if (any && max_seen + 1 >= next_segment_id_) {
    // Re-open the log past everything recovered. Drop the construction
    // -time open entry, unless that slot was adopted from media (sealed).
    auto open_it = directory_.find(open_segment_id_);
    if (open_it != directory_.end() && !open_it->second.sealed) {
      directory_.erase(open_it);
    }
    next_segment_id_ = max_seen + 1;
    OpenSegmentLocked(next_segment_id_++);
  }
  recovery_report_ = rep;
  if (report != nullptr) *report = rep;
  return Status::Ok();
}

RecoveryReport LogStructuredStore::last_recovery_report() const {
  MutexLock lk(&mu_);
  return recovery_report_;
}

LogStoreStats LogStructuredStore::stats() const {
  MutexLock lk(&mu_);
  LogStoreStats out = stats_;
  out.device_reads = device_reads_.load(std::memory_order_relaxed);
  return out;
}

std::vector<SegmentInfo> LogStructuredStore::segments() const {
  MutexLock lk(&mu_);
  std::vector<SegmentInfo> out;
  out.reserve(directory_.size());
  for (const auto& [id, info] : directory_) out.push_back(info);
  return out;
}

uint64_t LogStructuredStore::open_segment_id() const {
  MutexLock lk(&mu_);
  return open_segment_id_;
}

void LogStructuredStore::TestOnlyAdjustSegmentAccounting(uint64_t segment_id,
                                                         int64_t used_delta,
                                                         int64_t dead_delta) {
  MutexLock lk(&mu_);
  auto it = directory_.find(segment_id);
  if (it == directory_.end()) return;
  it->second.used_bytes += used_delta;
  it->second.dead_bytes += dead_delta;
  approx_used_bytes_.fetch_add(static_cast<uint64_t>(used_delta),
                               std::memory_order_relaxed);
  approx_dead_bytes_.fetch_add(static_cast<uint64_t>(dead_delta),
                               std::memory_order_relaxed);
}

double LogStructuredStore::DeadSpaceFraction() const {
  const uint64_t used = approx_used_bytes_.load(std::memory_order_relaxed);
  if (used == 0) return 0.0;
  const uint64_t dead = approx_dead_bytes_.load(std::memory_order_relaxed);
  const double f = static_cast<double>(dead) / static_cast<double>(used);
  return f > 1.0 ? 1.0 : f;
}

}  // namespace costperf::llama
