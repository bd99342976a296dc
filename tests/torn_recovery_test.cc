#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "analysis/log_store_auditor.h"
#include "compression/compressor.h"
#include "fault/fault_injector.h"
#include "llama/log_store.h"

namespace costperf::llama {
namespace {

// Crash-consistency tests for LogStructuredStore::Recover(): a crash can
// tear the tail of a segment write, and bad media can corrupt a record in
// the middle of an otherwise valid segment. Recovery must adopt exactly
// the decodable prefix/records, report what it dropped, and leave the
// store's accounting clean (LogStoreAuditor).

constexpr uint64_t kSeg = 16 << 10;

storage::SsdOptions SmallDevice() {
  storage::SsdOptions o;
  o.capacity_bytes = 4ull << 20;
  o.max_iops = 0;
  return o;
}

LogStoreOptions SmallSegments() {
  LogStoreOptions o;
  o.segment_bytes = kSeg;
  return o;
}

// Recovers a fresh store over `device` and returns pid -> payload
// (log-order last-wins, as BwTree consumes it).
std::map<PageId, std::string> RecoverAll(storage::SsdDevice* device,
                                         LogStructuredStore* store,
                                         RecoveryReport* report) {
  std::map<PageId, std::string> out;
  Status s = store->Recover(
      [&](PageId pid, FlashAddress, const Slice& payload, bool) {
        out[pid] = std::string(payload.data(), payload.size());
      },
      report);
  EXPECT_TRUE(s.ok()) << s.ToString();
  (void)device;
  return out;
}

void ExpectAuditClean(LogStructuredStore* store) {
  analysis::LogStoreAuditor auditor(store);
  auto violations = auditor.Check();
  EXPECT_TRUE(violations.empty());
  for (const auto& v : violations) {
    ADD_FAILURE() << v.ToString();
  }
}

TEST(TornRecoveryTest, TornTailIsTruncatedValidPrefixAdopted) {
  storage::SsdDevice device(SmallDevice());
  fault::FaultInjector fi;
  fi.Attach(&device);

  const std::string payload(200, 'A');  // 225-byte records (25B header)
  {
    LogStructuredStore store(&device, SmallSegments());
    for (PageId pid = 1; pid <= 20; ++pid) {
      ASSERT_TRUE(store.Append(pid, Slice(payload)).ok());
    }
    ASSERT_TRUE(store.Flush().ok());  // segment 0 sealed, intact
    for (PageId pid = 21; pid <= 40; ++pid) {
      ASSERT_TRUE(store.Append(pid, Slice(payload)).ok());
    }
    // Crash halfway through segment 1's device write. Buffer is
    // 12 + 20*225 = 4512 bytes; 2256 persist: the header plus 9 full
    // records (12 + 9*225 = 2037) and a torn 10th.
    fi.ScheduleCrash(/*writes=*/0, /*torn_fraction=*/0.5);
    EXPECT_TRUE(store.Flush().IsIoError());
  }
  fi.ClearCrash();

  LogStructuredStore reopened(&device, SmallSegments());
  RecoveryReport report;
  auto recovered = RecoverAll(&device, &reopened, &report);

  EXPECT_EQ(report.segments_scanned, 2u);
  EXPECT_EQ(report.torn_segments, 1u);
  EXPECT_GT(report.bytes_truncated, 0u);
  EXPECT_EQ(report.corrupt_records_skipped, 0u);
  EXPECT_EQ(report.records_adopted, 29u) << report.ToString();
  // Everything adopted reads back exactly; nothing fabricated.
  ASSERT_EQ(recovered.size(), 29u);
  for (PageId pid = 1; pid <= 29; ++pid) {
    ASSERT_TRUE(recovered.count(pid)) << pid;
    EXPECT_EQ(recovered[pid], payload) << pid;
  }
  ExpectAuditClean(&reopened);

  // The reopened log appends past everything recovered.
  EXPECT_GE(reopened.open_segment_id(), 2u);
  ASSERT_TRUE(reopened.Append(99, Slice(payload)).ok());
  ASSERT_TRUE(reopened.Flush().ok());
  ExpectAuditClean(&reopened);
}

TEST(TornRecoveryTest, CorruptMidSegmentRecordSkippedLaterRecordsAdopted) {
  storage::SsdDevice device(SmallDevice());
  fault::FaultInjector fi(3);
  fi.Attach(&device);

  const std::string payload(200, 'B');
  {
    LogStructuredStore store(&device, SmallSegments());
    for (PageId pid = 0; pid < 10; ++pid) {
      ASSERT_TRUE(store.Append(pid + 100, Slice(payload)).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  // Flip one bit inside record 3's payload: seg header (12) + 3 records
  // (3*225) + record header (25) lands in its payload.
  constexpr uint64_t kRec3Payload = 12 + 3 * 225 + 25;
  ASSERT_TRUE(fi.CorruptRange(kRec3Payload, 50, /*bits=*/1).ok());

  LogStructuredStore reopened(&device, SmallSegments());
  RecoveryReport report;
  auto recovered = RecoverAll(&device, &reopened, &report);

  // Mid-segment damage is a skip, not a truncation: the records after it
  // are still adopted.
  EXPECT_EQ(report.corrupt_records_skipped, 1u) << report.ToString();
  EXPECT_EQ(report.records_adopted, 9u);
  EXPECT_EQ(report.torn_segments, 0u);
  EXPECT_EQ(report.bytes_truncated, 0u);
  EXPECT_EQ(recovered.count(103), 0u) << "corrupt record must not surface";
  for (PageId pid = 0; pid < 10; ++pid) {
    if (pid == 3) continue;
    ASSERT_TRUE(recovered.count(pid + 100)) << pid;
    EXPECT_EQ(recovered[pid + 100], payload);
  }
  // The skipped record is accounted dead, so the auditor's dead-bytes
  // closure still holds.
  ExpectAuditClean(&reopened);
}

TEST(TornRecoveryTest, TornSegmentHeaderConsumesSlotAdoptsNothing) {
  storage::SsdDevice device(SmallDevice());
  fault::FaultInjector fi;
  fi.Attach(&device);

  const std::string payload(100, 'C');
  {
    LogStructuredStore store(&device, SmallSegments());
    ASSERT_TRUE(store.Append(7, Slice(payload)).ok());
    // Crash two bytes into the segment write: even the 4-byte segment
    // magic is torn, so the slot reads back as unframed garbage.
    // (Buffer is 12 + 25 + 100 = 137 bytes.)
    fi.ScheduleCrash(/*writes=*/0, /*torn_fraction=*/2.0 / 137.0);
    EXPECT_TRUE(store.Flush().IsIoError());
  }
  fi.ClearCrash();

  LogStructuredStore reopened(&device, SmallSegments());
  RecoveryReport report;
  auto recovered = RecoverAll(&device, &reopened, &report);

  EXPECT_EQ(report.records_adopted, 0u) << report.ToString();
  EXPECT_EQ(report.segments_scanned, 0u);
  EXPECT_EQ(report.torn_segments, 1u);
  EXPECT_GT(report.bytes_truncated, 0u);
  EXPECT_TRUE(recovered.empty());
  // The garbage slot's id is consumed: the reopened log must not append
  // new segments over it.
  EXPECT_GE(reopened.open_segment_id(), 1u);
  ExpectAuditClean(&reopened);

  // Life goes on: new appends persist and survive another recovery.
  ASSERT_TRUE(reopened.Append(8, Slice(payload)).ok());
  ASSERT_TRUE(reopened.Flush().ok());
  LogStructuredStore third(&device, SmallSegments());
  RecoveryReport report2;
  auto recovered2 = RecoverAll(&device, &third, &report2);
  ASSERT_EQ(recovered2.count(8), 1u);
  EXPECT_EQ(recovered2[8], payload);
  ExpectAuditClean(&third);
}

// A compressible page image, as the CSS tier would demote.
std::string StructuredPayload() {
  std::string out;
  for (int i = 0; i < 40; ++i) {
    char buf[64];
    snprintf(buf, sizeof(buf), "name=customer_%04d|tier=gold|", i);
    out += buf;
  }
  return out;
}

TEST(TornRecoveryTest, TornTailMidCompressedRecordAdoptsValidPrefix) {
  storage::SsdDevice device(SmallDevice());
  fault::FaultInjector fi;
  fi.Attach(&device);

  const std::string raw = StructuredPayload();
  std::string compressed;
  compression::Compressor::Compress(Slice(raw), &compressed);
  ASSERT_LT(compressed.size(), raw.size());
  const uint64_t rec_len = LogStructuredStore::kHeaderBytes +
                           compressed.size();
  {
    LogStructuredStore store(&device, SmallSegments());
    // Segment 0: compressed records, sealed intact.
    for (PageId pid = 1; pid <= 10; ++pid) {
      ASSERT_TRUE(store
                      .AppendCompressed(pid, Slice(compressed),
                                        static_cast<uint32_t>(raw.size()))
                      .ok());
    }
    ASSERT_TRUE(store.Flush().ok());
    // Segment 1: ten more; the crash lands mid-way through one of them.
    for (PageId pid = 11; pid <= 20; ++pid) {
      ASSERT_TRUE(store
                      .AppendCompressed(pid, Slice(compressed),
                                        static_cast<uint32_t>(raw.size()))
                      .ok());
    }
    fi.ScheduleCrash(/*writes=*/0, /*torn_fraction=*/0.5);
    EXPECT_TRUE(store.Flush().IsIoError());
  }
  fi.ClearCrash();

  // How many whole compressed records fit in the persisted prefix.
  const uint64_t buffer = LogStructuredStore::kSegmentHeaderBytes +
                          10 * rec_len;
  const uint64_t persisted = buffer / 2;
  const uint64_t full_in_prefix =
      (persisted - LogStructuredStore::kSegmentHeaderBytes) / rec_len;
  ASSERT_GT(full_in_prefix, 0u);
  ASSERT_LT(full_in_prefix, 10u) << "crash must tear a record in half";

  LogStructuredStore reopened(&device, SmallSegments());
  RecoveryReport report;
  auto recovered = RecoverAll(&device, &reopened, &report);

  EXPECT_EQ(report.torn_segments, 1u) << report.ToString();
  EXPECT_EQ(report.corrupt_records_skipped, 0u);
  EXPECT_EQ(report.records_adopted, 10u + full_in_prefix);
  ASSERT_EQ(recovered.size(), 10u + full_in_prefix);
  // Every adopted compressed record inflates back to the exact raw image.
  for (const auto& [pid, payload] : recovered) {
    EXPECT_EQ(payload, raw) << pid;
  }
  // The css closure (stored and raw) holds over the torn boundary.
  ExpectAuditClean(&reopened);
  EXPECT_EQ(reopened.stats().css_stored_bytes_recovered,
            (10u + full_in_prefix) * compressed.size());
  EXPECT_EQ(reopened.stats().css_raw_bytes_recovered,
            (10u + full_in_prefix) * raw.size());
}

TEST(TornRecoveryTest, CorruptCompressedRecordSkippedOthersInflate) {
  storage::SsdDevice device(SmallDevice());
  fault::FaultInjector fi(7);
  fi.Attach(&device);

  const std::string raw = StructuredPayload();
  std::string compressed;
  compression::Compressor::Compress(Slice(raw), &compressed);
  const uint64_t rec_len = LogStructuredStore::kHeaderBytes +
                           compressed.size();
  const std::string plain(150, 'P');
  {
    LogStructuredStore store(&device, SmallSegments());
    // Alternate forms so the corrupt record sits between both kinds:
    // pids 0,2,4 compressed; pids 1,3 plain.
    for (PageId pid = 0; pid < 5; ++pid) {
      if (pid % 2 == 0) {
        ASSERT_TRUE(store
                        .AppendCompressed(pid + 100, Slice(compressed),
                                          static_cast<uint32_t>(raw.size()))
                        .ok());
      } else {
        ASSERT_TRUE(store.Append(pid + 100, Slice(plain)).ok());
      }
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  // Flip a bit inside record 2's (compressed, pid 102) payload: the CRC
  // covers the stored bytes, so the damage is caught before inflation.
  const uint64_t plain_len = LogStructuredStore::kHeaderBytes + plain.size();
  const uint64_t rec2_payload = LogStructuredStore::kSegmentHeaderBytes +
                                rec_len + plain_len +
                                LogStructuredStore::kHeaderBytes;
  ASSERT_TRUE(fi.CorruptRange(rec2_payload, 5, /*bits=*/1).ok());

  LogStructuredStore reopened(&device, SmallSegments());
  RecoveryReport report;
  auto recovered = RecoverAll(&device, &reopened, &report);

  EXPECT_EQ(report.corrupt_records_skipped, 1u) << report.ToString();
  EXPECT_EQ(report.records_adopted, 4u);
  EXPECT_EQ(recovered.count(102), 0u) << "corrupt record must not surface";
  EXPECT_EQ(recovered[100], raw);
  EXPECT_EQ(recovered[104], raw);
  EXPECT_EQ(recovered[101], plain);
  EXPECT_EQ(recovered[103], plain);
  // The corrupt record is excluded from the css closure on BOTH sides
  // (not recovered, not charged to the segment), so the audit stays
  // clean — including the css-accounting identity.
  ExpectAuditClean(&reopened);
  EXPECT_EQ(reopened.stats().css_stored_bytes_recovered,
            2 * compressed.size());
  EXPECT_EQ(reopened.stats().css_raw_bytes_recovered, 2 * raw.size());
}

TEST(TornRecoveryTest, PristineDeviceRecoversEmpty) {
  storage::SsdDevice device(SmallDevice());
  LogStructuredStore store(&device, SmallSegments());
  RecoveryReport report;
  auto recovered = RecoverAll(&device, &store, &report);
  EXPECT_TRUE(recovered.empty());
  EXPECT_EQ(report.segments_scanned, 0u);
  EXPECT_EQ(report.torn_segments, 0u);
  EXPECT_EQ(report.bytes_truncated, 0u);
  // A pristine recovery is free: the scan probes headers, never full
  // segments.
  EXPECT_EQ(device.stats().bytes_read,
            (device.capacity_bytes() / kSeg) *
                LogStructuredStore::kSegmentHeaderBytes);
  ExpectAuditClean(&store);
  ASSERT_TRUE(store.Append(1, Slice("still works")).ok());
  ASSERT_TRUE(store.Flush().ok());
}

TEST(TornRecoveryTest, ReportToStringMentionsTheDamage) {
  RecoveryReport r;
  r.segments_scanned = 3;
  r.records_adopted = 17;
  r.bytes_truncated = 42;
  r.torn_segments = 1;
  std::string s = r.ToString();
  EXPECT_NE(s.find("17"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

}  // namespace
}  // namespace costperf::llama
