#include "llama/log_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.h"
#include "compression/compressor.h"

namespace costperf::llama {
namespace {

class LogStoreTest : public ::testing::Test {
 protected:
  LogStoreTest() {
    storage::SsdOptions dev_opts;
    dev_opts.capacity_bytes = 256ull << 20;
    dev_opts.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev_opts);
    store_ = std::make_unique<LogStructuredStore>(device_.get());
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<LogStructuredStore> store_;
};

TEST_F(LogStoreTest, AppendReadRoundTripFromBuffer) {
  auto addr = store_->Append(7, Slice("page-seven"));
  ASSERT_TRUE(addr.ok());
  std::string image;
  PageId pid = 0;
  ASSERT_TRUE(store_->Read(*addr, &image, &pid).ok());
  EXPECT_EQ(image, "page-seven");
  EXPECT_EQ(pid, 7u);
  // Never flushed: the read was served from the open buffer.
  EXPECT_EQ(store_->stats().buffer_reads, 1u);
  EXPECT_EQ(store_->stats().device_reads, 0u);
  EXPECT_EQ(device_->stats().writes, 0u);
}

TEST_F(LogStoreTest, ReadAfterFlushHitsDevice) {
  auto addr = store_->Append(1, Slice("payload"));
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(store_->Flush().ok());
  EXPECT_EQ(device_->stats().writes, 1u);
  std::string image;
  ASSERT_TRUE(store_->Read(*addr, &image).ok());
  EXPECT_EQ(image, "payload");
  EXPECT_EQ(store_->stats().device_reads, 1u);
  EXPECT_EQ(device_->stats().reads, 1u);
}

TEST_F(LogStoreTest, ManyPagesOneWrite) {
  // §6.1: "writes very large buffers containing a large number of pages to
  // secondary storage in a single write."
  for (int i = 0; i < 100; ++i) {
    std::string img(1000, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(store_->Append(i, Slice(img)).ok());
  }
  ASSERT_TRUE(store_->Flush().ok());
  EXPECT_EQ(device_->stats().writes, 1u)
      << "100 pages must reach the device in one large write";
}

TEST_F(LogStoreTest, AutoFlushWhenSegmentFull) {
  std::string big(300 << 10, 'x');  // 300 KiB pages, 1 MiB segments
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store_->Append(i, Slice(big)).ok());
  }
  // The 4th append cannot fit in the first segment: one auto-flush.
  EXPECT_EQ(device_->stats().writes, 1u);
  EXPECT_EQ(store_->stats().segments_written, 1u);
}

TEST_F(LogStoreTest, OversizedPageRejected) {
  std::string huge(2 << 20, 'x');
  auto r = store_->Append(1, Slice(huge));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LogStoreTest, ChecksumDetectsMediaCorruption) {
  auto addr = store_->Append(3, Slice("fragile data"));
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(store_->Flush().ok());
  // Corrupt one payload byte directly on the device.
  char bad = 'X';
  ASSERT_TRUE(device_
                  ->Write(addr->offset() + LogStructuredStore::kHeaderBytes +
                              2,
                          Slice(&bad, 1))
                  .ok());
  std::string image;
  Status s = store_->Read(*addr, &image);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// Parks every device write in OnWrite until Release(): a flush that
// reaches the device stops there while it holds the log latch.
class ParkWritesHook : public storage::IoFaultHook {
 public:
  Status OnRead(uint64_t, size_t) override { return Status::Ok(); }
  WriteOutcome OnWrite(uint64_t, size_t) override {
    std::unique_lock<std::mutex> lk(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return released_; });
    return {};
  }
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

TEST_F(LogStoreTest, SealedReadDoesNotWaitForTheLogLatch) {
  auto sealed = store_->Append(1, Slice("sealed-record"));
  ASSERT_TRUE(sealed.ok());
  ASSERT_TRUE(store_->Flush().ok());
  ASSERT_TRUE(store_->Append(2, Slice("open-record")).ok());

  // A seal of the open segment parks inside its device write, holding
  // the log latch.
  ParkWritesHook hook;
  device_->set_fault_hook(&hook);
  std::thread sealer([this] { EXPECT_TRUE(store_->Flush().ok()); });
  hook.WaitUntilParked();

  // A read of the record in the earlier, sealed segment still completes.
  std::string image;
  std::future<Status> read = std::async(std::launch::async, [&] {
    return store_->Read(*sealed, &image);
  });
  const bool finished =
      read.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(finished) << "a sealed read waited for the seal's write";
  hook.Release();
  sealer.join();
  ASSERT_TRUE(read.get().ok());
  device_->set_fault_hook(nullptr);
  EXPECT_EQ(image, "sealed-record");
  // The latch-free read still counts as a device read.
  EXPECT_EQ(store_->stats().device_reads, 1u);
  EXPECT_EQ(device_->stats().reads, 1u);
}

TEST_F(LogStoreTest, MarkDeadTracksLiveFraction) {
  auto a1 = store_->Append(1, Slice(std::string(1000, 'a')));
  auto a2 = store_->Append(2, Slice(std::string(1000, 'b')));
  ASSERT_TRUE(store_->Flush().ok());
  store_->MarkDead(*a1);
  auto segs = store_->segments();
  ASSERT_GE(segs.size(), 1u);
  EXPECT_LT(segs[0].live_fraction(), 0.6);
  EXPECT_GT(segs[0].live_fraction(), 0.3);
  (void)a2;
}

TEST_F(LogStoreTest, GcRelocatesLiveAndDropsDead) {
  std::map<PageId, FlashAddress> table;
  auto a1 = store_->Append(1, Slice("live-one"));
  auto a2 = store_->Append(2, Slice("dead-two"));
  auto a3 = store_->Append(3, Slice("live-three"));
  ASSERT_TRUE(store_->Flush().ok());
  table[1] = *a1;
  table[3] = *a3;
  store_->MarkDead(*a2);

  uint64_t victim = a1->offset() / store_->options().segment_bytes;
  auto gc = store_->CollectSegment(
      victim,
      [&](PageId pid, FlashAddress addr) {
        auto it = table.find(pid);
        return it != table.end() && it->second == addr;
      },
      [&](PageId pid, FlashAddress old_addr, FlashAddress new_addr) {
        if (table[pid] != old_addr) return InstallOutcome::kSuperseded;
        table[pid] = new_addr;
        return InstallOutcome::kInstalled;
      });
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_EQ(gc->relocated_records, 2u);
  EXPECT_EQ(gc->reclaimed_bytes, store_->options().segment_bytes);

  // Relocated pages readable at their new addresses.
  std::string image;
  ASSERT_TRUE(store_->Read(table[1], &image).ok());
  EXPECT_EQ(image, "live-one");
  ASSERT_TRUE(store_->Read(table[3], &image).ok());
  EXPECT_EQ(image, "live-three");
  // Old segment's media was trimmed.
  EXPECT_EQ(device_->stats().trims, 1u);
}

TEST_F(LogStoreTest, GcRefusesOpenSegment) {
  ASSERT_TRUE(store_->Append(1, Slice("x")).ok());
  auto gc = store_->CollectSegment(
      store_->open_segment_id(),
      [](PageId, FlashAddress) { return true; },
      [](PageId, FlashAddress, FlashAddress) {
        return InstallOutcome::kInstalled;
      });
  EXPECT_FALSE(gc.ok());
  EXPECT_EQ(gc.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LogStoreTest, CollectColdestPicksMostlyDeadSegment) {
  // Segment 0: all dead. Segment 1: all live.
  std::map<PageId, FlashAddress> table;
  std::string blob(200 << 10, 'd');
  for (PageId pid = 0; pid < 4; ++pid) {
    auto a = store_->Append(pid, Slice(blob));
    ASSERT_TRUE(a.ok());
    store_->MarkDead(*a);
  }
  ASSERT_TRUE(store_->Flush().ok());
  for (PageId pid = 10; pid < 14; ++pid) {
    auto a = store_->Append(pid, Slice(blob));
    ASSERT_TRUE(a.ok());
    table[pid] = *a;
  }
  ASSERT_TRUE(store_->Flush().ok());

  auto gc = store_->CollectColdest(
      [&](PageId pid, FlashAddress addr) {
        auto it = table.find(pid);
        return it != table.end() && it->second == addr;
      },
      [&](PageId pid, FlashAddress, FlashAddress neu) {
        table[pid] = neu;
        return InstallOutcome::kInstalled;
      },
      /*live_threshold=*/0.5);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_EQ(gc->relocated_records, 0u) << "victim must be the dead segment";
}

TEST_F(LogStoreTest, CollectColdestNotFoundWhenAllLive) {
  ASSERT_TRUE(store_->Append(1, Slice("x")).ok());
  ASSERT_TRUE(store_->Flush().ok());
  auto gc = store_->CollectColdest(
      [](PageId, FlashAddress) { return true; },
      [](PageId, FlashAddress, FlashAddress) {
        return InstallOutcome::kInstalled;
      },
      /*live_threshold=*/0.5);
  EXPECT_FALSE(gc.ok());
  EXPECT_TRUE(gc.status().IsNotFound());
}

TEST_F(LogStoreTest, RecoverReplaysSealedSegmentsInOrder) {
  // Write v1 of pages 1..5, then v2 of pages 1..3; flush everything.
  for (PageId pid = 1; pid <= 5; ++pid) {
    ASSERT_TRUE(store_->Append(pid, Slice("v1-" + std::to_string(pid))).ok());
  }
  ASSERT_TRUE(store_->Flush().ok());
  for (PageId pid = 1; pid <= 3; ++pid) {
    ASSERT_TRUE(store_->Append(pid, Slice("v2-" + std::to_string(pid))).ok());
  }
  ASSERT_TRUE(store_->Flush().ok());
  // Unflushed update to page 4 must be lost across restart.
  ASSERT_TRUE(store_->Append(4, Slice("v2-4-unflushed")).ok());

  // "Restart": a fresh store over the same device.
  LogStructuredStore recovered(device_.get());
  std::map<PageId, std::string> latest;
  ASSERT_TRUE(recovered
                  .Recover([&](PageId pid, FlashAddress, const Slice& img,
                               bool) {
                    latest[pid] = img.ToString();
                  })
                  .ok());
  EXPECT_EQ(latest.size(), 5u);
  EXPECT_EQ(latest[1], "v2-1");
  EXPECT_EQ(latest[3], "v2-3");
  EXPECT_EQ(latest[4], "v1-4") << "unflushed update must not survive";
  EXPECT_EQ(latest[5], "v1-5");

  // The recovered store appends past the old log.
  auto a = recovered.Append(9, Slice("post-recovery"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(recovered.Flush().ok());
  std::string img;
  ASSERT_TRUE(recovered.Read(*a, &img).ok());
  EXPECT_EQ(img, "post-recovery");
}

TEST_F(LogStoreTest, RecoveryReportsEachRecordsForm) {
  const std::string raw(400, 'r');
  std::string compressed;
  compression::Compressor::Compress(Slice(raw), &compressed);
  ASSERT_TRUE(store_->Append(1, Slice("plain")).ok());
  ASSERT_TRUE(store_
                  ->AppendCompressed(2, Slice(compressed),
                                     static_cast<uint32_t>(raw.size()))
                  .ok());
  ASSERT_TRUE(store_->Flush().ok());

  LogStructuredStore recovered(device_.get());
  std::map<PageId, std::pair<std::string, bool>> seen;
  ASSERT_TRUE(recovered
                  .Recover([&](PageId pid, FlashAddress, const Slice& img,
                               bool was_compressed) {
                    seen[pid] = {img.ToString(), was_compressed};
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], std::make_pair(std::string("plain"), false));
  EXPECT_EQ(seen[2], std::make_pair(raw, true));
}

TEST_F(LogStoreTest, VariablePagesConsumeOnlyTheirSize) {
  // §6.1 claim 1: variable size pages — storage consumed tracks content,
  // not a fixed block size.
  uint64_t before = store_->stats().bytes_appended;
  ASSERT_TRUE(store_->Append(1, Slice(std::string(100, 'a'))).ok());
  uint64_t after = store_->stats().bytes_appended;
  EXPECT_EQ(after - before, 100 + LogStructuredStore::kHeaderBytes);
}

TEST_F(LogStoreTest, StressManyAppendsReadBack) {
  Random rng(4242);
  std::map<PageId, std::pair<FlashAddress, std::string>> expected;
  for (int i = 0; i < 2000; ++i) {
    PageId pid = rng.Uniform(500);
    std::string img(10 + rng.Uniform(3000), '\0');
    rng.Fill(img.data(), img.size());
    auto a = store_->Append(pid, Slice(img));
    ASSERT_TRUE(a.ok());
    auto it = expected.find(pid);
    if (it != expected.end()) store_->MarkDead(it->second.first);
    expected[pid] = {*a, img};
  }
  ASSERT_TRUE(store_->Flush().ok());
  for (auto& [pid, entry] : expected) {
    std::string img;
    PageId got = 0;
    ASSERT_TRUE(store_->Read(entry.first, &img, &got).ok());
    EXPECT_EQ(got, pid);
    ASSERT_EQ(img, entry.second);
  }
}

}  // namespace
}  // namespace costperf::llama
