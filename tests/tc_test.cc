#include "tc/transaction_component.h"

#include <gtest/gtest.h>

#include <memory>

namespace costperf::tc {
namespace {

class TcTest : public ::testing::Test {
 protected:
  TcTest() {
    storage::SsdOptions dev;
    dev.capacity_bytes = 128ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    log_store_ = std::make_unique<llama::LogStructuredStore>(device_.get());
    bwtree::BwTreeOptions topts;
    topts.log_store = log_store_.get();
    dc_ = std::make_unique<bwtree::BwTree>(topts);
    recovery_log_ = std::make_unique<RecoveryLog>();
    tc_ = std::make_unique<TransactionComponent>(dc_.get(),
                                                 recovery_log_.get());
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<llama::LogStructuredStore> log_store_;
  std::unique_ptr<bwtree::BwTree> dc_;
  std::unique_ptr<RecoveryLog> recovery_log_;
  std::unique_ptr<TransactionComponent> tc_;
};

TEST_F(TcTest, CommitMakesWritesVisible) {
  Transaction* t = tc_->Begin();
  tc_->Write(t, "a", "1");
  ASSERT_TRUE(tc_->Commit(t).ok());
  std::string v;
  ASSERT_TRUE(tc_->ReadOne("a", &v).ok());
  EXPECT_EQ(v, "1");
  // And the blind post reached the data component.
  EXPECT_EQ(*dc_->Get("a"), "1");
  EXPECT_GT(tc_->stats().blind_posts_to_dc, 0u);
}

TEST_F(TcTest, ReadYourOwnWrites) {
  Transaction* t = tc_->Begin();
  tc_->Write(t, "k", "mine");
  std::string v;
  ASSERT_TRUE(tc_->Read(t, "k", &v).ok());
  EXPECT_EQ(v, "mine");
  tc_->Abort(t);
}

TEST_F(TcTest, AbortDiscardsWrites) {
  Transaction* t = tc_->Begin();
  tc_->Write(t, "k", "ghost");
  tc_->Abort(t);
  std::string v;
  EXPECT_TRUE(tc_->ReadOne("k", &v).IsNotFound());
  EXPECT_TRUE(dc_->Get("k").status().IsNotFound());
}

TEST_F(TcTest, SnapshotIsolationReadsOldVersion) {
  ASSERT_TRUE(tc_->WriteOne("k", "v1").ok());
  Transaction* reader = tc_->Begin();
  // A later writer commits v2.
  ASSERT_TRUE(tc_->WriteOne("k", "v2").ok());
  // The reader still sees v1 (its snapshot).
  std::string v;
  ASSERT_TRUE(tc_->Read(reader, "k", &v).ok());
  EXPECT_EQ(v, "v1");
  tc_->Abort(reader);
  // New transactions see v2.
  ASSERT_TRUE(tc_->ReadOne("k", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST_F(TcTest, WriteWriteConflictAborts) {
  ASSERT_TRUE(tc_->WriteOne("k", "base").ok());
  Transaction* t1 = tc_->Begin();
  Transaction* t2 = tc_->Begin();
  tc_->Write(t1, "k", "one");
  tc_->Write(t2, "k", "two");
  ASSERT_TRUE(tc_->Commit(t1).ok());
  Status s = tc_->Commit(t2);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(tc_->stats().conflicts, 1u);
  std::string v;
  ASSERT_TRUE(tc_->ReadOne("k", &v).ok());
  EXPECT_EQ(v, "one");
}

TEST_F(TcTest, DisjointWritesBothCommit) {
  Transaction* t1 = tc_->Begin();
  Transaction* t2 = tc_->Begin();
  tc_->Write(t1, "a", "1");
  tc_->Write(t2, "b", "2");
  EXPECT_TRUE(tc_->Commit(t1).ok());
  EXPECT_TRUE(tc_->Commit(t2).ok());
}

TEST_F(TcTest, TransactionalDelete) {
  ASSERT_TRUE(tc_->WriteOne("k", "v").ok());
  Transaction* t = tc_->Begin();
  tc_->Delete(t, "k");
  ASSERT_TRUE(tc_->Commit(t).ok());
  std::string v;
  EXPECT_TRUE(tc_->ReadOne("k", &v).IsNotFound());
  EXPECT_TRUE(dc_->Get("k").status().IsNotFound());
}

TEST_F(TcTest, VersionStoreServesReadsWithoutDc) {
  ASSERT_TRUE(tc_->WriteOne("hot", "cached").ok());
  uint64_t dc_reads_before = tc_->stats().reads_from_dc;
  std::string v;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tc_->ReadOne("hot", &v).ok());
    EXPECT_EQ(v, "cached");
  }
  EXPECT_EQ(tc_->stats().reads_from_dc, dc_reads_before)
      << "reads of recently updated records must hit the version store";
  EXPECT_GE(tc_->stats().reads_from_version_store, 10u);
}

TEST_F(TcTest, ReadCacheServesRepeatedDcReads) {
  // Record written directly into the DC (not through the TC), so the
  // version store knows nothing about it.
  ASSERT_TRUE(dc_->Put("dc-only", "from-dc").ok());
  std::string v;
  ASSERT_TRUE(tc_->ReadOne("dc-only", &v).ok());
  EXPECT_EQ(v, "from-dc");
  EXPECT_EQ(tc_->stats().reads_from_dc, 1u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tc_->ReadOne("dc-only", &v).ok());
  }
  EXPECT_EQ(tc_->stats().reads_from_dc, 1u)
      << "subsequent reads must come from the read cache";
  EXPECT_GE(tc_->stats().reads_from_read_cache, 5u);
}

TEST_F(TcTest, ReadCacheHitAvoidsIoOnEvictedPage) {
  // §6.3's headline: a TC record-cache hit avoids both the I/O and the
  // Bw-tree lookup.
  ASSERT_TRUE(dc_->Put("cold", "value").ok());
  std::string v;
  ASSERT_TRUE(tc_->ReadOne("cold", &v).ok());  // now in read cache
  ASSERT_TRUE(dc_->FlushAll().ok());
  for (auto pid : dc_->LeafPageIds()) {
    ASSERT_TRUE(dc_->EvictPage(pid).ok());
  }
  uint64_t flash_reads = dc_->stats().flash_record_reads;
  ASSERT_TRUE(tc_->ReadOne("cold", &v).ok());
  EXPECT_EQ(v, "value");
  EXPECT_EQ(dc_->stats().flash_record_reads, flash_reads)
      << "read-cache hit must not touch flash";
}

TEST_F(TcTest, RecoveryReplaysCommittedTransactions) {
  ASSERT_TRUE(tc_->WriteOne("a", "1").ok());
  ASSERT_TRUE(tc_->WriteOne("b", "2").ok());
  Transaction* t = tc_->Begin();
  tc_->Write(t, "a", "updated");
  tc_->Delete(t, "b");
  ASSERT_TRUE(tc_->Commit(t).ok());

  // "Crash": build a fresh DC and replay the durable log into it.
  storage::SsdOptions dev;
  dev.capacity_bytes = 128ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device2(dev);
  llama::LogStructuredStore log2(&device2);
  bwtree::BwTreeOptions topts;
  topts.log_store = &log2;
  bwtree::BwTree dc2(topts);
  TransactionComponent tc2(&dc2, recovery_log_.get());
  ASSERT_TRUE(tc2.RecoverFromLog().ok());

  EXPECT_EQ(*dc2.Get("a"), "updated");
  EXPECT_TRUE(dc2.Get("b").status().IsNotFound());
}

TEST_F(TcTest, RecoveryReplayIsIdempotent) {
  ASSERT_TRUE(tc_->WriteOne("a", "1").ok());
  Transaction* t = tc_->Begin();
  tc_->Write(t, "a", "2");
  tc_->Write(t, "c", "3");
  tc_->Delete(t, "a");
  ASSERT_TRUE(tc_->Commit(t).ok());

  storage::SsdOptions dev;
  dev.capacity_bytes = 128ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device2(dev);
  llama::LogStructuredStore log2(&device2);
  bwtree::BwTreeOptions topts;
  topts.log_store = &log2;
  bwtree::BwTree dc2(topts);
  TransactionComponent tc2(&dc2, recovery_log_.get());

  // Replaying twice — a crash mid-recovery followed by a second recovery
  // — must leave the DC exactly as one replay does: posts carry their
  // original commit timestamps and the DC merges newest-wins, keeping the
  // first-applied version on timestamp ties.
  ASSERT_TRUE(tc2.RecoverFromLog().ok());
  ASSERT_TRUE(tc2.RecoverFromLog().ok());
  EXPECT_TRUE(dc2.Get("a").status().IsNotFound());
  EXPECT_EQ(*dc2.Get("c"), "3");
  EXPECT_EQ(tc2.stats().log_replays, 2u);

  // Replay re-armed the timestamp clock: a post-recovery commit must win
  // over every replayed version, not be discarded as stale.
  ASSERT_TRUE(tc2.WriteOne("c", "post-recovery").ok());
  EXPECT_EQ(*dc2.Get("c"), "post-recovery");
}

TEST_F(TcTest, RecoveryIgnoresUnflushedCommits) {
  RecoveryLog log;
  log.AppendCommit({RedoRecord{1, 10, false, "x", "durable"}});
  log.Flush();
  log.AppendCommit({RedoRecord{2, 11, false, "x", "lost"}});
  // Not flushed.
  int seen = 0;
  std::string last;
  log.ReplayDurable([&](const RedoRecord& r) {
    ++seen;
    last = r.value;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(last, "durable");
}

TEST_F(TcTest, PruneDropsOldPostedVersions) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tc_->WriteOne("k", "v" + std::to_string(i)).ok());
  }
  uint64_t before = tc_->version_store_bytes();
  size_t pruned = tc_->PruneVersions();
  EXPECT_GT(pruned, 0u);
  EXPECT_LT(tc_->version_store_bytes(), before);
  // Latest version still readable.
  std::string v;
  ASSERT_TRUE(tc_->ReadOne("k", &v).ok());
  EXPECT_EQ(v, "v19");
}

TEST_F(TcTest, PruneKeepsVersionsVisibleToActiveTxns) {
  ASSERT_TRUE(tc_->WriteOne("k", "old").ok());
  Transaction* reader = tc_->Begin();
  ASSERT_TRUE(tc_->WriteOne("k", "new").ok());
  tc_->PruneVersions();
  std::string v;
  ASSERT_TRUE(tc_->Read(reader, "k", &v).ok());
  EXPECT_EQ(v, "old") << "active snapshot must survive pruning";
  tc_->Abort(reader);
}

TEST_F(TcTest, ReadCacheEvictsUnderPressure) {
  TcOptions opts;
  opts.read_cache_bytes = 1024;
  TransactionComponent small_tc(dc_.get(), recovery_log_.get(), opts);
  for (int i = 0; i < 50; ++i) {
    std::string key = "rc" + std::to_string(i);
    ASSERT_TRUE(dc_->Put(key, std::string(100, 'x')).ok());
    std::string v;
    ASSERT_TRUE(small_tc.ReadOne(key, &v).ok());
  }
  EXPECT_LE(small_tc.read_cache_bytes(), 1024u + 200u);
}

TEST_F(TcTest, StatsAccounting) {
  Transaction* t = tc_->Begin();
  tc_->Write(t, "a", "1");
  ASSERT_TRUE(tc_->Commit(t).ok());
  auto s = tc_->stats();
  EXPECT_EQ(s.begun, 1u);
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.writes, 1u);
}

}  // namespace
}  // namespace costperf::tc
