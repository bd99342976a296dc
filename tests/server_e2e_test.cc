// End-to-end server tests over loopback: CRUD round-trips, proof that a
// pipelined window reaches the store's batched paths (grouping counters),
// per-tenant accounting via STATS, multi-threaded clients against
// multi-threaded I/O (the TSan lane runs this), graceful shutdown, and
// the admission controller's write-pushback policy (unit-tested against
// a VirtualClock).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/sharded_store.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"

namespace costperf::server {
namespace {

class ServerE2eTest : public ::testing::Test {
 protected:
  void StartServer(int io_threads, ServerOptions opts = ServerOptions()) {
    store_ = core::ShardedStore::OfMemory(4);
    opts.io_threads = io_threads;
    server_ = std::make_unique<Server>(store_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<core::ShardedStore> store_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerE2eTest, CrudRoundTrip) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());

  EXPECT_TRUE(c.Get("missing").status().IsNotFound());
  ASSERT_TRUE(c.Put("alpha", "1").ok());
  ASSERT_TRUE(c.Put("beta", std::string(2000, 'b')).ok());
  auto got = c.Get("alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
  got = c.Get("beta");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 2000u);
  ASSERT_TRUE(c.Delete("alpha").ok());
  EXPECT_TRUE(c.Get("alpha").status().IsNotFound());
}

TEST_F(ServerE2eTest, BatchOpsOverTheWire) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());

  std::vector<core::KvEntry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.emplace_back("wb" + std::to_string(i), "v" + std::to_string(i));
  }
  core::BatchWriteResult wr;
  ASSERT_TRUE(c.WriteBatch(entries, &wr).ok());
  EXPECT_EQ(wr.ok_count, 100u);

  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) keys.push_back("wb" + std::to_string(i));
  keys.push_back("absent");
  core::BatchReadResult rr;
  ASSERT_TRUE(c.MultiGet(keys, &rr).ok());
  ASSERT_EQ(rr.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rr.statuses[i].ok()) << keys[i];
    EXPECT_EQ(rr.values[i], "v" + std::to_string(i));
  }
  EXPECT_TRUE(rr.statuses[100].IsNotFound());
}

TEST_F(ServerE2eTest, PipelinedWindowReachesBatchedStorePaths) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(c.Put("pk" + std::to_string(i), "v").ok());
  }
  const core::KvStoreStats before = store_->Stats();

  // 32 GETs in one pipelined window: the server must coalesce them into
  // far fewer MultiGet calls than frames (one per event-loop pass).
  for (int i = 0; i < 32; ++i) c.QueueGet("pk" + std::to_string(i));
  ASSERT_TRUE(c.Flush().ok());
  for (int i = 0; i < 32; ++i) {
    SyncClient::Response r;
    ASSERT_TRUE(c.ReadResponse(&r).ok());
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_EQ(r.value, "v");
  }

  const core::KvStoreStats after = store_->Stats();
  const uint64_t batches = after.multiget_batches - before.multiget_batches;
  const uint64_t mg_keys = after.multiget_keys - before.multiget_keys;
  EXPECT_EQ(mg_keys, 32u);
  EXPECT_GE(batches, 1u);
  EXPECT_LT(batches, 32u) << "pipelined GETs must not degrade to per-key "
                             "store calls";
  // Grouping: one shard visit serves many keys.
  const uint64_t groups =
      after.multiget_shard_groups - before.multiget_shard_groups;
  EXPECT_LE(groups, batches * store_->shard_count());

  // Same for a write window.
  const uint64_t wb_before = after.writebatch_batches;
  for (int i = 0; i < 32; ++i) c.QueuePut("wk" + std::to_string(i), "w");
  ASSERT_TRUE(c.Flush().ok());
  for (int i = 0; i < 32; ++i) {
    SyncClient::Response r;
    ASSERT_TRUE(c.ReadResponse(&r).ok());
    EXPECT_EQ(r.code, StatusCode::kOk);
  }
  const core::KvStoreStats last = store_->Stats();
  EXPECT_GE(last.writebatch_entries, 32u);
  EXPECT_LT(last.writebatch_batches - wb_before, 32u)
      << "pipelined PUTs must not degrade to per-entry store calls";
}

TEST_F(ServerE2eTest, InterleavedReadsAndWritesKeepOrder) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  // PUT x=1, GET x, PUT x=2, GET x, ... pipelined in one window. Each GET
  // must observe the PUT before it (runs are flushed at read/write
  // boundaries).
  std::vector<uint32_t> put_ids, get_ids;
  for (int i = 0; i < 8; ++i) {
    put_ids.push_back(c.QueuePut("x", std::to_string(i)));
    get_ids.push_back(c.QueueGet("x"));
  }
  ASSERT_TRUE(c.Flush().ok());
  for (int i = 0; i < 8; ++i) {
    SyncClient::Response r;
    ASSERT_TRUE(c.ReadResponse(&r).ok());
    EXPECT_EQ(r.request_id, put_ids[i]);
    ASSERT_TRUE(c.ReadResponse(&r).ok());
    EXPECT_EQ(r.request_id, get_ids[i]);
    EXPECT_EQ(r.value, std::to_string(i)) << "GET must see preceding PUT";
  }
}

TEST_F(ServerE2eTest, ValueLargerThanMaxValueBytesIsRefusedPerKey) {
  ServerOptions opts;
  opts.max_value_bytes = 128;
  StartServer(1, opts);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(c.Put("big", std::string(4096, 'x')).ok());
  ASSERT_TRUE(c.Put("small", "s").ok());
  std::vector<std::string> keys = {"big", "small"};
  core::BatchReadResult rr;
  Status s = c.MultiGet(keys, &rr);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rr.statuses[0].code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(rr.statuses[1].ok());
  EXPECT_EQ(rr.values[1], "s");
}

TEST_F(ServerE2eTest, StatsReportsPerTenantTraffic) {
  StartServer(1);
  SyncClient t1, t2;
  ASSERT_TRUE(t1.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(t2.Connect("127.0.0.1", server_->port()).ok());
  t1.set_tenant(101);
  t2.set_tenant(202);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t1.Put("t1k" + std::to_string(i), "v").ok());
  }
  std::vector<std::string> keys = {"t1k0", "t1k1", "t1k2"};
  core::BatchReadResult rr;
  ASSERT_TRUE(t2.MultiGet(keys, &rr).ok());

  // Pull stats over t2: the STATS frame itself is tenant traffic, so
  // fetching through t1 would bump tenant.101.requests past 10.
  auto stats = t2.StatsMap();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)["tenant.101.write_keys"], 10u);
  EXPECT_EQ((*stats)["tenant.101.requests"], 10u);
  EXPECT_EQ((*stats)["tenant.202.read_keys"], 3u);
  EXPECT_GE((*stats)["server.frames_in"], 11u);
  EXPECT_GE((*stats)["store.writes"], 10u);
}

TEST_F(ServerE2eTest, StatsSendsEveryListedCounter) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  c.set_tenant(7);
  ASSERT_TRUE(c.Put("k", "v").ok());
  ASSERT_TRUE(c.Get("k").ok());

  auto stats = c.StatsMap();
  ASSERT_TRUE(stats.ok());
  const std::map<std::string, uint64_t>& m = *stats;
  auto has = [&m](const std::string& key) { return m.count(key) == 1; };

  // The store is quiescent: its counters must read as STATS sent them.
  const core::KvStoreStats st = store_->Stats();
#define COSTPERF_STORE_KEY(name, kind, line)   \
  ASSERT_TRUE(has("store." #name)) << #name; \
  EXPECT_EQ(m.at("store." #name), st.name) << #name;
  COSTPERF_KV_STORE_STATS(COSTPERF_STORE_KEY)
#undef COSTPERF_STORE_KEY
#define COSTPERF_SERVER_KEY(name) EXPECT_TRUE(has("server." #name)) << #name;
  COSTPERF_SERVER_COUNTERS(COSTPERF_SERVER_KEY)
#undef COSTPERF_SERVER_KEY
#define COSTPERF_TENANT_KEY(name) EXPECT_TRUE(has("tenant.7." #name)) << #name;
  COSTPERF_TENANT_COUNTERS(COSTPERF_TENANT_KEY)
#undef COSTPERF_TENANT_KEY

  // Every key STATS sent before the lists generated it keeps its name.
  for (const char* key : {
           "server.connections_accepted", "server.connections_closed",
           "server.frames_in", "server.frames_out", "server.protocol_errors",
           "server.bytes_in", "server.bytes_out", "server.windows",
           "server.read_runs", "server.write_runs", "server.shed_frames",
           "server.deadline_expired", "server.watchdog_kills",
           "server.degraded_write_rejects", "admission.pushback_windows",
           "admission.rejected", "store.health_degraded", "store.reads",
           "store.writes", "store.hits", "store.misses",
           "store.multiget_batches", "store.multiget_keys",
           "store.multiget_shard_groups", "store.writebatch_batches",
           "store.writebatch_entries", "store.writebatch_shard_groups",
           "store.log_append_groups", "store.write_stalls",
           "store.stall_micros_total", "tenant.7.requests",
           "tenant.7.read_keys", "tenant.7.write_keys", "tenant.7.rejected",
           "tenant.7.errors", "tenant.7.bytes_in", "tenant.7.bytes_out"}) {
    EXPECT_TRUE(has(key)) << key;
  }
  EXPECT_EQ(m.at("store.health_degraded"), 0u);
  EXPECT_EQ(m.at("tenant.7.write_keys"), 1u);
}

TEST_F(ServerE2eTest, ConcurrentClientsOverMultipleIoThreads) {
  StartServer(2);
  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int id = 0; id < kClients; ++id) {
    threads.emplace_back([this, id, &failures] {
      SyncClient c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      c.set_tenant(static_cast<uint32_t>(id % 3));
      const std::string prefix = "c" + std::to_string(id) + ":";
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string key = prefix + std::to_string(i % 50);
        if (i % 3 == 0) {
          if (!c.Put(key, std::to_string(i)).ok()) failures.fetch_add(1);
        } else {
          auto r = c.Get(key);
          if (!r.ok() && !r.status().IsNotFound()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerCounters counters = server_->counters();
  EXPECT_GE(counters.frames_in, uint64_t{kClients * kOpsPerClient});
  EXPECT_EQ(counters.frames_in, counters.frames_out);
}

TEST_F(ServerE2eTest, GracefulShutdownAndRestart) {
  StartServer(2);
  const uint16_t old_port = server_->port();
  {
    SyncClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", old_port).ok());
    ASSERT_TRUE(c.Put("persist", "1").ok());
  }
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // Stop twice is safe.
  server_->Stop();

  // The same store can be re-fronted by a new server instance.
  ServerOptions opts;
  opts.io_threads = 1;
  Server second(store_.get(), opts);
  ASSERT_TRUE(second.Start().ok());
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", second.port()).ok());
  auto got = c.Get("persist");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
  second.Stop();
}

// -- admission pushback -------------------------------------------------

TEST(AdmissionControllerTest, NoPushbackWithoutStalls) {
  VirtualClock clock;
  AdmissionController ac(&clock, AdmissionOptions());
  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ac.AdmitWrite(1, 64));
  }
  EXPECT_FALSE(ac.in_pushback());
  EXPECT_EQ(ac.rejected(), 0u);
}

TEST(AdmissionControllerTest, StallOpensWindowAndRejectsOverShareTenant) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.pushback_window_seconds = 1.0;
  opts.min_write_keys = 10;
  AdmissionController ac(&clock, opts);

  // Tenant 1 produces 90% of write traffic; tenant 2 the rest.
  ASSERT_TRUE(ac.AdmitWrite(1, 900));
  ASSERT_TRUE(ac.AdmitWrite(2, 100));

  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);  // baseline
  stats.write_stalls = 3;       // the store reports stalls
  ac.ObserveStoreStats(stats);
  EXPECT_TRUE(ac.in_pushback());
  EXPECT_EQ(ac.pushback_windows(), 1u);

  // The hog is pushed back; the light tenant keeps writing.
  EXPECT_FALSE(ac.AdmitWrite(1, 10));
  EXPECT_TRUE(ac.AdmitWrite(2, 10));
  EXPECT_GE(ac.rejected(), 1u);

  // The window expires with time; everyone is admitted again.
  clock.AdvanceSeconds(1.5);
  EXPECT_FALSE(ac.in_pushback());
  EXPECT_TRUE(ac.AdmitWrite(1, 10));
}

TEST(AdmissionControllerTest, RepeatedStallsExtendTheWindow) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.pushback_window_seconds = 1.0;
  AdmissionController ac(&clock, opts);
  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);
  stats.write_stalls = 1;
  ac.ObserveStoreStats(stats);
  EXPECT_TRUE(ac.in_pushback());
  clock.AdvanceSeconds(0.8);
  stats.write_stalls = 2;
  ac.ObserveStoreStats(stats);  // extends, same window
  EXPECT_EQ(ac.pushback_windows(), 1u);
  clock.AdvanceSeconds(0.8);
  EXPECT_TRUE(ac.in_pushback()) << "window extended past original expiry";
  clock.AdvanceSeconds(0.3);
  EXPECT_FALSE(ac.in_pushback());
  // A stall after expiry opens a new window.
  stats.write_stalls = 3;
  ac.ObserveStoreStats(stats);
  EXPECT_EQ(ac.pushback_windows(), 2u);
}

TEST(AdmissionControllerTest, SingleTenantIsNeverPushedBack) {
  // With one active tenant there is no fairness to arbitrate; pushback
  // would just idle the box.
  VirtualClock clock;
  AdmissionOptions opts;
  opts.min_write_keys = 1;
  AdmissionController ac(&clock, opts);
  ASSERT_TRUE(ac.AdmitWrite(7, 1000));
  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);
  stats.write_stalls = 5;
  ac.ObserveStoreStats(stats);
  EXPECT_TRUE(ac.in_pushback());
  EXPECT_TRUE(ac.AdmitWrite(7, 1000));
}

TEST(AdmissionControllerTest, SharesDecaySoOldTrafficStopsCounting) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.pushback_window_seconds = 1.0;
  opts.min_write_keys = 10;
  opts.share_halflife_seconds = 1.0;
  AdmissionController ac(&clock, opts);

  // Tenant 1 was the historical hog; then a long idle stretch passes.
  ASSERT_TRUE(ac.AdmitWrite(1, 10000));
  ASSERT_TRUE(ac.AdmitWrite(2, 100));
  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);
  clock.AdvanceSeconds(64.0);
  ac.ObserveStoreStats(stats);  // decay tick: old shares wash out

  // Now tenant 2 is the aggressor when a stall opens a window.
  ASSERT_TRUE(ac.AdmitWrite(2, 900));
  ASSERT_TRUE(ac.AdmitWrite(1, 50));
  stats.write_stalls = 1;
  ac.ObserveStoreStats(stats);
  ASSERT_TRUE(ac.in_pushback());
  EXPECT_FALSE(ac.AdmitWrite(2, 10)) << "current aggressor is over share";
  EXPECT_TRUE(ac.AdmitWrite(1, 10))
      << "historical hog decayed back under its share";
}

TEST(AdmissionControllerTest, ShareTrackingIsBoundedUnderIdSpray) {
  VirtualClock clock;
  AdmissionOptions opts;
  opts.max_tracked_tenants = 8;
  opts.min_write_keys = 1;
  opts.pushback_window_seconds = 10.0;
  AdmissionController ac(&clock, opts);

  // One honest tenant plus a client spraying fresh ids.
  ASSERT_TRUE(ac.AdmitWrite(1, 100));
  for (uint32_t id = 1000; id < 2000; ++id) ac.AdmitWrite(id, 10);

  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);
  stats.write_stalls = 1;
  ac.ObserveStoreStats(stats);
  ASSERT_TRUE(ac.in_pushback());

  // Past the cap the sprayed ids share one overflow bucket — and one fair
  // share — so a fresh sprayed id cannot look like a brand-new tenant.
  EXPECT_FALSE(ac.AdmitWrite(55555, 1));
  EXPECT_TRUE(ac.AdmitWrite(1, 1)) << "honest tenant keeps writing";
}

TEST(TenantRegistryTest, CapsTrackedTenantsAndFoldsOverflow) {
  TenantRegistry reg(4);
  for (uint32_t id = 0; id < 10; ++id) {
    reg.Get(id)->requests.fetch_add(1, std::memory_order_relaxed);
  }
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 5u);  // 4 tracked + the overflow bucket
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].tenant_id, i);
    EXPECT_EQ(snap[i].requests, 1u);
  }
  EXPECT_EQ(snap[4].tenant_id, kOverflowTenantId);
  EXPECT_EQ(snap[4].requests, 6u);
}

TEST(ServerAdmissionE2eTest, DeleteGoesThroughAdmissionPushback) {
  // Inject a VirtualClock so the pushback window stays open (and the
  // server's own stats poll never fires) for the whole test.
  VirtualClock clock;
  auto store = core::ShardedStore::OfMemory(4);
  ServerOptions opts;
  opts.io_threads = 1;
  Server server(store.get(), opts, &clock);
  ASSERT_TRUE(server.Start().ok());

  AdmissionController& ac = server.admission();
  // Tenant 1 produced 90% of recent write traffic; a stall opens a window.
  ASSERT_TRUE(ac.AdmitWrite(1, 900));
  ASSERT_TRUE(ac.AdmitWrite(2, 100));
  core::KvStoreStats stats;
  ac.ObserveStoreStats(stats);
  stats.write_stalls = 1;
  ac.ObserveStoreStats(stats);
  ASSERT_TRUE(ac.in_pushback());

  SyncClient hog, light;
  ASSERT_TRUE(hog.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(light.Connect("127.0.0.1", server.port()).ok());
  hog.set_tenant(1);
  light.set_tenant(2);
  EXPECT_EQ(hog.Put("k", "v").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hog.Delete("k").code(), StatusCode::kResourceExhausted)
      << "DELETE hits the write path; pushback must apply to it too";
  ASSERT_TRUE(light.Put("other", "x").ok());
  EXPECT_TRUE(light.Delete("other").ok())
      << "under-share tenant's deletes keep flowing";
  server.Stop();
}

TEST_F(ServerE2eTest, StopClosesPendingHandoffConnections) {
  StartServer(2);
  // A burst of connections stopped immediately: some fds may still sit in
  // another thread's handoff queue, never adopted. Stop must close every
  // accepted fd regardless.
  std::vector<std::unique_ptr<SyncClient>> clients;
  for (int i = 0; i < 16; ++i) {
    auto c = std::make_unique<SyncClient>();
    ASSERT_TRUE(c->Connect("127.0.0.1", server_->port()).ok());
    clients.push_back(std::move(c));
  }
  server_->Stop();
  const ServerCounters counters = server_->counters();
  EXPECT_EQ(counters.connections_accepted, counters.connections_closed);
}

TEST_F(ServerE2eTest, HealthReportsAllShardsHealthy) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(c.Put("k", "v").ok());

  SyncClient::HealthReport hr;
  ASSERT_TRUE(c.Health(&hr).ok());
  EXPECT_FALSE(hr.degraded);
  EXPECT_EQ(hr.retry_after_millis, 0u);
  ASSERT_EQ(hr.shards.size(), 4u);  // StartServer builds a 4-shard store
  for (auto s : hr.shards) EXPECT_EQ(s, core::HealthStatus::kHealthy);
  EXPECT_EQ(hr.deadline_expired, 0u);
  EXPECT_EQ(hr.watchdog_kills, 0u);
  EXPECT_EQ(hr.degraded_write_rejects, 0u);
}

TEST_F(ServerE2eTest, GenerousDeadlineRoundTripsOnV2Frames) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  // A deadline far in the future upgrades every data frame to the v2
  // header; the server must decode it and serve the window normally.
  c.set_deadline_micros(60'000'000);
  ASSERT_TRUE(c.Put("alpha", "1").ok());
  auto got = c.Get("alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
  std::vector<std::string> keys = {"alpha", "missing"};
  core::BatchReadResult batch;
  ASSERT_TRUE(c.MultiGet(keys, &batch).ok());
  ASSERT_EQ(batch.statuses.size(), 2u);
  EXPECT_TRUE(batch.statuses[0].ok());
  EXPECT_TRUE(batch.statuses[1].IsNotFound());
  EXPECT_EQ(server_->counters().deadline_expired, 0u);
}

TEST_F(ServerE2eTest, TenantRegistrySnapshotIsStable) {
  StartServer(1);
  SyncClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  for (uint32_t t = 0; t < 5; ++t) {
    c.set_tenant(t);
    ASSERT_TRUE(c.Put("k" + std::to_string(t), "v").ok());
  }
  auto snap = server_->tenants().Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (uint32_t t = 0; t < 5; ++t) {
    EXPECT_EQ(snap[t].tenant_id, t);  // ordered by tenant id
    EXPECT_EQ(snap[t].requests, 1u);
    EXPECT_EQ(snap[t].write_keys, 1u);
    EXPECT_GT(snap[t].bytes_in, 0u);
    EXPECT_GT(snap[t].bytes_out, 0u);
  }
}

}  // namespace
}  // namespace costperf::server
