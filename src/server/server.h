#ifndef COSTPERF_SERVER_SERVER_H_
#define COSTPERF_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/batch.h"
#include "core/kv_store.h"
#include "server/admission.h"
#include "server/protocol.h"

namespace costperf::fault {
class NetFaultInjector;
}  // namespace costperf::fault

namespace costperf::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via Server::port()
  int io_threads = 2;
  // Cap on frames decoded from one connection per event-loop pass; bounds
  // the latency one greedy pipelined connection can impose on its peers.
  size_t max_pipeline_frames = 1024;
  // Forwarded as ReadOptions::max_value_bytes so a response frame can
  // never exceed what the output buffer policy plans for.
  size_t max_value_bytes = 1u << 20;
  // Stop reading from a connection whose unsent output exceeds this;
  // resume when the client drains it (per-connection backpressure).
  size_t output_buffer_soft_limit = 8u << 20;
  // Admission pushback re-polls store stats at most this often.
  double stats_poll_seconds = 0.05;
  // Distinct tenant ids tracked in per-tenant stats; wire-supplied ids
  // past the cap fold into the kOverflowTenantId bucket so a client
  // spraying ids cannot grow the registry (or STATS output) unboundedly.
  size_t max_tracked_tenants = 1024;
  AdmissionOptions admission;

  // --- robustness / degradation knobs -------------------------------------
  // Slow-connection watchdog: a connection whose unsent output makes no
  // write progress for this long is closed (the slowloris hole the net
  // fault injector proves exists). <= 0 disables the watchdog.
  double write_stall_timeout_seconds = 5.0;
  // How often each I/O thread sweeps its connections for stalls.
  double watchdog_poll_seconds = 0.25;
  // Load shedding by queue depth: once a connection's unparsed input
  // backlog exceeds this many bytes, every frame that arrived past the
  // budget point is answered kUnavailable (+ retry_after) instead of being
  // staged, until the backlog fully drains. Bounds the work a client can
  // buy by blasting a pipelined firehose. 0 disables.
  size_t shed_backlog_bytes = 4u << 20;
  // Load shedding by age: a frame that sat buffered longer than this
  // before staging is shed the same way (its issuer has likely timed out).
  // 0 disables.
  uint64_t shed_age_micros = 0;
  // Hint stamped on kUnavailable / kResourceExhausted error frames so
  // clients back off instead of hammering a shedding or degraded server.
  uint32_t retry_after_millis = 50;
  // Optional scripted network fault injection (tests/chaos lane). When
  // null — the production configuration — reads and writes are the raw
  // syscalls; when set, each accepted connection is wrapped in a
  // NetChannel from this injector. Must outlive the server.
  fault::NetFaultInjector* net_fault = nullptr;
};

// Every global wire/server counter, one line each: X(name). All are
// counts (they only grow). ServerCounters, the per-I/O-thread cells,
// Server::counters() and the STATS `server.<name>` keys are generated
// from this list.
#define COSTPERF_SERVER_COUNTERS(X)                                   \
  X(connections_accepted)                                             \
  X(connections_closed)                                               \
  X(frames_in)                                                        \
  X(frames_out)                                                       \
  X(protocol_errors)        /* frames refused before execution */     \
  X(bytes_in)                                                         \
  X(bytes_out)                                                        \
  X(windows)                /* event-loop passes that ran frames */   \
  X(read_runs)              /* MultiGet calls for read runs */        \
  X(write_runs)             /* WriteBatch calls for write runs */     \
  X(shed_frames)            /* frames shed with kUnavailable */       \
  X(deadline_expired)       /* frames answered kDeadlineExceeded */   \
  X(watchdog_kills)         /* connections closed for write stalls */ \
  X(degraded_write_rejects) /* writes bounced off a degraded shard */

// Snapshot of the server counters (via Server::counters()).
struct ServerCounters {
#define COSTPERF_SERVER_COUNTER_MEMBER(name) uint64_t name = 0;
  COSTPERF_SERVER_COUNTERS(COSTPERF_SERVER_COUNTER_MEMBER)
#undef COSTPERF_SERVER_COUNTER_MEMBER
};

// Epoll-based pipelined binary server over a KvStore.
//
// N I/O threads each run an epoll loop; connections are assigned round-
// robin at accept time and never migrate, so per-connection state is
// single-threaded by construction. Each pass drains a connection's socket,
// decodes every complete frame (the pipelined window), and coalesces
// adjacent reads into one KvStore::MultiGet and adjacent writes into one
// KvStore::WriteBatch — the wire pipeline rides the store's batched paths
// (per-shard grouping, group-committed log appends) instead of degrading
// into per-key calls. Responses are emitted in request order.
class Server {
 public:
  // `store` must be ConcurrentSafe() when io_threads > 1 and outlive the
  // server. `clock` defaults to the process RealClock.
  Server(core::KvStore* store, ServerOptions options, Clock* clock = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the I/O threads.
  Status Start();
  // Graceful: stops accepting, wakes every I/O thread, flushes what can be
  // flushed without blocking, closes connections, joins threads. Safe to
  // call twice.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerCounters counters() const;
  TenantRegistry& tenants() { return tenants_; }
  AdmissionController& admission() { return admission_; }
  // The same `key=value` line rendering the STATS opcode returns:
  // `store.<name>` for every KvStoreStats counter plus
  // store.health_degraded, then `server.<name>`, `admission.*` and
  // `tenant.<id>.<name>` (DESIGN.md §3.5).
  std::string StatsText() const;

 private:
  struct Conn;
  struct IoThread;

  void IoLoop(IoThread* t);
  void AcceptReady(IoThread* t);
  void AdoptPending(IoThread* t);
  void HandleConnEvent(IoThread* t, Conn* c, uint32_t events);
  // Reads until EAGAIN, then decodes and executes the pipelined window.
  // Returns false when the connection must close.
  bool DrainAndProcess(IoThread* t, Conn* c);
  bool ProcessFrames(IoThread* t, Conn* c);
  void ExecuteReadRun(IoThread* t, Conn* c);
  void ExecuteWriteRun(IoThread* t, Conn* c);
  void EmitError(Conn* c, uint32_t request_id, uint32_t tenant_id,
                 StatusCode code, std::string_view message,
                 uint32_t retry_after_millis = 0);
  void EmitHealth(IoThread* t, Conn* c, uint32_t request_id,
                  uint32_t tenant_id);
  TenantCounters* TenantFor(Conn* c, uint32_t tenant_id);
  // Returns false when the socket died.
  bool FlushOutput(IoThread* t, Conn* c);
  void UpdateInterest(IoThread* t, Conn* c);
  void CloseConn(IoThread* t, Conn* c);
  void MaybePollStoreStats();
  // Closes connections write-blocked past write_stall_timeout_seconds.
  void WatchdogSweep(IoThread* t);
  std::unique_ptr<Conn> MakeConn(IoThread* t, int fd);
  uint64_t NowMicros() const { return clock_->NowNanos() / 1000; }

  core::KvStore* const store_;
  const ServerOptions options_;
  RealClock default_clock_;
  Clock* const clock_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::atomic<size_t> next_thread_{0};

  TenantRegistry tenants_;
  AdmissionController admission_;

  // Last observed composite store health; written by the stats poll, the
  // HEALTH opcode, and write-run IoError refreshes, read per write frame.
  // A degraded store keeps serving reads; writes bounce with kUnavailable.
  std::atomic<bool> store_degraded_{false};

  Mutex stats_poll_mu_;
  double last_stats_poll_ GUARDED_BY(stats_poll_mu_) = 0;

  // Counters are sharded per I/O thread (each thread mutates only its own
  // slot, with relaxed atomics so counters() can read concurrently);
  // counters() sums them.
  struct alignas(64) ThreadCounters {
#define COSTPERF_SERVER_COUNTER_CELL(name) std::atomic<uint64_t> name{0};
    COSTPERF_SERVER_COUNTERS(COSTPERF_SERVER_COUNTER_CELL)
#undef COSTPERF_SERVER_COUNTER_CELL
  };
  std::vector<std::unique_ptr<ThreadCounters>> thread_counters_;
};

}  // namespace costperf::server

#endif  // COSTPERF_SERVER_SERVER_H_
