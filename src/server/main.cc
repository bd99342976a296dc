// costperf_server: the networked front door. Serves a ShardedStore over
// the pipelined binary protocol (src/server/protocol.h) on loopback TCP.
//
//   costperf_server --port 0 --io-threads 2 --shards 8 --store memory
//
// Prints "listening on <host>:<port>" once ready (scripts parse this to
// discover a kernel-assigned port), then runs until SIGINT/SIGTERM.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <semaphore>
#include <string>

#include "core/caching_store.h"
#include "core/sharded_store.h"
#include "server/server.h"

namespace {

// Async-signal-safe shutdown latch: the handler only posts. SIGINT and
// SIGTERM are handled identically (graceful stop + final stats); a second
// signal while shutdown is in flight hard-exits, so a wedged drain can
// still be interrupted from the terminal.
std::binary_semaphore g_shutdown(0);
volatile sig_atomic_t g_signal_count = 0;

void HandleSignal(int) {
  if (++g_signal_count > 1) _exit(130);
  g_shutdown.release();
}

void Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--host H] [--port P] [--io-threads N] [--shards N]\n"
          "          [--store memory|caching] [--max-pipeline N]\n"
          "          [--max-value-bytes N] [--cache-budget-mb N]\n"
          "          [--write-stall-timeout SECS] [--shed-backlog-bytes N]\n"
          "          [--shed-age-micros N] [--retry-after-millis N]\n"
          "  --port 0 picks a free port (printed on stdout once bound)\n"
          "  --cache-budget-mb sets the per-shard DRAM budget for\n"
          "  --store caching (0 = unbounded)\n"
          "  --write-stall-timeout closes connections write-blocked this\n"
          "  long (0 disables); --shed-backlog-bytes / --shed-age-micros\n"
          "  bound per-connection queue depth / request age (0 disables)\n",
          argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using costperf::core::CachingStoreOptions;
  using costperf::core::ShardedStore;

  costperf::server::ServerOptions options;
  size_t shards = 8;
  std::string store_kind = "memory";
  long cache_budget_mb = -1;  // -1 = keep the CachingStoreOptions default

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--host") == 0) {
      options.host = next("--host");
    } else if (strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<uint16_t>(atoi(next("--port")));
    } else if (strcmp(argv[i], "--io-threads") == 0) {
      options.io_threads = atoi(next("--io-threads"));
    } else if (strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<size_t>(atoll(next("--shards")));
    } else if (strcmp(argv[i], "--store") == 0) {
      store_kind = next("--store");
    } else if (strcmp(argv[i], "--max-pipeline") == 0) {
      options.max_pipeline_frames = static_cast<size_t>(atoll(next("--max-pipeline")));
    } else if (strcmp(argv[i], "--max-value-bytes") == 0) {
      options.max_value_bytes = static_cast<size_t>(atoll(next("--max-value-bytes")));
    } else if (strcmp(argv[i], "--cache-budget-mb") == 0) {
      cache_budget_mb = atol(next("--cache-budget-mb"));
    } else if (strcmp(argv[i], "--write-stall-timeout") == 0) {
      options.write_stall_timeout_seconds = atof(next("--write-stall-timeout"));
    } else if (strcmp(argv[i], "--shed-backlog-bytes") == 0) {
      options.shed_backlog_bytes =
          static_cast<size_t>(atoll(next("--shed-backlog-bytes")));
    } else if (strcmp(argv[i], "--shed-age-micros") == 0) {
      options.shed_age_micros =
          static_cast<uint64_t>(atoll(next("--shed-age-micros")));
    } else if (strcmp(argv[i], "--retry-after-millis") == 0) {
      options.retry_after_millis =
          static_cast<uint32_t>(atoll(next("--retry-after-millis")));
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  std::unique_ptr<ShardedStore> store;
  if (store_kind == "memory") {
    store = ShardedStore::OfMemory(shards);
  } else if (store_kind == "caching") {
    CachingStoreOptions caching;
    if (cache_budget_mb >= 0) {
      caching.memory_budget_bytes =
          static_cast<uint64_t>(cache_budget_mb) << 20;
    }
    store = ShardedStore::OfCaching(shards, caching);
  } else {
    fprintf(stderr, "unknown --store %s\n", store_kind.c_str());
    return 2;
  }

  // Handlers go in before Start() so a signal in the bind/listen window is
  // never lost. sigaction without SA_RESTART: interrupted syscalls return
  // EINTR, which every blocking loop in the server and client handles.
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  costperf::server::Server server(store.get(), options);
  costperf::Status s = server.Start();
  if (!s.ok()) {
    fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("listening on %s:%u\n", options.host.c_str(), server.port());
  fflush(stdout);

  g_shutdown.acquire();

  server.Stop();
  printf("%s", server.StatsText().c_str());
  fflush(stdout);
  return 0;
}
