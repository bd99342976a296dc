#ifndef COSTPERF_BENCHMARK_STACK_H_
#define COSTPERF_BENCHMARK_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "core/caching_store.h"
#include "core/kv_store.h"
#include "core/sharded_store.h"
#include "gen.h"
#include "maintenance/scheduler.h"
#include "trace.h"

namespace costperf::benchmark {

inline constexpr size_t kShards = 8;

struct Workload {
  std::string name;
  LoadSpec load;
  uint64_t dram_budget = 0;  // bytes across all shards; 0 = unbounded
  uint64_t css_budget = 0;   // bytes across all shards; 0 = no CSS tier
  double demote_idle_seconds = 0;
};

// The workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The store under test, built the same way for every workload: one
// MaintenanceScheduler with one worker, then ShardedStore(kShards) of
// CachingStores registered with it. With a tracer, every shard and the
// composite are wrapped in TimedStore decorators; nothing else differs.
struct Stack {
  // Declared first so it is destroyed last: shards deregister from it.
  std::unique_ptr<maintenance::MaintenanceScheduler> scheduler;
  std::unique_ptr<core::KvStore> top;      // what callers use
  core::ShardedStore* sharded = nullptr;   // owned through `top`
  std::vector<core::CachingStore*> shards; // owned through `sharded`
};

std::unique_ptr<Stack> BuildStack(const Workload& w, Tracer* tracer);

// Checks the checker: a fault decorator returns a stale version, drops a
// key and fails a write, and each case must be flagged; Finish must
// quiesce maintenance before it checks invariants. Returns 0 on success.
int RunSelfTest();

}  // namespace costperf::benchmark

#endif  // COSTPERF_BENCHMARK_STACK_H_
