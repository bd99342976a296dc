#ifndef COSTPERF_SERVER_ADMISSION_H_
#define COSTPERF_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/kv_store.h"

namespace costperf::server {

// Tenant ids arrive verbatim from the wire, so tracked-tenant maps must be
// bounded: past a cap, unseen ids fold into this shared overflow bucket
// (a genuine tenant using this id merges with it — documented, harmless).
inline constexpr uint32_t kOverflowTenantId = 0xFFFFFFFFu;

// Every per-tenant counter, one line each: X(name). All are counts (they
// only grow). TenantCounters, TenantSnapshot, TenantRegistry::Snapshot()
// and the STATS `tenant.<id>.<name>` keys are generated from this list.
#define COSTPERF_TENANT_COUNTERS(X)                      \
  X(requests)                                            \
  X(read_keys)                                           \
  X(write_keys)                                          \
  X(rejected) /* refused: pushback, shed, degraded */    \
  X(errors)   /* malformed / failed requests */          \
  X(bytes_in)                                            \
  X(bytes_out)

// Per-tenant request accounting. Tenants are named by the u32 tenant_id on
// every wire frame; counters are plain atomics so the I/O threads update
// them without coordination.
struct TenantCounters {
#define COSTPERF_TENANT_COUNTER_CELL(name) std::atomic<uint64_t> name{0};
  COSTPERF_TENANT_COUNTERS(COSTPERF_TENANT_COUNTER_CELL)
#undef COSTPERF_TENANT_COUNTER_CELL
};

struct TenantSnapshot {
  uint32_t tenant_id = 0;
#define COSTPERF_TENANT_COUNTER_MEMBER(name) uint64_t name = 0;
  COSTPERF_TENANT_COUNTERS(COSTPERF_TENANT_COUNTER_MEMBER)
#undef COSTPERF_TENANT_COUNTER_MEMBER
};

class TenantRegistry {
 public:
  explicit TenantRegistry(size_t max_tenants = 1024)
      : max_tenants_(max_tenants == 0 ? 1 : max_tenants) {}

  // Returns the counters for `tenant_id`, creating them on first sight.
  // The returned pointer stays valid for the registry's lifetime, so
  // connections cache it and the mutex is only taken on first contact.
  // Once max_tenants distinct ids are tracked, further ids share the
  // kOverflowTenantId bucket so a client spraying ids cannot grow the map
  // (or the STATS response) without bound.
  TenantCounters* Get(uint32_t tenant_id);

  std::vector<TenantSnapshot> Snapshot() const;

 private:
  const size_t max_tenants_;
  mutable Mutex mu_;
  // std::map, not unordered_map: stats output iterates in tenant order and
  // node-based maps keep TenantCounters addresses stable across inserts.
  std::map<uint32_t, TenantCounters> tenants_ GUARDED_BY(mu_);
};

// Write-stall backpressure, re-exported as per-tenant admission pushback.
//
// The store reports stalls it absorbed (write_stalls / stall_micros_total
// in KvStoreStats). When the server observes those counters advance, the
// foreground is outrunning log flush + eviction; instead of letting every
// tenant queue behind the stall, the server opens a pushback window during
// which tenants writing more than their fair share of the recent write
// traffic get kResourceExhausted error frames and must back off. Tenants
// under their share keep writing: the pushback is targeted, not global.
struct AdmissionOptions {
  double pushback_window_seconds = 0.25;
  // A tenant is over fair share when its fraction of recent write keys
  // exceeds share_slack / active_tenant_count.
  double share_slack = 1.25;
  // Ignore stall evidence until at least this many write keys have been
  // observed, so a cold start cannot trigger pushback.
  uint64_t min_write_keys = 256;
  // Share accounting is an exponentially-decayed window, not a lifetime
  // total: every half-life, each tenant's write_keys halve (entries that
  // reach zero are dropped). "Fair share of recent write traffic" then
  // actually means recent — a historical hog that went idle decays back
  // under its share, and a newly-aggressive tenant can't hide under a
  // large lifetime denominator. <= 0 disables decay.
  double share_halflife_seconds = 5.0;
  // Bound on distinct tenant ids tracked for share accounting; ids past
  // the cap share the kOverflowTenantId bucket (decay frees idle slots).
  size_t max_tracked_tenants = 1024;
};

class AdmissionController {
 public:
  AdmissionController(Clock* clock, AdmissionOptions options);

  // Feed the store's current stats; detects write_stalls advancing and
  // opens (or extends) the pushback window.
  void ObserveStoreStats(const core::KvStoreStats& stats);

  // Ask permission to apply `write_keys` writes for `tenant_id`. Always
  // records the traffic (the share estimate needs denied traffic too —
  // a rejected tenant that keeps retrying stays over its share).
  bool AdmitWrite(uint32_t tenant_id, uint64_t write_keys);

  bool in_pushback() const;
  uint64_t pushback_windows() const { return windows_.load(std::memory_order_relaxed); }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }

 private:
  struct TenantShare {
    uint64_t write_keys = 0;
  };

  // Applies any whole half-lives elapsed since the last decay to every
  // tracked share (dropping zeroed entries and rebuilding the total).
  void DecayShares(double now) REQUIRES(mu_);

  Clock* const clock_;
  const AdmissionOptions options_;

  mutable Mutex mu_;
  std::map<uint32_t, TenantShare> shares_ GUARDED_BY(mu_);
  uint64_t total_write_keys_ GUARDED_BY(mu_) = 0;
  double last_decay_ GUARDED_BY(mu_) = 0;
  uint64_t last_write_stalls_ GUARDED_BY(mu_) = 0;
  bool seen_stats_ GUARDED_BY(mu_) = false;
  double pushback_until_ GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> windows_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace costperf::server

#endif  // COSTPERF_SERVER_ADMISSION_H_
