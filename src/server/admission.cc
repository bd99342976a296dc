#include "server/admission.h"

namespace costperf::server {

TenantCounters* TenantRegistry::Get(uint32_t tenant_id) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant_id);
  if (it != tenants_.end()) return &it->second;
  if (tenants_.size() < max_tenants_ || tenant_id == kOverflowTenantId) {
    return &tenants_[tenant_id];
  }
  // Map is full: fold this id into the shared overflow bucket (created on
  // first overflow, so the map tops out at max_tenants_ + 1 entries).
  return &tenants_[kOverflowTenantId];
}

std::vector<TenantSnapshot> TenantRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& [id, c] : tenants_) {
    TenantSnapshot s;
    s.tenant_id = id;
#define COSTPERF_TENANT_COUNTER_LOAD(name) \
  s.name = c.name.load(std::memory_order_relaxed);
    COSTPERF_TENANT_COUNTERS(COSTPERF_TENANT_COUNTER_LOAD)
#undef COSTPERF_TENANT_COUNTER_LOAD
    out.push_back(s);
  }
  return out;
}

AdmissionController::AdmissionController(Clock* clock,
                                         AdmissionOptions options)
    : clock_(clock), options_(options) {}

void AdmissionController::DecayShares(double now) {
  const double halflife = options_.share_halflife_seconds;
  if (halflife <= 0) return;
  const double elapsed = now - last_decay_;
  if (elapsed < halflife) return;
  const auto steps = static_cast<uint64_t>(elapsed / halflife);
  last_decay_ += static_cast<double>(steps) * halflife;
  // 63 halvings zero any uint64 share, so cap the shift there.
  const int shift = steps > 63 ? 63 : static_cast<int>(steps);
  total_write_keys_ = 0;
  for (auto it = shares_.begin(); it != shares_.end();) {
    it->second.write_keys >>= shift;
    if (it->second.write_keys == 0) {
      it = shares_.erase(it);  // idle tenants leave the active set
    } else {
      total_write_keys_ += it->second.write_keys;
      ++it;
    }
  }
}

void AdmissionController::ObserveStoreStats(const core::KvStoreStats& stats) {
  MutexLock lock(&mu_);
  const double now = clock_->NowSeconds();
  DecayShares(now);
  if (seen_stats_ && stats.write_stalls > last_write_stalls_) {
    if (pushback_until_ <= now) {
      windows_.fetch_add(1, std::memory_order_relaxed);
    }
    pushback_until_ = now + options_.pushback_window_seconds;
  }
  last_write_stalls_ = stats.write_stalls;
  seen_stats_ = true;
}

bool AdmissionController::AdmitWrite(uint32_t tenant_id,
                                     uint64_t write_keys) {
  MutexLock lock(&mu_);
  DecayShares(clock_->NowSeconds());
  TenantShare* share;
  auto it = shares_.find(tenant_id);
  if (it != shares_.end()) {
    share = &it->second;
  } else if (shares_.size() < options_.max_tracked_tenants ||
             tenant_id == kOverflowTenantId) {
    share = &shares_[tenant_id];
  } else {
    // Past the cap, unseen ids share one bucket — and one fair share, so
    // an id-spraying client cannot dodge pushback by looking like many
    // small tenants (decay frees slots as real tenants go idle).
    share = &shares_[kOverflowTenantId];
  }
  share->write_keys += write_keys;
  total_write_keys_ += write_keys;

  if (pushback_until_ <= clock_->NowSeconds()) return true;
  if (total_write_keys_ < options_.min_write_keys) return true;

  const size_t active = shares_.size();
  const double fair =
      options_.share_slack / static_cast<double>(active == 0 ? 1 : active);
  const double mine = static_cast<double>(share->write_keys) /
                      static_cast<double>(total_write_keys_);
  if (active > 1 && mine > fair) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool AdmissionController::in_pushback() const {
  MutexLock lock(&mu_);
  return pushback_until_ > clock_->NowSeconds();
}

}  // namespace costperf::server
