#ifndef COSTPERF_COMMON_LOCK_ORDER_H_
#define COSTPERF_COMMON_LOCK_ORDER_H_

#include "common/thread_annotations.h"

// Global lock-acquisition order, declared as a chain of marker
// capabilities. The concrete mutexes live as private members of classes
// that cannot name each other (CacheManager's shard mutex cannot appear
// in LogStructuredStore's header and vice versa), so each one instead
// anchors itself ACQUIRED_BEFORE/ACQUIRED_AFTER the rank markers below;
// Clang's analysis stitches the per-mutex edges into one transitive
// graph and flags any acquisition that inverts it (enforced by the
// -Wthread-safety-beta flag the ANALYZE lane adds — acquired_before/
// after are beta-gated warnings).
//
// The declared order, outermost first (see DESIGN.md "Lock order"):
//
//   1. store maintenance   CachingStore::maintenance_mu_ — held across a
//                          whole maintenance pass (eviction, GC, merges),
//                          so it nests outside every I/O and cache latch.
//   2. log append          LogStructuredStore::mu_ — the append/group-
//                          commit latch; may be held across (simulated)
//                          media waits, so nothing below it may stall.
//   3. cache shard         CacheManager::Shard::mu — short structural
//                          latch; in particular it must NEVER be held
//                          across a log append: a stalling append under
//                          a shard latch would block that shard's
//                          Insert/Erase for the duration of the I/O.
//   4. scheduler queue     MaintenanceScheduler::mu_ — pure leaf: Signal
//                          runs on op paths and workers drop it before
//                          running a step, so it may never wrap another
//                          lock on this list.
//   5. page metadata       BwTree::MetaStripe::mu — a leaf beside the
//                          scheduler queue: nothing is taken under it and
//                          no path holds two stripes. It nests inside a
//                          cache-shard latch only where an eviction's
//                          swing runs in CacheManager::SwingOut.
//
// The markers are never locked; they exist only as graph nodes. A
// RankTag carries the generic "mutex" capability kind so the analysis
// relates it to the Mutex wrappers it orders.

namespace costperf::lock_rank {

class CAPABILITY("mutex") RankTag {};

inline RankTag kStoreMaintenance;
inline RankTag kLogAppend ACQUIRED_AFTER(kStoreMaintenance);
inline RankTag kCacheShard ACQUIRED_AFTER(kLogAppend);
inline RankTag kSchedulerQueue ACQUIRED_AFTER(kCacheShard);
inline RankTag kPageMeta ACQUIRED_AFTER(kCacheShard);

}  // namespace costperf::lock_rank

#endif  // COSTPERF_COMMON_LOCK_ORDER_H_
