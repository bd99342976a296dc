#ifndef COSTPERF_MASSTREE_MASSTREE_H_
#define COSTPERF_MASSTREE_MASSTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/batch_op.h"
#include "common/epoch.h"
#include "common/latch.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace costperf::masstree {

// From-scratch reimplementation of MassTree (Mao, Kohler, Morris,
// EuroSys'12): a trie of B+-trees. Each layer indexes 8 bytes of key
// ("key slice", big-endian so slice order == lexicographic order); keys
// longer than the slice continue in a nested layer reached through a link
// entry. Border (leaf) nodes hold up to 15 entries keyed by
// (slice, effective length), where length 0..8 terminates a key in this
// layer and the link pseudo-length 9 routes longer keys downward.
//
// Concurrency model: readers are latch-free — they snapshot per-node
// optimistic versions (MassTree's technique) and retry on interference.
// Writers serialize per layer on a spin latch; nested layers are
// independent, so writes to different subtrees proceed in parallel. (The
// original fine-grained hand-over-hand writer locking is out of scope;
// the paper's P_x measurement is read-side.)
//
// This is the paper's main-memory comparison system: all data always in
// DRAM, pointer-linked fixed-fanout nodes — faster per operation than the
// Bw-tree but with a larger memory footprint (the M_x of Eq. 7).
//
// Epoch discipline mirrors BwTree: public ops take their own EpochGuard
// on epochs_; the per-layer descent/mutation helpers REQUIRES_EPOCH —
// they dereference nodes a concurrent split may have retired. ~MassTree
// and FreeLayerTree run single-threaded by contract.
class MassTree {
 public:
  MassTree();
  ~MassTree();

  MassTree(const MassTree&) = delete;
  MassTree& operator=(const MassTree&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Result<std::string> Get(const Slice& key) const;
  Status Delete(const Slice& key);

  // One probe of a batched lookup: the stack-wide shared op type (see
  // common/batch_op.h), so KvStore-layer callers pass their op arrays
  // down without translation. *value is meaningful only when *status
  // is Ok.
  using LookupOp = ::costperf::BatchGetOp;

  // Batched point lookups: up to `interleave` probes run as an
  // AMAC-style state machine, each advancing one descent step (root
  // resolve, one interior level, one B-link hop, version-validated
  // border read) and prefetching the node it touches next before
  // yielding — so a group's DRAM misses overlap instead of
  // serializing. Results match per-key Get exactly; one EpochGuard
  // covers each interleave group.
  void LookupBatch(const LookupOp* ops, size_t count,
                   size_t interleave = 8) const;

  // Ordered scan: up to `limit` records with key >= start (and < end when
  // end is non-empty).
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out,
              const Slice& end = Slice()) const;

  uint64_t size() const { return count_.load(std::memory_order_acquire); }

  // Total bytes of nodes + values + layer objects: the measured footprint
  // that the paper's M_x compares against the Bw-tree's.
  uint64_t MemoryFootprintBytes() const;

  size_t ReclaimMemory() { return epochs_.TryReclaim(); }

  struct Stats {
    uint64_t puts = 0, gets = 0, deletes = 0, scans = 0;
    uint64_t read_retries = 0;   // optimistic validation failures
    uint64_t border_splits = 0, interior_splits = 0;
    uint64_t layers_created = 0;
  };
  Stats stats() const;

 private:
  struct Layer;
  struct Border;
  struct Interior;

  static constexpr int kLeafCap = 15;
  static constexpr int kInteriorCap = 15;  // keys; children = keys+1
  static constexpr uint8_t kLinkLen = 9;

  // Big-endian slice of up to 8 bytes, zero-padded.
  static uint64_t MakeSlice(const Slice& key, uint8_t* effective_len);

  Layer* NewLayer();
  void FreeLayerTree(Layer* layer);

  Status PutInLayer(Layer* layer, const Slice& key, const Slice& value)
      REQUIRES_EPOCH(epochs_);
  Result<std::string> GetInLayer(const Layer* layer, const Slice& key) const
      REQUIRES_EPOCH(epochs_);
  Status DeleteInLayer(Layer* layer, const Slice& key)
      REQUIRES_EPOCH(epochs_);
  bool ScanLayer(const Layer* layer, const std::string& layer_prefix,
                 const std::string& start_suffix, const Slice& global_end,
                 size_t limit,
                 std::vector<std::pair<std::string, std::string>>* out) const
      REQUIRES_EPOCH(epochs_);

  Border* FindBorder(const Layer* layer, uint64_t slice) const
      REQUIRES_EPOCH(epochs_);
  // What one copy-then-validate border read found.
  enum class BorderHit : uint8_t { kRetry, kMissing, kValue, kLayer };
  // The border read both lookup paths share (GetInLayer and StepLookup):
  // snapshots the border's version, finds the (slice, len) entry, copies
  // a terminal value into *value or the link into *sublayer, then
  // validates. kRetry means a writer changed the border mid-read and the
  // caller restarts the layer's descent. Defined inline in
  // masstree.cc, where both callers live.
  inline BorderHit ReadBorder(const Border* b, uint64_t slice, uint8_t len,
                              std::string* value,
                              const Layer** sublayer) const
      REQUIRES_EPOCH(epochs_);
  // Per-probe state of the LookupBatch machine (defined in masstree.cc).
  struct LookupProbe;
  // Advances one probe by one descent step; runs inside the group guard.
  COSTPERF_HOT void StepLookup(LookupProbe* p) const
      REQUIRES_EPOCH(epochs_);
  // Writer-side descent (layer latch held).
  Border* FindBorderLocked(Layer* layer, uint64_t slice,
                           std::vector<Interior*>* path) const
      REQUIRES_EPOCH(epochs_);
  void InsertIntoBorder(Layer* layer, Border* b, std::vector<Interior*>* path,
                        uint64_t slice, uint8_t len, void* payload)
      REQUIRES_EPOCH(epochs_);
  void InsertIntoParent(Layer* layer, std::vector<Interior*>* path,
                        void* left, uint64_t sep, void* right, int level)
      REQUIRES_EPOCH(epochs_);

  // Direct member (not a unique_ptr) so REQUIRES_EPOCH clauses can name
  // it; mutable because const read paths take their own guards.
  mutable EpochManager epochs_;
  Layer* root_layer_;
  std::atomic<uint64_t> count_;

  mutable std::atomic<uint64_t> s_puts_{0}, s_gets_{0}, s_deletes_{0},
      s_scans_{0}, s_retries_{0}, s_border_splits_{0}, s_interior_splits_{0},
      s_layers_{0};
};

}  // namespace costperf::masstree

#endif  // COSTPERF_MASSTREE_MASSTREE_H_
