#ifndef COSTPERF_BWTREE_BWTREE_H_
#define COSTPERF_BWTREE_BWTREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bwtree/node.h"
#include "bwtree/page_codec.h"
#include "common/batch_op.h"
#include "common/epoch.h"
#include "common/mutex.h"
#include "common/retry.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "llama/cache_manager.h"
#include "llama/log_store.h"
#include "mapping/mapping_table.h"

namespace costperf::bwtree {

struct BwTreeOptions {
  size_t mapping_capacity = 1 << 20;
  // Consolidated-leaf payload size that triggers a split. The paper's
  // Deuteronomy configuration caps pages at 4K with ~100% utilization.
  uint64_t max_page_bytes = 4096;
  // Delta-chain length that triggers consolidation on access.
  uint32_t consolidate_threshold = 8;
  // Probes MultiGetBatch keeps in flight per thread (the AMAC interleave
  // width): each probe advances one descent hop, prefetches its next
  // node, then yields, so up to this many cache misses overlap instead
  // of serializing. 1 degenerates to sequential Gets.
  uint32_t batch_interleave = 8;
  // Inner-node fanout cap before an inner split.
  size_t max_inner_children = 64;
  // Log-structured store for page flush/load. May be null for a purely
  // in-memory tree (paging calls then fail with FailedPrecondition).
  llama::LogStructuredStore* log_store = nullptr;
  // Optional resident-set accounting (leaf pages only; the index is
  // assumed cached, as the paper does for blind updates).
  llama::CacheManager* cache = nullptr;
  // Bounded retry for transient device errors on the read/flush paths.
  // max_attempts = 1 disables retrying. The backoff is kept short: these
  // are in-memory-simulated I/Os, and tests inject high error rates.
  RetryPolicy io_retry = ShortBackoffRetry();

  static RetryPolicy ShortBackoffRetry() {
    RetryPolicy p;
    p.max_attempts = 4;
    p.initial_backoff_nanos = 20'000;
    return p;
  }
};

// How a dirty page reaches flash (paper Fig. 5). The compressed tier
// (§7.2) has its own entry point, BwTree::DemotePage.
enum class FlushMode {
  kFullPage,   // write the full consolidated page image
  kDeltaOnly,  // write just the in-memory deltas with a back-pointer to
               // the previously stored image (valid when the base page is
               // already on flash; falls back to full otherwise)
};

// What stays in memory after eviction (paper §6.3).
enum class EvictMode {
  kFullEviction,  // mapping entry becomes a flash address
  kKeepDeltas,    // record cache: deltas survive, base page is dropped
};

// When is a page worth demoting to the compressed tier? Both knobs guard
// the Fig. 8 breakeven from the cost side: a page that barely compresses
// saves too little media to pay its decompression tax, and a page that
// keeps getting promoted back pays that tax over and over.
struct CssPolicy {
  // Refuse demotion when compressed/raw exceeds this (measured from the
  // single Compress call that produces the stored image).
  double min_ratio = 0.85;
  // Refuse pages already promoted out of CSS more than this many times.
  uint32_t max_reheats = 4;
};

// What a successful (or refused) demotion did, for the tiering loop's
// accounting and the measured-ratio feed to the cost model.
struct DemoteResult {
  bool demoted = false;
  uint64_t raw_bytes = 0;     // consolidated image size
  uint64_t stored_bytes = 0;  // compressed bytes that reached the log
};

struct BwTreeStats {
  // Operation counts.
  uint64_t gets = 0, puts = 0, deletes = 0, scans = 0;
  // MM = completed without any flash read; SS = needed >= 1 flash read.
  uint64_t mm_ops = 0, ss_ops = 0;
  uint64_t flash_record_reads = 0;  // individual log-store record reads
  // Gets answered from an in-memory delta while the base page was on
  // flash (§6.3 record-cache hits: an I/O avoided).
  uint64_t record_cache_hits = 0;
  uint64_t blind_updates = 0;  // puts/deletes posted onto non-resident bases
  // Structure maintenance.
  uint64_t consolidations = 0;
  uint64_t leaf_splits = 0, inner_splits = 0, root_splits = 0;
  uint64_t leaf_merges = 0, root_collapses = 0;
  uint64_t cas_failures = 0;
  // Flash loads that read reclaimed media because GC relocated the page
  // mid-read (benign: the op retried against the new address).
  uint64_t read_relocation_retries = 0;
  // Paging.
  uint64_t page_loads = 0;
  uint64_t full_flushes = 0, delta_flushes = 0;
  uint64_t full_evictions = 0, record_cache_evictions = 0;
  uint64_t bytes_flushed = 0;
  // Tier hierarchy (§7.2 / Fig. 8).
  uint64_t css_hits = 0;  // page loads satisfied by a compressed record
  uint64_t css_demotions = 0;          // DemotePage successes
  uint64_t css_demotion_refusals = 0;  // policy said CSS would be a loss
  uint64_t css_raw_bytes_demoted = 0;     // pre-compression image bytes
  uint64_t css_stored_bytes_demoted = 0;  // bytes that reached the log
  // Fault handling.
  uint64_t io_retries = 0;          // extra attempts after transient errors
  uint64_t io_retry_give_ups = 0;   // retry budgets exhausted
  uint64_t salvage_recoveries = 0;  // RecoverFromStore salvage fallbacks
};

// Latch-free B-tree over a mapping table with delta-record updates,
// page consolidation, B-link splits, and LLAMA-backed paging — the data
// component of the paper's Deuteronomy configuration.
//
// Concurrency: readers/writers are latch-free (epoch-protected CAS on
// mapping entries). Flush/evict/GC entry points are safe to call
// concurrently with operations but are expected to run on maintenance
// paths (they may return Aborted when racing a writer; callers retry).
//
// Epoch discipline: every public operation acquires its own EpochGuard on
// epochs_; the private descent/consolidation/SMO helpers instead declare
// REQUIRES_EPOCH(epochs_) — they dereference decoded mapping-table nodes
// and must run inside the caller's guard. Under -DCOSTPERF_ANALYZE=ON an
// unguarded call path is a compile error; debug builds also hit
// EpochManager::AssertActive() backstops on the descent/search paths.
// ~BwTree, DiscardResidentState and SalvageRebuild dereference without
// guards by explicit single-threaded contract (no concurrent access).
class BwTree {
 public:
  explicit BwTree(BwTreeOptions options = {});
  ~BwTree();

  BwTree(const BwTree&) = delete;
  BwTree& operator=(const BwTree&) = delete;

  // --- data operations ---

  // Blind upsert: never reads the base page (paper §6.2); a timestamped
  // variant lets the transaction component order its updates.
  Status Put(const Slice& key, const Slice& value) {
    return Put(key, value, /*timestamp=*/0);
  }
  Status Put(const Slice& key, const Slice& value, uint64_t timestamp);

  Result<std::string> Get(const Slice& key);
  // Out-param read: writes the value into *value_out (capacity reused by
  // callers), NotFound when the key is absent.
  Status Get(const Slice& key, std::string* value_out);

  // One probe of a batched read: the stack-wide shared op type (see
  // common/batch_op.h), so KvStore-layer callers pass their op arrays
  // down without translation. On return *status is Ok (*value written),
  // NotFound, or the error the probe hit.
  using BatchGetOp = ::costperf::BatchGetOp;

  // Batched point reads. Equivalent to Get(op.key, op.value) per op, but
  // runs up to `interleave` probes (0 = options().batch_interleave) as
  // an AMAC-style state machine: each probe advances one hop — mapping
  // resolve, inner-node descent, leaf-chain search — issues a software
  // prefetch for the node it will touch next, and yields to the next
  // probe, so the group's DRAM misses overlap instead of serializing.
  // One EpochGuard covers each interleave group (amortizing the
  // reservation CAS over the group); stats/consolidation behavior
  // matches Get exactly, per probe.
  void MultiGetBatch(BatchGetOp* ops, size_t count, size_t interleave = 0);

  // Blind delete (posts a delete delta).
  Status Delete(const Slice& key) { return Delete(key, 0); }
  Status Delete(const Slice& key, uint64_t timestamp);

  // Collects up to `limit` records with key >= start (and < end when end
  // is non-empty), in key order.
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out,
              const Slice& end = Slice());

  // --- paging operations (driven by the caching store / cache manager) ---

  Status FlushPage(PageId pid, FlushMode mode);
  Status EvictPage(PageId pid, EvictMode mode);
  // Demotes a resident leaf to the compressed tier: consolidates the
  // chain, compresses the image once (the same call that measures the
  // ratio), appends it as a compressed log record, and swings the
  // mapping entry to the flash address — flush and eviction in one CAS.
  // The cache manager keeps tracking the page in the CSS tier (recency,
  // compressed footprint, reheats); the next access promotes it back
  // through the ordinary load path. Refuses with FailedPrecondition when
  // `policy` says CSS would be a loss for this page (poor ratio or too
  // many reheats) or when the base is not resident; Aborted on races.
  Status DemotePage(PageId pid, const CssPolicy& policy,
                    DemoteResult* out = nullptr);
  // Makes the page resident (SS work happens here).
  Status LoadPage(PageId pid);
  // Flushes every dirty leaf (full images).
  Status FlushAll();

  // Leaf page currently responsible for `key`.
  Result<PageId> LeafOf(const Slice& key);
  // All leaf page ids in key order (walks the B-link chain).
  std::vector<PageId> LeafPageIds();
  bool IsLeafResident(PageId pid) const;
  bool IsDirty(PageId pid) const;

  // --- structure maintenance ---

  // Merges the right sibling of `left_pid` into it when their combined
  // payload fits comfortably in a page (the canonical Bw-tree remove-
  // node/merge-delta SMO). Both pages must be resident, consolidated and
  // quiescent enough for the three CAS steps; returns Aborted on any
  // race (callers retry on a later maintenance pass) and
  // FailedPrecondition when the pair is not mergeable.
  Status TryMergeRight(PageId left_pid);

  // Maintenance sweep: merges adjacent underfull leaves (combined payload
  // <= `fill_target` * max_page_bytes). Returns the number of merges.
  size_t MergeUnderfullLeaves(double fill_target = 0.5);

  // One quota-bounded slice of background housekeeping: scans up to
  // `scan_pages` mapping slots starting at *cursor (wrapping at the
  // high-water mark), consolidating leaves whose delta chain reached the
  // threshold and flushing up to `max_flushes` dirty leaves as full pages.
  // Resumable: *cursor advances so successive calls cover the whole
  // table; all work is best-effort CAS (safe concurrent with foreground
  // ops). Counts are approximate under concurrency (counters only).
  struct HousekeepingStats {
    size_t scanned = 0;       // leaf chains examined
    size_t consolidated = 0;  // chains consolidated (or split)
    size_t flushed = 0;       // dirty leaves flushed
    bool flush_error = false; // a flush failed with a non-Aborted status
    Status first_error;       // first such status (Ok when none)
  };
  HousekeepingStats HousekeepingScan(PageId* cursor, size_t scan_pages,
                                     size_t max_flushes);

  // --- restart recovery ---

  // Rebuilds the tree from the log-structured store after a restart:
  // re-scans the device for the newest image of every page, restores the
  // mapping entries (at their original page ids) as flash pointers, and
  // bulk-builds the inner index from the recovered leaf fence chain.
  // Discards any current in-memory contents; call on a freshly
  // constructed tree over the old device. Unflushed pre-crash state is
  // lost, by design (the transaction component's redo log covers it).
  //
  // When the fence chain on media is structurally inconsistent (a crash
  // between a split's page flushes leaves mixed-version fences), recovery
  // falls back to a salvage rebuild: every readable record is replayed in
  // log order, merged newest-wins per key, and re-inserted into a fresh
  // tree — structure is rebuilt from scratch, data is kept. Counted in
  // stats().salvage_recoveries.
  Status RecoverFromStore();

  // --- GC integration (see LogStructuredStore::Collect*) ---

  bool GcIsLive(PageId pid, FlashAddress addr) const;
  bool GcInstall(PageId pid, FlashAddress old_addr, FlashAddress new_addr);
  // Rewrites every page that has multi-record or resident state in the
  // segment so only simply-relocatable records remain live there.
  Status PrepareSegmentForGc(uint64_t segment_id, uint64_t segment_bytes);

  // --- introspection ---

  BwTreeStats stats() const;
  // Total bytes of resident chains (the Bw-tree memory footprint; used to
  // measure the paper's M_x).
  uint64_t MemoryFootprintBytes() const;
  uint64_t resident_leaves() const;
  // Runs an epoch reclamation pass; call periodically from maintenance.
  size_t ReclaimMemory() { return epochs_.TryReclaim(); }

  // RETURN_CAPABILITY lets callers write `EpochGuard g(tree->epochs())`
  // and have the analysis resolve the held capability to epochs_.
  EpochManager* epochs() RETURN_CAPABILITY(epochs_) { return &epochs_; }
  mapping::MappingTable* mapping_table() { return &table_; }
  PageId root_pid() const { return root_pid_.load(std::memory_order_acquire); }
  const BwTreeOptions& options() const { return options_; }

  // Snapshot of a page's paging metadata, exposed for the analysis layer
  // (analysis::BwTreeValidator / LogStoreAuditor need the flash chain to
  // cross-check delta-page back-pointers and log-record liveness).
  struct PageDebugInfo {
    // Flash records backing the page, newest first (see PageMeta).
    std::vector<uint64_t> flash_chain;
    bool base_dirty = false;
  };
  PageDebugInfo DebugPageInfo(PageId pid) const;

 private:
  struct PageMeta {
    // Flash records backing this page, newest first. Element 0 is the
    // image the mapping entry / FlashPointer refers to; later elements
    // are reachable via delta-page back-pointers.
    std::vector<uint64_t> flash_chain;
    // True when the resident base's content is newer than flash_chain.
    bool base_dirty = false;
  };

  // Per-operation bookkeeping for MM/SS classification.
  struct OpContext {
    uint32_t flash_reads = 0;
    // Of those, reads whose log record was stored compressed (CSS tier):
    // the op paid decompression CPU instead of a larger SS transfer.
    uint32_t compressed_reads = 0;
    bool touched_flash_tail = false;
  };

  // Finds the leaf pid covering `key`; records the inner path (root
  // first) for split posting.
  PageId DescendToLeaf(const Slice& key, std::vector<PageId>* path)
      REQUIRES_EPOCH(epochs_);

  // Walks a resident chain for `key`. Returns true when an answer was
  // determined (found or definitely-deleted); false when the base is
  // needed but on flash.
  bool SearchResidentChain(Node* head, const Slice& key, bool* found,
                           std::string* value) const
      REQUIRES_EPOCH(epochs_);

  // Per-probe state of the MultiGetBatch machine (defined in bwtree.cc).
  struct BatchProbe;
  struct OpStatCell;  // defined below (per-thread stat cells)
  // Advances one probe by one hop/quantum; runs inside the group guard
  // (decoded node pointers in the probe state outlive the quantum only
  // because the guard blocks reclamation).
  COSTPERF_HOT void StepProbe(BatchProbe* p, OpStatCell& cell)
      REQUIRES_EPOCH(epochs_);
  // The leaf answer both read paths share (Get's attempt loop and
  // StepProbe): searches the resident chain `head` of leaf `pid` for
  // `key`. When the chain decides the answer it does the per-read
  // bookkeeping — cache touch, record-cache hit, MM/SS count and its
  // opclass publication, consolidation of a long chain — stores Ok or
  // NotFound in *status and returns true. False means the base is on
  // flash: the caller loads it and retries. Defined inline in
  // bwtree.cc, where both callers live.
  inline bool AnswerFromLeaf(PageId pid, Node* head, const Slice& key,
                             std::string* value, const OpContext& ctx,
                             std::vector<PageId>* path, OpStatCell& cell,
                             Status* status) REQUIRES_EPOCH(epochs_);

  // The one blind-write path behind Put and Delete, which differ only in
  // the delta they post: prepends `delta` to the leaf covering `key` with
  // a mapping-table CAS — over a fresh FlashPointer tail when the page is
  // evicted, so the write never reads the base (§6.2). Takes ownership of
  // `delta`.
  Status PostDelta(const Slice& key, Node* delta);

  // Loads the flash portion of `pid` and installs a consolidated base.
  // `entry_word` is the observed mapping word. On success the page is
  // resident.
  Status LoadAndInstall(PageId pid, uint64_t entry_word, OpContext* ctx)
      REQUIRES_EPOCH(epochs_);

  // Reads and applies the flash image chain starting at addr into `leaf`.
  Status MaterializeFromFlash(FlashAddress addr, LeafBase* leaf,
                              OpContext* ctx);

  // Builds a consolidated LeafBase from a fully resident chain.
  LeafBase* ConsolidateChain(Node* head) const REQUIRES_EPOCH(epochs_);

  // Split durability ordering: if `sib` (a page's right sibling) has never
  // reached flash, flush it first. The log is sequential, so "sibling
  // before source" guarantees any crash that preserves the source's
  // post-split image — which no longer carries the migrated keys — also
  // preserves the sibling image that does. FlushAll gets the same
  // invariant by flushing right-to-left; this covers single-page flushes
  // (background eviction, CSS re-flush, GC page rewrites).
  Status EnsureSplitSiblingDurable(PageId sib) REQUIRES_EPOCH(epochs_);

  // Attempts consolidation (and split if oversized). Best effort;
  // returns true when it installed a consolidated page or a split.
  bool MaybeConsolidate(PageId pid, std::vector<PageId>* path)
      REQUIRES_EPOCH(epochs_);
  // Consolidates regardless of chain length (merge-delta folding).
  void MaybeConsolidateForced(PageId pid) REQUIRES_EPOCH(epochs_);

  // Splits `base` (already consolidated, oversized); posts to parent.
  // `expected_word` is the chain the consolidation was built from.
  void SplitLeaf(PageId pid, uint64_t expected_word, LeafBase* base,
                 std::vector<PageId>* path) REQUIRES_EPOCH(epochs_);

  // Inserts (sep, right_pid) into the parent of left_pid; creates a new
  // root when left_pid is the root.
  void PostSplitToParent(PageId left_pid, const std::string& sep,
                         PageId right_pid, std::vector<PageId>* path)
      REQUIRES_EPOCH(epochs_);
  void SplitInner(PageId pid, InnerBase* inner, std::vector<PageId>* path)
      REQUIRES_EPOCH(epochs_);

  // Finds the inner node whose children contain `child_pid`, descending
  // toward `toward_key`. kInvalidPageId when child is the root or not
  // found.
  PageId FindParentOf(PageId child_pid, const Slice& toward_key)
      REQUIRES_EPOCH(epochs_);

  // Removes `child_pid` (and its separator) from its parent after a
  // merge; collapses the root when it shrinks to one child.
  Status RemoveChildFromParent(PageId child_pid, const Slice& toward_key)
      REQUIRES_EPOCH(epochs_);
  // Rewrites the unique ancestor separator equal to old_sep to new_sep
  // (used when the removed page was its parent's first child).
  Status ReplaceBoundarySep(const Slice& old_sep, const Slice& new_sep)
      REQUIRES_EPOCH(epochs_);

  // Runs fn under the configured transient-error retry policy and folds
  // the attempt counts into stats.
  Status RetryIo(const std::function<Status()>& fn);
  Result<FlashAddress> RetryAppend(PageId pid, const Slice& image);
  Result<FlashAddress> RetryAppendCompressed(PageId pid,
                                             const Slice& compressed,
                                             uint32_t raw_len);

  // Frees every resident chain and resets mapping/meta state (recovery
  // preamble, shared by the fast path and the salvage fallback).
  void DiscardResidentState();
  // Last-resort recovery: replay every readable log record in log order,
  // merge newest-wins per key, rebuild the tree from scratch via Put.
  Status SalvageRebuild(
      const std::vector<std::pair<PageId, FlashAddress>>& visited);

  // Chain tail helpers.
  static Node* ChainTail(Node* head);
  static const Node* ChainTail(const Node* head);

  // Retire an unlinked chain/node through the epoch. The caller must
  // still be inside the guard it held when it unlinked the chain: the
  // retire epoch stamp must cover every reader that could have seen the
  // old mapping word.
  void RetireChain(Node* head) REQUIRES_EPOCH(epochs_);
  void RetireNode(Node* n) REQUIRES_EPOCH(epochs_);

  void CacheInsertOrResize(PageId pid, Node* head);
  void CacheTouch(PageId pid);

  // Meta accessors.
  void MetaSetChain(PageId pid, std::vector<uint64_t> chain, bool dirty)
      EXCLUDES(meta_mu_);
  void MetaMarkDirty(PageId pid) EXCLUDES(meta_mu_);
  // Swings `pid`'s mapping word from `expected` to `desired` and, when
  // it lands, applies `update` to the page's metadata in the same
  // meta_mu_ hold. Every swing that folds deltas into a base or moves
  // the page's flash state goes through here, so flash_chain and
  // base_dirty always describe the base the table holds. Applied after
  // the lock is dropped, a "clean" update could overwrite the dirty
  // mark of a consolidation or load that swung the word in between, and
  // eviction would then drop that unflushed base.
  template <typename Update>
  bool CasWithMeta(PageId pid, uint64_t expected, uint64_t desired,
                   Update update) EXCLUDES(meta_mu_);
  PageMeta MetaGet(PageId pid) const EXCLUDES(meta_mu_);
  void MarkChainDead(const std::vector<uint64_t>& chain);

  BwTreeOptions options_;
  mapping::MappingTable table_;
  // mutable: const introspection paths (IsDirty, MemoryFootprintBytes…)
  // take their own guards before dereferencing resident chains.
  mutable EpochManager epochs_;
  std::atomic<PageId> root_pid_;

  mutable Mutex meta_mu_;
  std::unordered_map<PageId, PageMeta> meta_ GUARDED_BY(meta_mu_);

  // Page ids allocated by an in-flight split whose link CAS has not
  // resolved yet. Raw mapping-slot scanners (HousekeepingScan) must skip
  // them: until the split's CAS publishes the left page, the splitting
  // thread still owns the right page and reclaims it on CAS failure —
  // a concurrent flush would race that reclamation. Pages reached
  // through tree traversal or sibling links are never in this set.
  mutable Mutex construction_mu_;
  std::set<PageId> under_construction_ GUARDED_BY(construction_mu_);
  bool IsUnderConstruction(PageId pid) const;
  // An SMO publishes a page it may still take back (a split's right
  // half, a new root) under construction: slot scanners
  // (HousekeepingScan, FindParentOf) skip it until the SMO links it
  // (FinishConstruction) or takes it back (AbandonConstruction).
  // kInvalidPageId when the table is full; the caller keeps `node`.
  PageId PublishUnderConstruction(Node* node) REQUIRES_EPOCH(epochs_);
  void FinishConstruction(PageId pid);
  void AbandonConstruction(PageId pid, Node* node) REQUIRES_EPOCH(epochs_);

  // Hot-path op counters live in per-thread cells indexed by the epoch
  // thread slot, so an increment is a relaxed load+store on a private
  // cache line instead of a locked RMW on a line every worker shares.
  // stats() sums the cells; totals stay exact while live threads fit in
  // EpochManager::kMaxThreads (beyond that, slot reuse can drop stat
  // increments — counters only, never correctness).
  struct alignas(64) OpStatCell {
    std::atomic<uint64_t> gets{0}, puts{0}, deletes{0};
    std::atomic<uint64_t> mm{0}, ss{0}, rc_hits{0}, blind{0};
  };
  OpStatCell& StatCell() { return op_cells_[epochs_.RegisterThread()]; }
  static void Bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }
  mutable OpStatCell op_cells_[EpochManager::kMaxThreads];

  // Stats (relaxed atomics; snapshot via stats()).
  mutable std::atomic<uint64_t> s_scans_{0};
  mutable std::atomic<uint64_t> s_flash_reads_{0};
  mutable std::atomic<uint64_t> s_consolidations_{0}, s_leaf_splits_{0},
      s_inner_splits_{0}, s_root_splits_{0}, s_leaf_merges_{0},
      s_root_collapses_{0}, s_cas_failures_{0},
      s_read_relocation_retries_{0};
  mutable std::atomic<uint64_t> s_loads_{0}, s_full_flushes_{0},
      s_delta_flushes_{0}, s_full_evictions_{0}, s_rc_evictions_{0},
      s_bytes_flushed_{0};
  mutable std::atomic<uint64_t> s_io_retries_{0}, s_io_give_ups_{0},
      s_salvage_{0};
  mutable std::atomic<uint64_t> s_css_hits_{0}, s_css_demotions_{0},
      s_css_refusals_{0}, s_css_raw_demoted_{0}, s_css_stored_demoted_{0};
  // Decorrelates concurrent retry jitter streams (see RetryTransient).
  std::atomic<uint64_t> retry_salt_{0};
};

}  // namespace costperf::bwtree

#endif  // COSTPERF_BWTREE_BWTREE_H_
