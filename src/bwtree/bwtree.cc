#include "bwtree/bwtree.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "common/op_class.h"
#include "common/simd.h"
#include "compression/compressor.h"

namespace costperf::bwtree {

namespace {

// Applies one delta op into the newest-wins view used by consolidation.
// Walk order is head -> base (newest first), so the first op seen for a
// key wins unless a later-seen op carries a strictly higher timestamp.
struct VersionedOp {
  bool is_delete;
  std::string value;
  uint64_t timestamp;
  bool present = false;
};

void ApplyNewestWins(std::map<std::string, VersionedOp>* view,
                     const std::string& key, bool is_delete,
                     const std::string& value, uint64_t ts) {
  auto it = view->find(key);
  if (it == view->end()) {
    (*view)[key] = VersionedOp{is_delete, value, ts, true};
  } else if (ts > it->second.timestamp) {
    it->second = VersionedOp{is_delete, value, ts, true};
  }
}

}  // namespace

BwTree::BwTree(BwTreeOptions options)
    : options_(options), table_(options.mapping_capacity) {
  // Bootstrap: the root starts as a single empty leaf.
  auto* root = new LeafBase();
  PageId pid = table_.Allocate(EncodePointer(root));
  assert(pid != kInvalidPageId);
  root_pid_.store(pid, std::memory_order_release);
  CacheInsertOrResize(pid, root);
}

BwTree::~BwTree() {
  // Free all resident chains. No concurrent access by contract.
  epochs_.ReclaimAll();
  PageId hw = table_.high_water();
  for (PageId pid = 0; pid < hw; ++pid) {
    uint64_t w = table_.Get(pid);
    if (w != 0 && !IsFlashWord(w)) {
      FreeChain(DecodePointer(w));
      table_.Set(pid, 0);
    }
  }
}

// ---------------------------------------------------------------------
// Chain helpers
// ---------------------------------------------------------------------

Node* BwTree::ChainTail(Node* head) {
  while (head->next != nullptr) head = head->next;
  return head;
}
const Node* BwTree::ChainTail(const Node* head) {
  while (head->next != nullptr) head = head->next;
  return head;
}

namespace {

// Effective fences of a leaf chain: the topmost merge delta (newest range
// extension) wins; otherwise the tail's fences. Returns false when the
// fences are unknown (FlashPointer without them).
bool ChainFences(const Node* head, const std::string** high_key,
                 PageId* right_sibling) {
  for (const Node* n = head; n != nullptr; n = n->next) {
    if (n->type == NodeType::kMergeDelta) {
      const auto* m = static_cast<const MergeDelta*>(n);
      *high_key = &m->high_key;
      *right_sibling = m->right_sibling;
      return true;
    }
    if (n->type == NodeType::kLeafBase) {
      const auto* b = static_cast<const LeafBase*>(n);
      *high_key = &b->high_key;
      *right_sibling = b->right_sibling;
      return true;
    }
    if (n->type == NodeType::kFlashPointer) {
      const auto* fp = static_cast<const FlashPointer*>(n);
      if (!fp->fences_known) return false;
      *high_key = &fp->high_key;
      *right_sibling = fp->right_sibling;
      return true;
    }
  }
  return false;
}

// The right sibling now responsible for `key` when the chain's fences
// show the key at or past its high fence (a split moved it right before
// the parent reflected it); kInvalidPageId when the key belongs here or
// the fences are unknown. Forced inline: it sits on every descent.
[[gnu::always_inline]] inline PageId RightOfFence(const Node* head,
                                                  const Slice& key) {
  const std::string* high_key = nullptr;
  PageId right_sib = kInvalidPageId;
  if (ChainFences(head, &high_key, &right_sib) && !high_key->empty() &&
      key.compare(Slice(*high_key)) >= 0) {
    return right_sib;
  }
  return kInvalidPageId;
}

// True when the chain contains structure-modification deltas that the
// record-cache paths cannot clone or serialize incrementally.
bool ChainHasSmoDeltas(const Node* head) {
  for (const Node* n = head; n != nullptr; n = n->next) {
    if (n->type == NodeType::kMergeDelta ||
        n->type == NodeType::kRemoveNode) {
      return true;
    }
  }
  return false;
}

}  // namespace

void BwTree::RetireChain(Node* head) {
  // A merge delta owns the absorbed page's chain; its mapping entry may
  // still point there (for RemoveNode redirects). Detach the entry before
  // the chain can be freed — in-flight readers stay safe via epochs.
  for (Node* n = head; n != nullptr; n = n->next) {
    if (n->type == NodeType::kMergeDelta) {
      auto* m = static_cast<MergeDelta*>(n);
      if (m->right_pid != kInvalidPageId) {
        table_.Cas(m->right_pid, EncodePointer(m->right_chain), 0);
      }
    }
  }
  epochs_.Retire([head] { FreeChain(head); });
}

void BwTree::RetireNode(Node* n) {
  n->next = nullptr;
  epochs_.Retire([n] { FreeChain(n); });
}

void BwTree::CacheInsertOrResize(PageId pid, Node* head) {
  if (options_.cache == nullptr) return;
  options_.cache->Insert(pid, ChainBytes(head));
}

void BwTree::CacheTouch(PageId pid) {
  if (options_.cache != nullptr) options_.cache->Touch(pid);
}

// ---------------------------------------------------------------------
// Meta (flash chain) bookkeeping
// ---------------------------------------------------------------------

void BwTree::MetaSetChain(PageId pid, std::vector<uint64_t> chain,
                          bool dirty) {
  MutexLock lk(&meta_mu_);
  auto& m = meta_[pid];
  m.flash_chain = std::move(chain);
  m.base_dirty = dirty;
}

void BwTree::MetaMarkDirty(PageId pid) {
  MutexLock lk(&meta_mu_);
  meta_[pid].base_dirty = true;
}

template <typename Update>
bool BwTree::CasWithMeta(PageId pid, uint64_t expected, uint64_t desired,
                         Update update) {
  MutexLock lk(&meta_mu_);
  if (!table_.Cas(pid, expected, desired)) return false;
  update(meta_[pid]);
  return true;
}

BwTree::PageMeta BwTree::MetaGet(PageId pid) const {
  MutexLock lk(&meta_mu_);
  auto it = meta_.find(pid);
  return it == meta_.end() ? PageMeta{} : it->second;
}

BwTree::PageDebugInfo BwTree::DebugPageInfo(PageId pid) const {
  PageMeta m = MetaGet(pid);
  return PageDebugInfo{std::move(m.flash_chain), m.base_dirty};
}

void BwTree::MarkChainDead(const std::vector<uint64_t>& chain) {
  if (options_.log_store == nullptr) return;
  for (uint64_t packed : chain) {
    options_.log_store->MarkDead(FlashAddress::FromPacked(packed));
  }
}

// ---------------------------------------------------------------------
// Descent
// ---------------------------------------------------------------------

PageId BwTree::DescendToLeaf(const Slice& key, std::vector<PageId>* path) {
  epochs_.AssertActive();
  if (path != nullptr) path->clear();
  PageId pid = root_pid_.load(std::memory_order_acquire);
  for (;;) {
    uint64_t w = table_.Get(pid);
    if (w == 0) {
      // Freed page under our feet (concurrent restructure); restart.
      pid = root_pid_.load(std::memory_order_acquire);
      if (path != nullptr) path->clear();
      continue;
    }
    if (IsFlashWord(w)) return pid;  // only leaves are ever on flash
    Node* head = DecodePointer(w);
    if (head->type == NodeType::kRemoveNode) {
      // Page merged away: its contents live in the left sibling now.
      pid = static_cast<RemoveNodeDelta*>(head)->left_pid;
      continue;
    }
    if (head->type != NodeType::kInnerBase) {
      // Leaf chain. Follow leaf-level B-link fences when the chain
      // exposes them: a just-split page may not be reflected in its
      // parent yet, and hopping right (rather than re-descending)
      // guarantees progress.
      const PageId right_sib = RightOfFence(head, key);
      if (right_sib == kInvalidPageId) return pid;
      pid = right_sib;
      continue;
    }
    auto* inner = static_cast<InnerBase*>(head);
    // NOTE: inner-level B-link hops are deliberately NOT taken. Inner
    // fences go stale when merges detach subtrees, while leaf-level
    // fences are always maintained (split installs, merge deltas); a
    // descent through a stale parent is corrected by the leaf hop below.
    size_t idx = NodeUpperBound(inner->seps, inner->search, key);
    if (path != nullptr) path->push_back(pid);
    pid = inner->children[idx];
    // Hide part of the child mapping-entry miss behind the loop overhead.
    table_.Prefetch(pid);
  }
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

bool BwTree::SearchResidentChain(Node* head, const Slice& key, bool* found,
                                 std::string* value) const {
  epochs_.AssertActive();
  // First pass over deltas with timestamp awareness: collect the winning
  // delta op for this key, if any.
  bool have_delta = false;
  VersionedOp best{};
  for (Node* n = head; n != nullptr; n = n->next) {
    // Delta-chain walk: overlap the next node's miss with this node's
    // key compare.
    if (n->next != nullptr) simd::PrefetchRead(n->next);
    switch (n->type) {
      case NodeType::kInsertDelta: {
        auto* d = static_cast<InsertDelta*>(n);
        if (Slice(d->key) == key) {
          if (!have_delta || d->timestamp > best.timestamp) {
            best = VersionedOp{false, d->value, d->timestamp, true};
            have_delta = true;
          }
        }
        break;
      }
      case NodeType::kDeleteDelta: {
        auto* d = static_cast<DeleteDelta*>(n);
        if (Slice(d->key) == key) {
          if (!have_delta || d->timestamp > best.timestamp) {
            best = VersionedOp{true, "", d->timestamp, true};
            have_delta = true;
          }
        }
        break;
      }
      case NodeType::kLeafBase: {
        if (have_delta) {
          *found = !best.is_delete;
          if (*found) *value = best.value;
          return true;
        }
        auto* base = static_cast<LeafBase*>(n);
        const size_t li = NodeLowerBound(base->keys, base->search, key);
        if (li < base->keys.size() && Slice(base->keys[li]) == key) {
          *found = true;
          *value = base->values[li];
        } else {
          *found = false;
        }
        return true;
      }
      case NodeType::kFlashPointer: {
        if (have_delta) {
          // Record-cache hit: answered without touching flash.
          *found = !best.is_delete;
          if (*found) *value = best.value;
          return true;
        }
        return false;  // need the base
      }
      case NodeType::kMergeDelta: {
        // Keys at/after the absorbed range's low fence live in the
        // absorbed base; deltas above this node (already scanned) are
        // newer and win.
        auto* m = static_cast<MergeDelta*>(n);
        if (key.compare(Slice(m->sep)) >= 0) {
          if (have_delta) {
            *found = !best.is_delete;
            if (*found) *value = best.value;
            return true;
          }
          const size_t ri = NodeLowerBound(m->right_base->keys,
                                           m->right_base->search, key);
          if (ri < m->right_base->keys.size() &&
              Slice(m->right_base->keys[ri]) == key) {
            *found = true;
            *value = m->right_base->values[ri];
          } else {
            *found = false;
          }
          return true;
        }
        break;  // key is in the original left range: keep walking down
      }
      case NodeType::kRemoveNode:
        // Searching a merged-away page directly: caller must redirect.
        return false;
      case NodeType::kInnerBase:
        // Shouldn't happen on a leaf chain.
        *found = false;
        return true;
    }
  }
  *found = false;
  return true;
}

// Forced inline into both read paths: as a call it slowed the single
// probe measurably (bench/index_probe).
[[gnu::always_inline]] inline bool BwTree::AnswerFromLeaf(
    PageId pid, Node* head, const Slice& key, std::string* value,
    const OpContext& ctx, std::vector<PageId>* path, OpStatCell& cell,
    Status* status) {
  bool found = false;
  if (!SearchResidentChain(head, key, &found, value)) return false;
  CacheTouch(pid);
  if (ChainTail(head)->type == NodeType::kFlashPointer) {
    // Answered by an in-memory delta over an evicted base: a record-cache
    // hit whether the answer was found or deleted.
    Bump(cell.rc_hits);
  }
  if (ctx.flash_reads > 0) {
    Bump(cell.ss);
    opclass::Publish(OpClass::kSs);
  } else {
    Bump(cell.mm);
    opclass::Publish(OpClass::kMm);
  }
  // Only take the consolidation path when the chain just searched is long
  // enough; MaybeConsolidate re-reads the mapping entry, and that extra
  // load is wasted on the common short-chain read.
  if (head->chain_length >= options_.consolidate_threshold) {
    MaybeConsolidate(pid, path);
  }
  *status = found ? Status::Ok() : Status::NotFound();
  return true;
}

Result<std::string> BwTree::Get(const Slice& key) {
  std::string value;
  Status s = Get(key, &value);
  if (!s.ok()) return s;
  return value;
}

Status BwTree::Get(const Slice& key, std::string* value_out) {
  OpStatCell& cell = StatCell();
  Bump(cell.gets);
  OpContext ctx;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    EpochGuard guard(&epochs_);
    // Reused per thread: descent repopulates it and no two ops on one
    // thread are ever mid-descent at once (SMO helpers build their own
    // parent paths).
    thread_local std::vector<PageId> path;
    PageId pid = DescendToLeaf(key, &path);
    uint64_t w = table_.Get(pid);
    if (w == 0) continue;

    if (!IsFlashWord(w)) {
      Node* head = DecodePointer(w);
      if (head->type == NodeType::kRemoveNode) continue;  // re-descend
      if (const PageId sib = RightOfFence(head, key); sib != kInvalidPageId) {
        // Mid-split: the key moved right.
        pid = sib;
        w = table_.Get(pid);
        if (w == 0 || IsFlashWord(w)) continue;
        head = DecodePointer(w);
        if (head->type == NodeType::kRemoveNode) continue;
      }
      Status s;
      if (AnswerFromLeaf(pid, head, key, value_out, ctx, &path, cell, &s)) {
        return s;
      }
    }

    // Base on flash: load it (this is an SS operation), then re-read the
    // entry.
    Status s = LoadAndInstall(pid, w, &ctx);
    if (!s.ok() && !s.IsAborted()) return s;
  }
  return Status::Internal("Get retry budget exhausted");
}

// ---------------------------------------------------------------------
// Batched reads (AMAC interleaving)
// ---------------------------------------------------------------------

// One lane of the batch machine. A probe moves kResolve -> kInspect per
// descent level: kResolve turns the pid into a mapping word and
// prefetches the decoded node; kInspect dereferences it (now likely a
// cache hit), takes one hop — remove-node redirect, inner child pick,
// B-link fence hop — or searches the leaf chain and finishes. The flash
// (SS) paths stay synchronous: they are I/O-bound, not miss-bound, and
// re-descend afterwards exactly like Get's attempt loop.
struct BwTree::BatchProbe {
  enum class St : uint8_t { kResolve, kInspect, kDone };

  Slice key;
  std::string* value = nullptr;
  Status* status = nullptr;
  St st = St::kResolve;
  PageId pid = kInvalidPageId;
  uint64_t word = 0;
  Node* head = nullptr;
  int restarts = 0;  // full re-descents; same 1000 budget as Get
  OpContext ctx;
  std::vector<PageId> path;  // inner path for split posting
};

void BwTree::StepProbe(BatchProbe* p, OpStatCell& cell) {
  auto finish = [p](Status s) {
    *p->status = s;
    p->st = BatchProbe::St::kDone;
  };
  // Full restart from the root, mirroring one iteration of Get's
  // attempt loop (LoadAndInstall rounds and races consume budget; hops
  // within a descent do not).
  auto restart = [this, p, &finish]() {
    if (++p->restarts >= 1000) {
      finish(Status::Internal("Get retry budget exhausted"));
      return;
    }
    p->pid = root_pid_.load(std::memory_order_acquire);
    p->path.clear();
    p->st = BatchProbe::St::kResolve;
  };

  switch (p->st) {
    case BatchProbe::St::kResolve: {
      p->word = table_.Get(p->pid);
      if (p->word == 0) {
        // Freed page under our feet (concurrent restructure).
        restart();
        return;
      }
      if (IsFlashWord(p->word)) {
        // Leaf on flash: synchronous SS load, then re-descend.
        Status s = LoadAndInstall(p->pid, p->word, &p->ctx);
        if (!s.ok() && !s.IsAborted()) {
          finish(s);
          return;
        }
        restart();
        return;
      }
      p->head = DecodePointer(p->word);
      simd::PrefetchRead(p->head);
      p->st = BatchProbe::St::kInspect;
      return;
    }

    case BatchProbe::St::kInspect: {
      Node* head = p->head;
      if (head->type == NodeType::kRemoveNode) {
        // Page merged away: its contents live in the left sibling now.
        p->pid = static_cast<RemoveNodeDelta*>(head)->left_pid;
        table_.Prefetch(p->pid);
        p->st = BatchProbe::St::kResolve;
        return;
      }
      if (head->type == NodeType::kInnerBase) {
        auto* inner = static_cast<InnerBase*>(head);
        // Inner B-link hops are deliberately not taken; see
        // DescendToLeaf.
        const size_t idx = NodeUpperBound(inner->seps, inner->search,
                                          p->key);
        p->path.push_back(p->pid);
        p->pid = inner->children[idx];
        table_.Prefetch(p->pid);
        p->st = BatchProbe::St::kResolve;
        return;
      }
      // Leaf chain. Follow the leaf-level fence when the key moved
      // right past a mid-split page.
      if (const PageId sib = RightOfFence(head, p->key);
          sib != kInvalidPageId) {
        p->pid = sib;
        table_.Prefetch(p->pid);
        p->st = BatchProbe::St::kResolve;
        return;
      }
      if (AnswerFromLeaf(p->pid, head, p->key, p->value, p->ctx, &p->path,
                         cell, p->status)) {
        p->st = BatchProbe::St::kDone;
        return;
      }
      // Base needed but on flash: load it (SS), then re-descend.
      Status s = LoadAndInstall(p->pid, p->word, &p->ctx);
      if (!s.ok() && !s.IsAborted()) {
        finish(s);
        return;
      }
      restart();
      return;
    }

    case BatchProbe::St::kDone:
      return;
  }
}

void BwTree::MultiGetBatch(BatchGetOp* ops, size_t count, size_t interleave) {
  if (count == 0) return;
  if (interleave == 0) interleave = options_.batch_interleave;
  if (interleave == 0) interleave = 1;
  OpStatCell& cell = StatCell();
  // Lane state is reused across calls (cleared, not freed), like the
  // thread-local descent path in Get.
  thread_local std::vector<BatchProbe> lanes;
  if (lanes.size() < interleave) lanes.resize(interleave);

  for (size_t base = 0; base < count; base += interleave) {
    const size_t n = std::min<size_t>(interleave, count - base);
    // One guard per interleave group: probes carry decoded node
    // pointers across quanta (the guard keeps them from being
    // reclaimed), and one Enter/Exit amortizes the epoch reservation
    // over the whole group instead of paying it per key.
    EpochGuard guard(&epochs_);
    for (size_t i = 0; i < n; ++i) {
      BatchProbe& p = lanes[i];
      p.key = ops[base + i].key;
      p.value = ops[base + i].value;
      p.status = ops[base + i].status;
      p.st = BatchProbe::St::kResolve;
      p.pid = root_pid_.load(std::memory_order_acquire);
      p.word = 0;
      p.head = nullptr;
      p.restarts = 0;
      p.ctx = OpContext{};
      p.path.clear();
      Bump(cell.gets);
      table_.Prefetch(p.pid);
    }
    size_t live = n;
    while (live > 0) {
      for (size_t i = 0; i < n; ++i) {
        BatchProbe& p = lanes[i];
        if (p.st == BatchProbe::St::kDone) continue;
        StepProbe(&p, cell);
        if (p.st == BatchProbe::St::kDone) --live;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Writes (blind)
// ---------------------------------------------------------------------

Status BwTree::Put(const Slice& key, const Slice& value, uint64_t timestamp) {
  auto* delta = new InsertDelta();
  delta->key = key.ToString();
  delta->value = value.ToString();
  delta->timestamp = timestamp;
  return PostDelta(key, delta);
}

Status BwTree::Delete(const Slice& key, uint64_t timestamp) {
  auto* delta = new DeleteDelta();
  delta->key = key.ToString();
  delta->timestamp = timestamp;
  return PostDelta(key, delta);
}

Status BwTree::PostDelta(const Slice& key, Node* delta) {
  const bool is_put = delta->type == NodeType::kInsertDelta;
  OpStatCell& cell = StatCell();
  Bump(is_put ? cell.puts : cell.deletes);

  for (int attempt = 0; attempt < 1000; ++attempt) {
    EpochGuard guard(&epochs_);
    // Reused per thread: descent repopulates it and no two ops on one
    // thread are ever mid-descent at once (SMO helpers build their own
    // parent paths).
    thread_local std::vector<PageId> path;
    PageId pid = DescendToLeaf(key, &path);
    uint64_t w = table_.Get(pid);
    if (w == 0) continue;

    FlashPointer* fresh_tail = nullptr;  // ours until the CAS publishes it
    Node* head = nullptr;
    bool blind = true;
    if (IsFlashWord(w)) {
      // Fully evicted page: materialize a FlashPointer tail so the delta
      // can be prepended without any I/O (§6.2 blind update).
      fresh_tail = new FlashPointer();
      fresh_tail->addr = DecodeFlash(w);
      head = fresh_tail;
    } else {
      head = DecodePointer(w);
      if (head->type == NodeType::kRemoveNode) continue;  // page merged away
      Node* tail = ChainTail(head);
      if (tail->type == NodeType::kInnerBase) continue;  // raced restructure
      // Stale leaf (the key moved right past a split): re-descend.
      if (RightOfFence(head, key) != kInvalidPageId) continue;
      blind = tail->type == NodeType::kFlashPointer;
    }

    delta->next = head;
    delta->chain_length = head->chain_length + 1;
    if (table_.Cas(pid, w, EncodePointer(delta))) {
      if (blind) Bump(cell.blind);
      Bump(cell.mm);
      opclass::Publish(OpClass::kMm);
      MetaMarkDirty(pid);
      if (fresh_tail != nullptr) {
        // Insert: the page re-enters the cache (a CSS entry promotes).
        CacheInsertOrResize(pid, delta);
        return Status::Ok();
      }
      if (options_.cache != nullptr) {
        options_.cache->Resize(pid, ChainBytes(delta));
      }
      CacheTouch(pid);
      MaybeConsolidate(pid, &path);
      return Status::Ok();
    }
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    delta->next = nullptr;
    delete fresh_tail;
  }
  FreeChain(delta);
  return Status::Internal(is_put ? "Put retry budget exhausted"
                                 : "Delete retry budget exhausted");
}

// ---------------------------------------------------------------------
// Consolidation & splits
// ---------------------------------------------------------------------

LeafBase* BwTree::ConsolidateChain(Node* head) const {
  epochs_.AssertActive();
  // The chain must end in a LeafBase.
  const Node* tail = ChainTail(head);
  if (tail->type != NodeType::kLeafBase) return nullptr;
  const auto* base = static_cast<const LeafBase*>(tail);

  // Collect winning delta ops (newest wins / highest timestamp) and any
  // merge deltas (newest first in encounter order).
  std::map<std::string, VersionedOp> view;
  std::vector<const MergeDelta*> merges;
  for (const Node* n = head; n != tail; n = n->next) {
    if (n->type == NodeType::kInsertDelta) {
      const auto* d = static_cast<const InsertDelta*>(n);
      ApplyNewestWins(&view, d->key, false, d->value, d->timestamp);
    } else if (n->type == NodeType::kDeleteDelta) {
      const auto* d = static_cast<const DeleteDelta*>(n);
      ApplyNewestWins(&view, d->key, true, "", d->timestamp);
    } else if (n->type == NodeType::kMergeDelta) {
      merges.push_back(static_cast<const MergeDelta*>(n));
    } else if (n->type == NodeType::kRemoveNode) {
      return nullptr;  // merged-away page: nothing to consolidate here
    }
  }

  auto* fresh = new LeafBase();
  // The newest (topmost) merge delta carries the combined fences.
  if (!merges.empty()) {
    fresh->high_key = merges.front()->high_key;
    fresh->right_sibling = merges.front()->right_sibling;
  } else {
    fresh->high_key = base->high_key;
    fresh->right_sibling = base->right_sibling;
  }

  // Base record run: the original base followed by each absorbed base in
  // merge order (oldest merge first) — disjoint ascending key ranges, so
  // concatenation stays sorted.
  std::vector<const LeafBase*> bases;
  bases.push_back(base);
  for (auto it = merges.rbegin(); it != merges.rend(); ++it) {
    bases.push_back((*it)->right_base);
  }

  size_t total = view.size();
  for (const auto* b : bases) total += b->keys.size();
  fresh->keys.reserve(total);
  fresh->values.reserve(total);

  // Merge the concatenated sorted base run with the sorted delta view.
  size_t which = 0, bi = 0;
  auto advance_base = [&]() -> const LeafBase* {
    while (which < bases.size() && bi >= bases[which]->keys.size()) {
      ++which;
      bi = 0;
    }
    return which < bases.size() ? bases[which] : nullptr;
  };
  auto vit = view.begin();
  for (;;) {
    const LeafBase* cur = advance_base();
    if (cur == nullptr && vit == view.end()) break;
    bool take_delta;
    if (cur == nullptr) {
      take_delta = true;
    } else if (vit == view.end()) {
      take_delta = false;
    } else {
      int c = Slice(vit->first).compare(Slice(cur->keys[bi]));
      if (c == 0) {
        // Delta supersedes the base record.
        if (!vit->second.is_delete) {
          fresh->keys.push_back(vit->first);
          fresh->values.push_back(vit->second.value);
        }
        ++bi;
        ++vit;
        continue;
      }
      take_delta = c < 0;
    }
    if (take_delta) {
      if (!vit->second.is_delete) {
        fresh->keys.push_back(vit->first);
        fresh->values.push_back(vit->second.value);
      }
      ++vit;
    } else {
      fresh->keys.push_back(cur->keys[bi]);
      fresh->values.push_back(cur->values[bi]);
      ++bi;
    }
  }
  fresh->search.Build(fresh->keys);
  return fresh;
}

bool BwTree::MaybeConsolidate(PageId pid, std::vector<PageId>* path) {
  uint64_t w = table_.Get(pid);
  if (w == 0 || IsFlashWord(w)) return false;
  Node* head = DecodePointer(w);
  if (head->chain_length < options_.consolidate_threshold) return false;
  Node* tail = ChainTail(head);
  if (tail->type != NodeType::kLeafBase) return false;  // flash tail: rc

  LeafBase* fresh = ConsolidateChain(head);
  if (fresh == nullptr) return false;
  // Content changed relative to flash if any delta was merged.
  bool merged_deltas = head != tail;

  if (fresh->PayloadBytes() > options_.max_page_bytes &&
      fresh->keys.size() >= 2) {
    SplitLeaf(pid, w, fresh, path);
    return true;
  }

  if (CasWithMeta(pid, w, EncodePointer(fresh), [&](PageMeta& m) {
        if (merged_deltas) m.base_dirty = true;
      })) {
    s_consolidations_.fetch_add(1, std::memory_order_relaxed);
    RetireChain(head);
    if (options_.cache != nullptr) {
      options_.cache->Resize(pid, ChainBytes(fresh));
    }
    return true;
  }
  s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
  delete fresh;
  return false;
}

void BwTree::SplitLeaf(PageId pid, uint64_t expected_word,
                       LeafBase* consolidated, std::vector<PageId>* path) {
  // Split the consolidated image in half by payload bytes.
  const size_t n = consolidated->keys.size();
  uint64_t total = consolidated->PayloadBytes();
  uint64_t acc = 0;
  size_t split_at = n / 2;
  for (size_t i = 0; i < n; ++i) {
    acc += consolidated->keys[i].size() + consolidated->values[i].size();
    if (acc >= total / 2) {
      split_at = i + 1;
      break;
    }
  }
  if (split_at == 0) split_at = 1;
  if (split_at >= n) split_at = n - 1;

  auto* right = new LeafBase();
  right->keys.assign(consolidated->keys.begin() + split_at,
                     consolidated->keys.end());
  right->values.assign(consolidated->values.begin() + split_at,
                       consolidated->values.end());
  right->high_key = consolidated->high_key;
  right->right_sibling = consolidated->right_sibling;
  right->search.Build(right->keys);
  const std::string sep = right->keys.front();

  // `right` stays private until the link CAS below resolves.
  PageId right_pid = PublishUnderConstruction(right);
  if (right_pid == kInvalidPageId) {
    delete right;
    delete consolidated;
    return;  // mapping table full; operate unsplit
  }

  auto* left = new LeafBase();
  left->keys.assign(consolidated->keys.begin(),
                    consolidated->keys.begin() + split_at);
  left->values.assign(consolidated->values.begin(),
                      consolidated->values.begin() + split_at);
  left->high_key = sep;
  left->right_sibling = right_pid;
  left->search.Build(left->keys);
  delete consolidated;

  // The left half must reflect exactly the chain we consolidated; CAS
  // against the observed word so concurrent deltas are never lost.
  Node* old_head = DecodePointer(expected_word);
  if (CasWithMeta(pid, expected_word, EncodePointer(left),
                  [](PageMeta& m) { m.base_dirty = true; })) {
    s_consolidations_.fetch_add(1, std::memory_order_relaxed);
    s_leaf_splits_.fetch_add(1, std::memory_order_relaxed);
    MetaMarkDirty(right_pid);
    FinishConstruction(right_pid);
    RetireChain(old_head);
    if (options_.cache != nullptr) {
      options_.cache->Resize(pid, ChainBytes(left));
      options_.cache->Insert(right_pid, ChainBytes(right));
    }
    PostSplitToParent(pid, sep, right_pid, path);
  } else {
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    delete left;
    AbandonConstruction(right_pid, right);
  }
}

void BwTree::PostSplitToParent(PageId left_pid, const std::string& sep,
                               PageId right_pid, std::vector<PageId>* path) {
  // Locate the parent: prefer the recorded path, and fall back to a
  // search once the check below finds it stale.
  bool use_path = path != nullptr && !path->empty();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    PageId parent =
        use_path ? path->back() : FindParentOf(left_pid, Slice(sep));

    if (parent == kInvalidPageId) {
      // left is the root: grow the tree.
      auto* new_root = new InnerBase();
      new_root->seps.push_back(sep);
      new_root->children.push_back(left_pid);
      new_root->children.push_back(right_pid);
      new_root->search.Build(new_root->seps);
      // Under construction until the root CAS lands: FindParentOf's slot
      // scan must not adopt a root that may be taken back.
      PageId new_root_pid = PublishUnderConstruction(new_root);
      if (new_root_pid == kInvalidPageId) {
        delete new_root;
        return;
      }
      PageId expected = left_pid;
      if (root_pid_.compare_exchange_strong(expected, new_root_pid,
                                            std::memory_order_acq_rel)) {
        s_root_splits_.fetch_add(1, std::memory_order_relaxed);
        FinishConstruction(new_root_pid);
        return;
      }
      // Someone else changed the root; retry the post.
      AbandonConstruction(new_root_pid, new_root);
      continue;
    }

    // The node the CAS below replaces must list left_pid: the parent may
    // have split since it was found, moving left to its right half.
    uint64_t w = table_.Get(parent);
    Node* head = w != 0 && !IsFlashWord(w) ? DecodePointer(w) : nullptr;
    auto* inner = head != nullptr && head->type == NodeType::kInnerBase
                      ? static_cast<InnerBase*>(head)
                      : nullptr;
    if (inner == nullptr ||
        std::find(inner->children.begin(), inner->children.end(),
                  left_pid) == inner->children.end()) {
      use_path = false;
      continue;
    }

    // Idempotence: another thread may have posted the same split.
    if (std::find(inner->children.begin(), inner->children.end(),
                  right_pid) != inner->children.end()) {
      return;
    }

    auto* fresh = new InnerBase(*inner);
    fresh->next = nullptr;
    size_t idx = std::lower_bound(fresh->seps.begin(), fresh->seps.end(),
                                  sep) -
                 fresh->seps.begin();
    fresh->seps.insert(fresh->seps.begin() + idx, sep);
    fresh->children.insert(fresh->children.begin() + idx + 1, right_pid);
    // The copy above reset the search index; rebuild over the final seps.
    fresh->search.Build(fresh->seps);

    if (fresh->children.size() > options_.max_inner_children) {
      if (table_.Cas(parent, w, EncodePointer(fresh))) {
        RetireChain(head);
        SplitInner(parent, fresh, path);
        return;
      }
      s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
      delete fresh;
      continue;
    }

    if (table_.Cas(parent, w, EncodePointer(fresh))) {
      RetireChain(head);
      return;
    }
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    delete fresh;
  }
}

void BwTree::SplitInner(PageId pid, InnerBase* inner,
                        std::vector<PageId>* path) {
  // `inner` is the installed (immutable from now) oversized node.
  const size_t n = inner->seps.size();
  const size_t mid = n / 2;
  const std::string up_sep = inner->seps[mid];

  auto* right = new InnerBase();
  right->seps.assign(inner->seps.begin() + mid + 1, inner->seps.end());
  right->children.assign(inner->children.begin() + mid + 1,
                         inner->children.end());
  right->high_key = inner->high_key;
  right->right_sibling = inner->right_sibling;
  right->search.Build(right->seps);
  // Under construction until the CAS below links it, as in SplitLeaf.
  PageId right_pid = PublishUnderConstruction(right);
  if (right_pid == kInvalidPageId) {
    delete right;
    return;
  }

  auto* left = new InnerBase();
  left->seps.assign(inner->seps.begin(), inner->seps.begin() + mid);
  left->children.assign(inner->children.begin(),
                        inner->children.begin() + mid + 1);
  left->high_key = up_sep;
  left->right_sibling = right_pid;
  left->search.Build(left->seps);

  if (table_.Cas(pid, EncodePointer(inner), EncodePointer(left))) {
    s_inner_splits_.fetch_add(1, std::memory_order_relaxed);
    FinishConstruction(right_pid);
    RetireChain(inner);
    // Pop the path element for this level if it matches.
    std::vector<PageId> parent_path;
    if (path != nullptr && !path->empty() && path->back() == pid) {
      parent_path.assign(path->begin(), path->end() - 1);
    }
    PostSplitToParent(pid, up_sep, right_pid, &parent_path);
  } else {
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    delete left;
    AbandonConstruction(right_pid, right);
  }
}

PageId BwTree::FindParentOf(PageId child_pid, const Slice& toward_key) {
  PageId pid = root_pid_.load(std::memory_order_acquire);
  if (pid == child_pid) return kInvalidPageId;
  for (int depth = 0; depth < 64; ++depth) {
    uint64_t w = table_.Get(pid);
    if (w == 0 || IsFlashWord(w)) break;
    Node* head = DecodePointer(w);
    if (head->type != NodeType::kInnerBase) break;
    auto* inner = static_cast<InnerBase*>(head);
    if (std::find(inner->children.begin(), inner->children.end(),
                  child_pid) != inner->children.end()) {
      return pid;
    }
    size_t idx = std::upper_bound(inner->seps.begin(), inner->seps.end(),
                                  toward_key.ToString()) -
                 inner->seps.begin();
    pid = inner->children[idx];
  }
  // Key-guided descent can miss the parent after merge re-routing (the
  // child's old range now routes elsewhere). Fall back to an exhaustive
  // scan — maintenance-path cost only; correctness must not depend on
  // key routing here.
  PageId hw = table_.high_water();
  for (PageId p = 0; p < hw; ++p) {
    uint64_t w = table_.Get(p);
    if (w == 0 || IsFlashWord(w)) continue;
    Node* head = DecodePointer(w);
    if (head->type != NodeType::kInnerBase) continue;
    auto* inner = static_cast<InnerBase*>(head);
    // Checked after the slot read, as in HousekeepingScan: a node an SMO
    // may still take back is never adopted as a parent.
    if (std::find(inner->children.begin(), inner->children.end(),
                  child_pid) != inner->children.end() &&
        !IsUnderConstruction(p)) {
      return p;
    }
  }
  return kInvalidPageId;
}

// ---------------------------------------------------------------------
// Paging: load
// ---------------------------------------------------------------------

Status BwTree::RetryIo(const std::function<Status()>& fn) {
  RetryStats rs;
  Status s = RetryTransient(options_.io_retry, fn, &rs,
                            retry_salt_.fetch_add(1,
                                                  std::memory_order_relaxed));
  s_io_retries_.fetch_add(rs.retries, std::memory_order_relaxed);
  if (rs.gave_up) s_io_give_ups_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Result<FlashAddress> BwTree::RetryAppend(PageId pid, const Slice& image) {
  Result<FlashAddress> out = Status::Internal("append never ran");
  Status s = RetryIo([&]() {
    out = options_.log_store->Append(pid, image);
    return out.status();
  });
  if (!s.ok()) return s;
  return out;
}

Result<FlashAddress> BwTree::RetryAppendCompressed(PageId pid,
                                                   const Slice& compressed,
                                                   uint32_t raw_len) {
  Result<FlashAddress> out = Status::Internal("append never ran");
  Status s = RetryIo([&]() {
    out = options_.log_store->AppendCompressed(pid, compressed, raw_len);
    return out.status();
  });
  if (!s.ok()) return s;
  return out;
}

Status BwTree::MaterializeFromFlash(FlashAddress addr, LeafBase* leaf,
                                    OpContext* ctx) {
  if (options_.log_store == nullptr) {
    return Status::FailedPrecondition("no log store configured");
  }
  // Collect the image chain newest-first, then apply oldest-first.
  std::vector<std::string> images;
  FlashAddress cur = addr;
  while (cur.valid()) {
    std::string image;
    bool was_compressed = false;
    Status s = RetryIo([&]() {
      return options_.log_store->Read(cur, &image, nullptr, &was_compressed);
    });
    if (!s.ok()) return s;
    ctx->flash_reads++;
    s_flash_reads_.fetch_add(1, std::memory_order_relaxed);
    // CSS-tier record: the log store already decompressed it; this op
    // paid decompress CPU instead of the larger SS transfer.
    if (was_compressed) ctx->compressed_reads++;
    uint8_t kind = 0;
    Status ks = PageCodec::PeekKind(Slice(image), &kind);
    if (!ks.ok()) return ks;
    images.push_back(std::move(image));
    if (kind == PageCodec::kFullLeaf) break;
    FlashAddress prev;
    std::vector<DeltaOp> ops;
    Status ds = PageCodec::DecodeDeltaPage(Slice(images.back()), &prev, &ops);
    if (!ds.ok()) return ds;
    cur = prev;
    if (images.size() > 64) {
      return Status::Corruption("flash delta chain too long");
    }
  }
  if (images.empty()) return Status::Corruption("empty flash chain");

  // Oldest image is the full leaf.
  Status s = PageCodec::DecodeLeaf(Slice(images.back()), leaf);
  if (!s.ok()) return s;
  // Apply delta pages oldest -> newest.
  for (size_t i = images.size() - 1; i-- > 0;) {
    FlashAddress prev;
    std::vector<DeltaOp> ops;
    s = PageCodec::DecodeDeltaPage(Slice(images[i]), &prev, &ops);
    if (!s.ok()) return s;
    for (const auto& op : ops) {
      auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(),
                                 op.key);
      size_t idx = it - leaf->keys.begin();
      bool match = it != leaf->keys.end() && *it == op.key;
      if (op.kind == DeltaOp::kInsert) {
        if (match) {
          leaf->values[idx] = op.value;
        } else {
          leaf->keys.insert(it, op.key);
          leaf->values.insert(leaf->values.begin() + idx, op.value);
        }
      } else {
        if (match) {
          leaf->keys.erase(it);
          leaf->values.erase(leaf->values.begin() + idx);
        }
      }
    }
  }
  return Status::Ok();
}

Status BwTree::LoadAndInstall(PageId pid, uint64_t entry_word,
                              OpContext* ctx) {
  epochs_.AssertActive();
  FlashAddress addr;
  Node* old_head = nullptr;
  if (IsFlashWord(entry_word)) {
    addr = DecodeFlash(entry_word);
  } else {
    old_head = DecodePointer(entry_word);
    Node* tail = ChainTail(old_head);
    if (tail->type != NodeType::kFlashPointer) {
      return Status::Ok();  // already resident
    }
    addr = static_cast<FlashPointer*>(tail)->addr;
  }

  auto leaf = std::make_unique<LeafBase>();
  const uint32_t pre_compressed = ctx->compressed_reads;
  Status s = MaterializeFromFlash(addr, leaf.get(), ctx);
  if (!s.ok()) {
    if (s.IsCorruption() && table_.Get(pid) != entry_word) {
      // The mapping word moved while we were reading: GC relocated the
      // record (and may already have trimmed the victim segment, so the
      // bytes we read were reclaimed media, not damage) or a concurrent
      // flush/load replaced the chain. Retry against the new word.
      s_read_relocation_retries_.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted("page relocated during load");
    }
    return s;
  }
  const bool from_css = ctx->compressed_reads > pre_compressed;

  bool had_memory_deltas = false;
  if (old_head != nullptr) {
    // Merge in-memory deltas over the loaded base: build a temporary
    // chain view [deltas..., loaded base] and consolidate it.
    Node* tail = ChainTail(old_head);
    if (old_head != tail) {
      had_memory_deltas = true;
      // Temporarily relink a copy? Instead, run consolidation manually:
      // reuse ConsolidateChain by splicing: create a shallow walker.
      // Simplest correct approach: apply the same newest-wins merge here.
      std::map<std::string, VersionedOp> view;
      for (Node* n = old_head; n != tail; n = n->next) {
        if (n->type == NodeType::kInsertDelta) {
          auto* d = static_cast<InsertDelta*>(n);
          ApplyNewestWins(&view, d->key, false, d->value, d->timestamp);
        } else if (n->type == NodeType::kDeleteDelta) {
          auto* d = static_cast<DeleteDelta*>(n);
          ApplyNewestWins(&view, d->key, true, "", d->timestamp);
        }
      }
      for (auto& [key, op] : view) {
        auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
        size_t idx = it - leaf->keys.begin();
        bool match = it != leaf->keys.end() && *it == key;
        if (!op.is_delete) {
          if (match) {
            leaf->values[idx] = op.value;
          } else {
            leaf->keys.insert(it, key);
            leaf->values.insert(leaf->values.begin() + idx, op.value);
          }
        } else if (match) {
          leaf->keys.erase(it);
          leaf->values.erase(leaf->values.begin() + idx);
        }
      }
    }
  }

  LeafBase* fresh = leaf.release();
  fresh->search.Build(fresh->keys);
  if (CasWithMeta(pid, entry_word, EncodePointer(fresh),
                  [&](PageMeta& m) { m.base_dirty = had_memory_deltas; })) {
    s_loads_.fetch_add(1, std::memory_order_relaxed);
    // The install counts as a CSS hit when the base image came back from
    // a compressed record: the tier answered instead of plain SS. The
    // cache manager's Insert below doubles as the CSS -> DRAM promotion
    // when it was tracking this page in the compressed tier.
    if (from_css) s_css_hits_.fetch_add(1, std::memory_order_relaxed);
    if (old_head != nullptr) RetireChain(old_head);
    CacheInsertOrResize(pid, fresh);
    return Status::Ok();
  }
  s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
  delete fresh;
  return Status::Aborted("page changed during load");
}

Status BwTree::LoadPage(PageId pid) {
  EpochGuard guard(&epochs_);
  OpContext ctx;
  for (int attempt = 0; attempt < 100; ++attempt) {
    uint64_t w = table_.Get(pid);
    if (w == 0) return Status::NotFound("no such page");
    if (!IsFlashWord(w)) {
      Node* tail = ChainTail(DecodePointer(w));
      if (tail->type != NodeType::kFlashPointer) return Status::Ok();
    }
    Status s = LoadAndInstall(pid, w, &ctx);
    if (s.ok()) return s;
    if (!s.IsAborted()) return s;
  }
  return Status::Internal("LoadPage retry budget exhausted");
}

// ---------------------------------------------------------------------
// Paging: flush & evict
// ---------------------------------------------------------------------

Status BwTree::EnsureSplitSiblingDurable(PageId sib) {
  if (sib == kInvalidPageId) return Status::Ok();
  uint64_t sw = table_.Get(sib);
  if (sw == 0 || IsFlashWord(sw)) return Status::Ok();
  if (!MetaGet(sib).flash_chain.empty()) return Status::Ok();
  // Never durable: flush it now (recursing down a run of fresh splits via
  // FlushPage's own sibling check). Aborted means a concurrent writer
  // won the CAS — retry; the chain still needs a durable image.
  Status s;
  for (int attempt = 0; attempt < 100; ++attempt) {
    s = FlushPage(sib, FlushMode::kFullPage);
    if (!s.IsAborted()) break;
  }
  return s;
}

Status BwTree::FlushPage(PageId pid, FlushMode mode) {
  if (options_.log_store == nullptr) {
    return Status::FailedPrecondition("no log store configured");
  }
  EpochGuard guard(&epochs_);
  uint64_t w = table_.Get(pid);
  if (w == 0) return Status::NotFound("no such page");
  if (IsFlashWord(w)) return Status::Ok();  // evicted == clean on flash

  Node* head = DecodePointer(w);
  if (head->type == NodeType::kRemoveNode) {
    return Status::Ok();  // merged away; the left sibling owns the data
  }
  Node* tail = ChainTail(head);
  if (tail->type == NodeType::kInnerBase) {
    return Status::InvalidArgument("inner pages are not flushed");
  }

  PageMeta meta = MetaGet(pid);

  if (tail->type == NodeType::kFlashPointer) {
    // Base already on flash; only in-memory deltas may be dirty.
    if (head == tail) return Status::Ok();  // nothing in memory but the ptr
    if (mode == FlushMode::kDeltaOnly && !ChainHasSmoDeltas(head)) {
      // Serialize in-memory deltas as an incremental delta page.
      auto* fp = static_cast<FlashPointer*>(tail);
      std::vector<DeltaOp> ops;
      // Chain is newest-first; the codec applies ops in array order, so
      // emit oldest-first.
      std::vector<const Node*> nodes;
      for (const Node* n = head; n != tail; n = n->next) nodes.push_back(n);
      for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        const Node* n = *it;
        DeltaOp op;
        if (n->type == NodeType::kInsertDelta) {
          const auto* d = static_cast<const InsertDelta*>(n);
          op.kind = DeltaOp::kInsert;
          op.key = d->key;
          op.value = d->value;
          op.timestamp = d->timestamp;
        } else {
          const auto* d = static_cast<const DeleteDelta*>(n);
          op.kind = DeltaOp::kDelete;
          op.key = d->key;
          op.timestamp = d->timestamp;
        }
        ops.push_back(std::move(op));
      }
      std::string image;
      PageCodec::EncodeDeltaPage(fp->addr, ops, &image);
      auto addr = RetryAppend(pid, Slice(image));
      if (!addr.ok()) {
        if (addr.status().code() == StatusCode::kInvalidArgument) {
          // The accumulated delta spine no longer fits in one log
          // segment; no delta flush can ever succeed again. Materialize
          // the base and take the full-page path, which splits
          // oversized pages instead of wedging.
          OpContext ctx;
          Status ls = LoadAndInstall(pid, w, &ctx);
          if (!ls.ok() && !ls.IsAborted()) return ls;
          return FlushPage(pid, FlushMode::kFullPage);
        }
        return addr.status();
      }

      auto* new_fp = new FlashPointer();
      new_fp->addr = *addr;
      new_fp->fences_known = fp->fences_known;
      new_fp->high_key = fp->high_key;
      new_fp->right_sibling = fp->right_sibling;
      if (CasWithMeta(pid, w, EncodePointer(new_fp), [&](PageMeta& m) {
            m.flash_chain.insert(m.flash_chain.begin(), addr->packed());
          })) {
        s_delta_flushes_.fetch_add(1, std::memory_order_relaxed);
        s_bytes_flushed_.fetch_add(image.size(), std::memory_order_relaxed);
        RetireChain(head);
        if (options_.cache != nullptr) {
          options_.cache->Resize(pid, ChainBytes(new_fp));
        }
        return Status::Ok();
      }
      s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
      delete new_fp;
      options_.log_store->MarkDead(*addr);
      return Status::Aborted("page changed during delta flush");
    }
    // Full flush of a flash-tailed chain: load, then fall through by
    // retrying (the resident path below handles it).
    OpContext ctx;
    Status s = LoadAndInstall(pid, w, &ctx);
    if (!s.ok() && !s.IsAborted()) return s;
    return FlushPage(pid, mode);
  }

  // Resident base.
  bool has_deltas = head != tail;
  if (!has_deltas && !meta.base_dirty && !meta.flash_chain.empty()) {
    return Status::Ok();  // clean
  }

  LeafBase* fresh = ConsolidateChain(head);
  if (fresh == nullptr) return Status::Internal("consolidation failed");
  {
    Status ss = EnsureSplitSiblingDurable(fresh->right_sibling);
    if (!ss.ok()) {
      delete fresh;
      return ss;
    }
  }
  std::string image;
  PageCodec::EncodeLeaf(*fresh, &image);
  auto addr = RetryAppend(pid, Slice(image));
  if (!addr.ok()) {
    if (addr.status().code() == StatusCode::kInvalidArgument &&
        fresh->keys.size() >= 2) {
      // Image too large for one log segment: no flush or eviction of
      // this page can ever succeed again, and repeated flushes reset
      // chain_length to 1 so the consolidate-threshold split check
      // cannot save it either (a background flush cadence that outpaces
      // delta arrival grows a monolithic base without bound). Split now
      // — the halves fit — and let the caller retry. SplitLeaf owns
      // `fresh` on both of its outcomes.
      SplitLeaf(pid, w, fresh, nullptr);
      return Status::Aborted("page split during flush");
    }
    delete fresh;
    return addr.status();
  }
  if (CasWithMeta(pid, w, EncodePointer(fresh), [&](PageMeta& m) {
        m.flash_chain = {addr->packed()};
        m.base_dirty = false;
      })) {
    s_full_flushes_.fetch_add(1, std::memory_order_relaxed);
    s_bytes_flushed_.fetch_add(image.size(), std::memory_order_relaxed);
    if (head != fresh) RetireChain(head);
    MarkChainDead(meta.flash_chain);
    if (options_.cache != nullptr) {
      options_.cache->Resize(pid, ChainBytes(fresh));
    }
    return Status::Ok();
  }
  s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
  delete fresh;
  options_.log_store->MarkDead(*addr);
  return Status::Aborted("page changed during flush");
}

Status BwTree::EvictPage(PageId pid, EvictMode mode) {
  if (options_.log_store == nullptr) {
    return Status::FailedPrecondition("no log store configured");
  }
  EpochGuard guard(&epochs_);
  for (int attempt = 0; attempt < 100; ++attempt) {
    uint64_t w = table_.Get(pid);
    if (w == 0) return Status::NotFound("no such page");
    if (IsFlashWord(w)) return Status::Ok();  // already evicted

    Node* head = DecodePointer(w);
    Node* tail = ChainTail(head);
    if (tail->type == NodeType::kInnerBase) {
      return Status::InvalidArgument("inner pages are not evicted");
    }

    if (head->type == NodeType::kRemoveNode) return Status::Ok();

    if (mode == EvictMode::kKeepDeltas && !ChainHasSmoDeltas(head)) {
      // Record-cache eviction: drop the base page, keep the delta spine.
      if (tail->type == NodeType::kFlashPointer) return Status::Ok();
      auto* base = static_cast<LeafBase*>(tail);
      PageMeta meta = MetaGet(pid);
      const bool write_base = meta.base_dirty || meta.flash_chain.empty();
      FlashAddress base_addr;
      if (write_base) {
        // Base content not on flash: write the base image (without
        // deltas, which stay in memory).
        Status ss = EnsureSplitSiblingDurable(base->right_sibling);
        if (!ss.ok()) return ss;
        std::string image;
        PageCodec::EncodeLeaf(*base, &image);
        auto addr = RetryAppend(pid, Slice(image));
        if (!addr.ok()) return addr.status();
        s_bytes_flushed_.fetch_add(image.size(), std::memory_order_relaxed);
        base_addr = *addr;
      } else {
        base_addr = FlashAddress::FromPacked(meta.flash_chain.front());
      }

      // Rebuild the delta spine over a FlashPointer tail.
      auto* fp = new FlashPointer();
      fp->addr = base_addr;
      fp->fences_known = true;
      fp->high_key = base->high_key;
      fp->right_sibling = base->right_sibling;

      Node* new_head = fp;
      // Copy deltas (immutable, so clone values) preserving order:
      // iterate newest-first, build by appending clones from oldest.
      std::vector<const Node*> nodes;
      for (const Node* n = head; n != tail; n = n->next) nodes.push_back(n);
      for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        const Node* n = *it;
        Node* clone = nullptr;
        if (n->type == NodeType::kInsertDelta) {
          auto* c = new InsertDelta(*static_cast<const InsertDelta*>(n));
          clone = c;
        } else {
          auto* c = new DeleteDelta(*static_cast<const DeleteDelta*>(n));
          clone = c;
        }
        clone->next = new_head;
        clone->chain_length = new_head->chain_length + 1;
        new_head = clone;
      }

      if (CasWithMeta(pid, w, EncodePointer(new_head), [&](PageMeta& m) {
            if (!write_base) return;
            m.flash_chain = {base_addr.packed()};
            m.base_dirty = false;
          })) {
        s_rc_evictions_.fetch_add(1, std::memory_order_relaxed);
        RetireChain(head);
        if (write_base) MarkChainDead(meta.flash_chain);
        if (options_.cache != nullptr) {
          options_.cache->Resize(pid, ChainBytes(new_head));
        }
        return Status::Ok();
      }
      s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
      FreeChain(new_head);
      continue;
    }

    // Full eviction: flush dirty state, then swing the entry to flash.
    if (IsDirty(pid)) {
      Status s = FlushPage(pid, FlushMode::kFullPage);
      if (!s.ok() && !s.IsAborted()) return s;
      continue;  // re-read the (now clean) entry
    }
    PageMeta meta = MetaGet(pid);
    if (meta.flash_chain.empty()) {
      // Clean but never flushed can only be an empty fresh page; flush it.
      Status s = FlushPage(pid, FlushMode::kFullPage);
      if (!s.ok() && !s.IsAborted()) return s;
      continue;
    }
    FlashAddress newest = FlashAddress::FromPacked(meta.flash_chain.front());
    if (table_.Cas(pid, w, EncodeFlash(newest))) {
      s_full_evictions_.fetch_add(1, std::memory_order_relaxed);
      RetireChain(head);
      if (options_.cache != nullptr) options_.cache->Erase(pid);
      return Status::Ok();
    }
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Aborted("EvictPage kept racing writers");
}

Status BwTree::DemotePage(PageId pid, const CssPolicy& policy,
                          DemoteResult* out) {
  if (options_.log_store == nullptr) {
    return Status::FailedPrecondition("no log store configured");
  }
  DemoteResult local;
  DemoteResult* res = out != nullptr ? out : &local;
  *res = DemoteResult{};

  EpochGuard guard(&epochs_);
  uint64_t w = table_.Get(pid);
  if (w == 0) return Status::NotFound("no such page");
  if (IsFlashWord(w)) return Status::Ok();  // already non-resident

  Node* head = DecodePointer(w);
  if (head->type == NodeType::kRemoveNode) return Status::Ok();
  Node* tail = ChainTail(head);
  if (tail->type == NodeType::kInnerBase) {
    return Status::InvalidArgument("inner pages are not demoted");
  }
  if (tail->type == NodeType::kFlashPointer) {
    // Record-cache form: the base is already on flash. Plain eviction
    // owns this shape; demotion only compresses resident bases.
    return Status::FailedPrecondition("page base not resident");
  }

  // Anti-thrash refusal: a page that keeps getting promoted back out of
  // CSS pays decompress_r on every reheat — past the policy limit the
  // tier is a measured loss for it (Fig. 8's argument in reverse).
  if (options_.cache != nullptr &&
      options_.cache->ReheatCount(pid) > policy.max_reheats) {
    s_css_refusals_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition("page reheats too often for CSS");
  }

  LeafBase* fresh = ConsolidateChain(head);
  if (fresh == nullptr) return Status::Internal("consolidation failed");
  Status ss = EnsureSplitSiblingDurable(fresh->right_sibling);
  if (!ss.ok()) {
    delete fresh;
    return ss;
  }

  std::string image;
  PageCodec::EncodeLeaf(*fresh, &image);
  std::string compressed;
  compression::CompressInfo info;
  // One Compress call both produces the stored image and measures the
  // ratio the policy gates on.
  compression::Compressor::Compress(Slice(image), &compressed, &info);
  res->raw_bytes = info.raw_size;
  res->stored_bytes = info.compressed_size;
  if (info.ratio() > policy.min_ratio) {
    delete fresh;
    s_css_refusals_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition("compression ratio above threshold");
  }

  auto addr = RetryAppendCompressed(pid, Slice(compressed),
                                    static_cast<uint32_t>(image.size()));
  if (!addr.ok()) {
    delete fresh;
    return addr.status();
  }

  PageMeta meta = MetaGet(pid);
  // Flush and eviction in one step: swing the mapping word straight to
  // the new record's flash address.
  if (CasWithMeta(pid, w, EncodeFlash(*addr), [&](PageMeta& m) {
        m.flash_chain = {addr->packed()};
        m.base_dirty = false;
      })) {
    s_css_demotions_.fetch_add(1, std::memory_order_relaxed);
    s_css_raw_demoted_.fetch_add(info.raw_size, std::memory_order_relaxed);
    s_css_stored_demoted_.fetch_add(info.compressed_size,
                                    std::memory_order_relaxed);
    s_bytes_flushed_.fetch_add(compressed.size(), std::memory_order_relaxed);
    RetireChain(head);
    delete fresh;  // never installed; only its encoding reached the log
    MarkChainDead(meta.flash_chain);
    if (options_.cache != nullptr) {
      options_.cache->SetTier(pid, llama::CacheTier::kCss,
                              compressed.size());
    }
    res->demoted = true;
    return Status::Ok();
  }
  s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
  delete fresh;
  options_.log_store->MarkDead(*addr);
  return Status::Aborted("page changed during demotion");
}

Status BwTree::FlushAll() {
  // Flush right-to-left. A split's new sibling always sits to the right
  // of its source page, so the sibling's image reaches the log before the
  // source's post-split re-image. Recovery adopts a byte prefix of a torn
  // checkpoint, so any prefix containing the source's re-image (which no
  // longer holds the moved keys) also contains the sibling image that
  // does — a salvage rebuild of the torn state stays lossless.
  std::vector<PageId> leaves = LeafPageIds();
  for (auto it = leaves.rbegin(); it != leaves.rend(); ++it) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      Status s = FlushPage(*it, FlushMode::kFullPage);
      if (s.ok()) break;
      if (!s.IsAborted()) return s;
    }
  }
  return options_.log_store != nullptr
             ? RetryIo([&]() { return options_.log_store->Flush(); })
             : Status::Ok();
}

// ---------------------------------------------------------------------
// Scans & page walks
// ---------------------------------------------------------------------

Status BwTree::Scan(const Slice& start, size_t limit,
                    std::vector<std::pair<std::string, std::string>>* out,
                    const Slice& end) {
  s_scans_.fetch_add(1, std::memory_order_relaxed);
  // Escalating publish: kSs sticks if any page load below reads flash.
  opclass::Publish(OpClass::kMm);
  out->clear();
  if (limit == 0) return Status::Ok();

  std::string cursor = start.ToString();
  PageId pid = kInvalidPageId;
  for (int hops = 0; hops < 1 << 20; ++hops) {
    EpochGuard guard(&epochs_);
    if (pid == kInvalidPageId) pid = DescendToLeaf(Slice(cursor), nullptr);
    uint64_t w = table_.Get(pid);
    if (w == 0) {
      pid = kInvalidPageId;
      continue;
    }
    if (IsFlashWord(w) ||
        ChainTail(DecodePointer(w))->type != NodeType::kLeafBase) {
      OpContext ctx;
      Status s = LoadAndInstall(pid, w, &ctx);
      if (ctx.flash_reads > 0) opclass::Publish(OpClass::kSs);
      if (!s.ok() && !s.IsAborted()) return s;
      continue;
    }
    Node* head = DecodePointer(w);
    std::unique_ptr<LeafBase> view;
    LeafBase* leaf = nullptr;
    if (head->type == NodeType::kLeafBase) {
      leaf = static_cast<LeafBase*>(head);
    } else {
      view.reset(ConsolidateChain(head));
      if (view == nullptr) {
        pid = kInvalidPageId;
        continue;
      }
      leaf = view.get();
    }
    CacheTouch(pid);

    auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), cursor);
    for (; it != leaf->keys.end(); ++it) {
      if (!end.empty() && Slice(*it).compare(end) >= 0) return Status::Ok();
      out->emplace_back(*it, leaf->values[it - leaf->keys.begin()]);
      if (out->size() >= limit) return Status::Ok();
    }
    if (leaf->right_sibling == kInvalidPageId) return Status::Ok();
    // Continue from the sibling; its keys are >= high_key.
    if (!leaf->high_key.empty()) cursor = leaf->high_key;
    pid = leaf->right_sibling;
  }
  return Status::Internal("Scan hop budget exhausted");
}

Result<PageId> BwTree::LeafOf(const Slice& key) {
  EpochGuard guard(&epochs_);
  return DescendToLeaf(key, nullptr);
}

std::vector<PageId> BwTree::LeafPageIds() {
  std::vector<PageId> out;
  EpochGuard guard(&epochs_);
  PageId pid = DescendToLeaf(Slice(""), nullptr);
  int guard_hops = 0;
  while (pid != kInvalidPageId && guard_hops++ < (1 << 22)) {
    out.push_back(pid);
    uint64_t w = table_.Get(pid);
    if (w == 0) break;
    PageId next = kInvalidPageId;
    if (IsFlashWord(w)) {
      // Fences unknown without I/O; load to continue the walk.
      OpContext ctx;
      if (!LoadAndInstall(pid, w, &ctx).ok()) break;
      out.pop_back();
      continue;  // revisit
    }
    Node* head = DecodePointer(w);
    const std::string* high_key = nullptr;
    PageId sib = kInvalidPageId;
    if (ChainFences(head, &high_key, &sib)) {
      next = sib;
    } else if (ChainTail(head)->type == NodeType::kFlashPointer) {
      OpContext ctx;
      if (!LoadAndInstall(pid, w, &ctx).ok()) break;
      out.pop_back();
      continue;
    }
    pid = next;
  }
  return out;
}

bool BwTree::IsLeafResident(PageId pid) const {
  // Self-guarding: callable off the op path (tests, resident_leaves).
  // A concurrent consolidation may retire the chain between the word
  // read and the tail walk; the guard must cover both. Guarded callers
  // (EvictPage, HousekeepingScan) just re-enter — a TLS depth bump.
  EpochGuard guard(&epochs_);
  uint64_t w = table_.Get(pid);
  if (w == 0 || IsFlashWord(w)) return false;
  const Node* tail = ChainTail(DecodePointer(w));
  return tail->type == NodeType::kLeafBase;
}

bool BwTree::IsDirty(PageId pid) const {
  EpochGuard guard(&epochs_);  // self-guarding, as IsLeafResident
  uint64_t w = table_.Get(pid);
  if (w == 0 || IsFlashWord(w)) return false;
  const Node* head = DecodePointer(w);
  const Node* tail = ChainTail(head);
  if (head != tail) return true;  // deltas present
  PageMeta meta = MetaGet(pid);
  if (tail->type == NodeType::kLeafBase) {
    return meta.base_dirty || meta.flash_chain.empty();
  }
  return false;
}

// ---------------------------------------------------------------------
// Page merges (remove-node / merge-delta SMO)
// ---------------------------------------------------------------------

Status BwTree::TryMergeRight(PageId left_pid) {
  EpochGuard guard(&epochs_);

  // Both pages must be resident single bases (consolidate on demand).
  auto resolve_base = [&](PageId pid, uint64_t* word) -> LeafBase* {
    uint64_t w = table_.Get(pid);
    if (w == 0 || IsFlashWord(w)) return nullptr;
    Node* head = DecodePointer(w);
    if (head->type != NodeType::kLeafBase) {
      if (head->type == NodeType::kInnerBase ||
          head->type == NodeType::kRemoveNode) {
        return nullptr;
      }
      MaybeConsolidateForced(pid);
      w = table_.Get(pid);
      if (w == 0 || IsFlashWord(w)) return nullptr;
      head = DecodePointer(w);
      if (head->type != NodeType::kLeafBase) return nullptr;
    }
    *word = w;
    return static_cast<LeafBase*>(head);
  };

  uint64_t left_word = 0;
  LeafBase* left = resolve_base(left_pid, &left_word);
  if (left == nullptr) {
    return Status::FailedPrecondition("left page not mergeable");
  }
  PageId right_pid = left->right_sibling;
  if (right_pid == kInvalidPageId) {
    return Status::FailedPrecondition("no right sibling");
  }
  uint64_t right_word = 0;
  LeafBase* right = resolve_base(right_pid, &right_word);
  if (right == nullptr) {
    return Status::FailedPrecondition("right page not mergeable");
  }
  if (left->PayloadBytes() + right->PayloadBytes() >
      options_.max_page_bytes) {
    return Status::FailedPrecondition("combined page would be oversized");
  }

  // Step 1: mark the right page removed. From here every operation that
  // lands on it redirects to the left sibling.
  auto* remove = new RemoveNodeDelta();
  remove->left_pid = left_pid;
  remove->next = right;
  remove->chain_length = 1;
  if (!table_.Cas(right_pid, right_word, EncodePointer(remove))) {
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    remove->next = nullptr;
    delete remove;
    return Status::Aborted("right page changed");
  }

  // Step 2: extend the left page over the removed range. The merge delta
  // takes ownership of the removed page's chain.
  auto* merge = new MergeDelta();
  merge->sep = left->high_key;  // left's old high key == right's low fence
  merge->right_base = right;
  merge->right_chain = remove;
  merge->right_pid = right_pid;
  merge->high_key = right->high_key;
  merge->right_sibling = right->right_sibling;
  merge->next = left;
  merge->chain_length = 1;
  if (!table_.Cas(left_pid, left_word, EncodePointer(merge))) {
    // Roll back: restore the right page and drop the SMO nodes.
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    table_.Cas(right_pid, EncodePointer(remove), EncodePointer(right));
    merge->right_chain = nullptr;
    merge->next = nullptr;
    delete merge;
    remove->next = nullptr;
    RetireNode(remove);  // readers may have seen it
    return Status::Aborted("left page changed");
  }
  s_leaf_merges_.fetch_add(1, std::memory_order_relaxed);
  MetaMarkDirty(left_pid);

  // Step 3: detach the right page id. Readers holding stale parents may
  // still look it up, so the id is recycled only after an epoch passes.
  table_.Set(right_pid, 0);
  PageMeta right_meta = MetaGet(right_pid);
  MarkChainDead(right_meta.flash_chain);
  MetaSetChain(right_pid, {}, false);
  if (options_.cache != nullptr) options_.cache->Erase(right_pid);
  epochs_.Retire([this, right_pid] { table_.Free(right_pid); });

  // Step 4: drop the separator from the parent.
  Status s = RemoveChildFromParent(right_pid, Slice(merge->sep));
  if (!s.ok()) return s;

  // Step 5: fold the merge delta away eagerly (best effort — the generic
  // consolidation path handles it otherwise).
  MaybeConsolidateForced(left_pid);
  if (options_.cache != nullptr) {
    uint64_t w = table_.Get(left_pid);
    if (w != 0 && !IsFlashWord(w)) {
      options_.cache->Resize(left_pid, ChainBytes(DecodePointer(w)));
    }
  }
  return Status::Ok();
}

void BwTree::MaybeConsolidateForced(PageId pid) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    uint64_t w = table_.Get(pid);
    if (w == 0 || IsFlashWord(w)) return;
    Node* head = DecodePointer(w);
    if (head->type == NodeType::kLeafBase ||
        head->type == NodeType::kInnerBase ||
        head->type == NodeType::kRemoveNode) {
      return;
    }
    if (ChainTail(head)->type != NodeType::kLeafBase) return;
    LeafBase* fresh = ConsolidateChain(head);
    if (fresh == nullptr) return;
    bool merged_deltas = head->next != nullptr || head != ChainTail(head);
    if (CasWithMeta(pid, w, EncodePointer(fresh), [&](PageMeta& m) {
          if (merged_deltas) m.base_dirty = true;
        })) {
      s_consolidations_.fetch_add(1, std::memory_order_relaxed);
      RetireChain(head);
      if (options_.cache != nullptr) {
        options_.cache->Resize(pid, ChainBytes(fresh));
      }
      return;
    }
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    delete fresh;
  }
}

Status BwTree::RemoveChildFromParent(PageId child_pid,
                                     const Slice& toward_key) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    PageId parent = FindParentOf(child_pid, toward_key);
    if (parent == kInvalidPageId) {
      return Status::Ok();  // already detached (or child was the root)
    }
    uint64_t w = table_.Get(parent);
    if (w == 0 || IsFlashWord(w)) continue;
    Node* head = DecodePointer(w);
    if (head->type != NodeType::kInnerBase) continue;
    auto* inner = static_cast<InnerBase*>(head);

    auto cit = std::find(inner->children.begin(), inner->children.end(),
                         child_pid);
    if (cit == inner->children.end()) return Status::Ok();
    size_t idx = cit - inner->children.begin();

    if (inner->children.size() == 1) {
      if (parent == root_pid_.load(std::memory_order_acquire)) {
        // The root losing its only child would empty the tree, which a
        // merge can never legitimately cause.
        return Status::Internal("root underflow during merge");
      }
      // Removing the parent's only child empties it: detach the parent
      // from the grandparent first (so descents stop routing through
      // it), then release the node. Order matters — clearing the entry
      // first would strand descents on a dead pointer.
      Status s = RemoveChildFromParent(parent, toward_key);
      if (!s.ok()) return s;
      uint64_t pw = table_.Get(parent);
      if (pw != 0 && !IsFlashWord(pw) && table_.Cas(parent, pw, 0)) {
        RetireChain(DecodePointer(pw));
        PageId doomed = parent;
        epochs_.Retire([this, doomed] { table_.Free(doomed); });
      }
      // The child itself still needs detaching if anything else pointed
      // at it; by construction nothing does. Done.
      return Status::Ok();
    }

    if (idx == 0) {
      // The removed child's low boundary is a separator in some ancestor
      // (between the left-neighbor subtree and this parent's subtree).
      // Widen the left subtree first — replace that separator with this
      // parent's first separator — so the removed range routes left
      // BEFORE the child disappears from this parent. Readers hitting
      // the stale child meanwhile follow its RemoveNode redirect.
      Status s = ReplaceBoundarySep(toward_key, Slice(inner->seps[0]));
      if (!s.ok()) return s;
    }

    auto* fresh = new InnerBase(*inner);
    fresh->next = nullptr;
    fresh->children.erase(fresh->children.begin() + idx);
    // The separator to drop: seps[idx-1] separates child idx-1 from idx;
    // for idx == 0 the (already re-routed) range's old first separator
    // goes.
    fresh->seps.erase(fresh->seps.begin() + (idx == 0 ? 0 : idx - 1));
    fresh->search.Build(fresh->seps);

    if (table_.Cas(parent, w, EncodePointer(fresh))) {
      RetireChain(head);
      // Root collapse: a root with one child hands the crown down.
      if (fresh->children.size() == 1 &&
          parent == root_pid_.load(std::memory_order_acquire)) {
        PageId only_child = fresh->children[0];
        PageId expected = parent;
        if (root_pid_.compare_exchange_strong(expected, only_child,
                                              std::memory_order_acq_rel)) {
          s_root_collapses_.fetch_add(1, std::memory_order_relaxed);
          uint64_t pw = table_.Get(parent);
          if (pw != 0 && !IsFlashWord(pw) &&
              table_.Cas(parent, pw, 0)) {
            RetireChain(DecodePointer(pw));
            epochs_.Retire([this, parent] { table_.Free(parent); });
          }
        }
      }
      return Status::Ok();
    }
    s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
    delete fresh;
  }
  return Status::Aborted("parent update kept racing");
}

Status BwTree::ReplaceBoundarySep(const Slice& old_sep,
                                  const Slice& new_sep) {
  // Separator values are unique across the tree, so descend toward
  // old_sep and rewrite the inner that holds it.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    PageId pid = root_pid_.load(std::memory_order_acquire);
    bool replaced = false;
    bool restart = false;
    for (int depth = 0; depth < 64; ++depth) {
      uint64_t w = table_.Get(pid);
      if (w == 0 || IsFlashWord(w)) {
        restart = true;
        break;
      }
      Node* head = DecodePointer(w);
      if (head->type != NodeType::kInnerBase) break;  // reached leaves
      auto* inner = static_cast<InnerBase*>(head);
      size_t idx = std::upper_bound(inner->seps.begin(), inner->seps.end(),
                                    old_sep.ToString()) -
                   inner->seps.begin();
      if (idx >= 1 && Slice(inner->seps[idx - 1]) == old_sep) {
        auto* fresh = new InnerBase(*inner);
        fresh->next = nullptr;
        fresh->seps[idx - 1] = new_sep.ToString();
        fresh->search.Build(fresh->seps);
        if (table_.Cas(pid, w, EncodePointer(fresh))) {
          RetireChain(head);
          replaced = true;
        } else {
          s_cas_failures_.fetch_add(1, std::memory_order_relaxed);
          delete fresh;
          restart = true;
        }
        break;
      }
      pid = inner->children[idx];
    }
    if (replaced) return Status::Ok();
    if (!restart) {
      // No ancestor holds the boundary: the removed range was the
      // leftmost of the tree, which merges never produce.
      return Status::Internal("boundary separator not found");
    }
  }
  return Status::Aborted("boundary replacement kept racing");
}

size_t BwTree::MergeUnderfullLeaves(double fill_target) {
  const uint64_t threshold =
      static_cast<uint64_t>(options_.max_page_bytes * fill_target);
  size_t merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (PageId pid : LeafPageIds()) {
      // The sizing walk below dereferences both leaves' chains; without
      // a guard a concurrent consolidation could retire either one
      // under us (use-after-reclaim on this maintenance path). Entered
      // before the word read so the reservation covers it.
      EpochGuard guard(&epochs_);
      uint64_t w = table_.Get(pid);
      if (w == 0 || IsFlashWord(w)) continue;
      Node* head = DecodePointer(w);
      if (head->type != NodeType::kLeafBase) {
        MaybeConsolidateForced(pid);
        w = table_.Get(pid);
        if (w == 0 || IsFlashWord(w)) continue;
        head = DecodePointer(w);
        if (head->type != NodeType::kLeafBase) continue;
      }
      auto* base = static_cast<LeafBase*>(head);
      if (base->right_sibling == kInvalidPageId) continue;
      uint64_t rw = table_.Get(base->right_sibling);
      if (rw == 0 || IsFlashWord(rw)) continue;
      Node* rhead = DecodePointer(rw);
      if (rhead->type != NodeType::kLeafBase) {
        MaybeConsolidateForced(base->right_sibling);
        rw = table_.Get(base->right_sibling);
        if (rw == 0 || IsFlashWord(rw)) continue;
        rhead = DecodePointer(rw);
        if (rhead->type != NodeType::kLeafBase) continue;
      }
      auto* rbase = static_cast<LeafBase*>(rhead);
      if (base->PayloadBytes() + rbase->PayloadBytes() > threshold) {
        continue;
      }
      if (TryMergeRight(pid).ok()) {
        ++merges;
        progress = true;
        break;  // the leaf list changed; rescan
      }
    }
  }
  return merges;
}

bool BwTree::IsUnderConstruction(PageId pid) const {
  MutexLock lk(&construction_mu_);
  return under_construction_.count(pid) != 0;
}

PageId BwTree::PublishUnderConstruction(Node* node) {
  // The slot first holds an inert placeholder, then the pid is
  // registered, then the real node goes in: scanners skip placeholders
  // by type and registered pids by lookup.
  auto* placeholder = new RemoveNodeDelta();
  PageId pid = table_.Allocate(EncodePointer(placeholder));
  if (pid == kInvalidPageId) {
    delete placeholder;
    return kInvalidPageId;
  }
  {
    MutexLock lk(&construction_mu_);
    under_construction_.insert(pid);
  }
  table_.Set(pid, EncodePointer(node));
  // A scanner may already hold the placeholder pointer; epoch-retire it.
  RetireChain(placeholder);
  return pid;
}

void BwTree::FinishConstruction(PageId pid) {
  MutexLock lk(&construction_mu_);
  under_construction_.erase(pid);
}

void BwTree::AbandonConstruction(PageId pid, Node* node) {
  // Clear the slot first (a scanner re-reading it sees "no page"), and
  // epoch-retire the node (a scanner inside an epoch may still hold the
  // pointer — never plain delete a published node). Unregister only
  // then, so the pid stops being skipped once its slot is empty, and
  // free the id last: freed first, it could be reallocated and
  // registered by another SMO whose registration this erase would drop.
  table_.Set(pid, 0);
  RetireChain(node);
  FinishConstruction(pid);
  table_.Free(pid);
}

BwTree::HousekeepingStats BwTree::HousekeepingScan(PageId* cursor,
                                                   size_t scan_pages,
                                                   size_t max_flushes) {
  HousekeepingStats out;
  const PageId high = table_.high_water();
  if (high == 0 || (scan_pages == 0 && max_flushes == 0)) return out;
  PageId pos = *cursor >= high ? 0 : *cursor;
  const size_t slots = std::min<size_t>(std::max<size_t>(scan_pages, 1), high);
  for (size_t i = 0; i < slots; ++i) {
    const PageId pid = pos;
    pos = pos + 1 < high ? pos + 1 : 0;
    EpochGuard guard(&epochs_);
    uint64_t w = table_.Get(pid);
    if (w == 0 || IsFlashWord(w)) continue;
    // Checked after the slot read: a split registers the pid before it
    // installs the real node, so any slot word we act on is either from
    // a registered (skipped) construction or a fully linked page.
    if (IsUnderConstruction(pid)) continue;
    Node* head = DecodePointer(w);
    if (head->type == NodeType::kRemoveNode) continue;
    if (ChainTail(head)->type == NodeType::kInnerBase) continue;
    out.scanned++;
    if (head->chain_length >= options_.consolidate_threshold) {
      // No descent path on this thread; PostSplitToParent falls back to
      // FindParentOf when the path is empty.
      std::vector<PageId> path;
      if (MaybeConsolidate(pid, &path)) out.consolidated++;
    }
    if (out.flushed < max_flushes && IsDirty(pid)) {
      Status s = FlushPage(pid, FlushMode::kFullPage);
      if (s.ok()) {
        out.flushed++;
      } else if (!s.IsAborted() && !out.flush_error) {
        // Aborted = raced a writer (retried on a later pass). Anything
        // else is an I/O problem the caller's health tracking wants.
        out.flush_error = true;
        out.first_error = s;
      }
    }
  }
  *cursor = pos;
  return out;
}

// ---------------------------------------------------------------------
// Restart recovery
// ---------------------------------------------------------------------

void BwTree::DiscardResidentState() {
  epochs_.ReclaimAll();
  for (PageId pid = 0; pid < table_.high_water(); ++pid) {
    uint64_t w = table_.Get(pid);
    if (w != 0 && !IsFlashWord(w)) {
      FreeChain(DecodePointer(w));
      if (options_.cache != nullptr) options_.cache->Erase(pid);
    }
  }
  table_.Reset();
  {
    MutexLock lk(&meta_mu_);
    meta_.clear();
  }
}

Status BwTree::RecoverFromStore() {
  if (options_.log_store == nullptr) {
    return Status::FailedPrecondition("no log store configured");
  }

  // 0. Discard current in-memory state (normally just the bootstrap
  //    empty root leaf).
  DiscardResidentState();

  // 1. Scan the device: newest record per page wins; remember every
  //    visited record so stale ones can be marked dead for GC.
  struct Recovered {
    FlashAddress addr;
    std::string image;
  };
  std::map<PageId, Recovered> latest;
  std::vector<std::pair<PageId, FlashAddress>> visited;
  Status s = options_.log_store->Recover(
      [&](PageId pid, FlashAddress addr, const Slice& image) {
        visited.emplace_back(pid, addr);
        latest[pid] = Recovered{addr, image.ToString()};
      });
  if (!s.ok()) return s;

  if (latest.empty()) {
    // Empty store: restore the bootstrap empty root.
    auto* root = new LeafBase();
    PageId pid = table_.Allocate(EncodePointer(root));
    root_pid_.store(pid, std::memory_order_release);
    CacheInsertOrResize(pid, root);
    return Status::Ok();
  }

  // Steps 2-4 assume the on-media fence chain is a consistent snapshot.
  // A crash between a split SMO's page flushes breaks that (the new right
  // sibling is durable, the parent-side images are not, or vice versa);
  // any structural Corruption below falls back to the salvage rebuild.
  auto fast_path = [&]() -> Status {
  // 2. Restore mapping entries and flash-chain metadata. The newest image
  //    may be a delta page; its back-pointer chain members are live too.
  for (auto& [pid, rec] : latest) {
    if (!table_.AllocateExact(pid, EncodeFlash(rec.addr))) {
      return Status::Internal("page id collision during recovery");
    }
    std::vector<uint64_t> chain;
    chain.push_back(rec.addr.packed());
    std::string image = rec.image;
    uint8_t kind = 0;
    Status ks = PageCodec::PeekKind(Slice(image), &kind);
    if (!ks.ok()) return ks;
    while (kind == PageCodec::kDeltaPage) {
      FlashAddress prev;
      std::vector<DeltaOp> ops;
      Status ds = PageCodec::DecodeDeltaPage(Slice(image), &prev, &ops);
      if (!ds.ok()) return ds;
      chain.push_back(prev.packed());
      Status rs =
          RetryIo([&]() { return options_.log_store->Read(prev, &image); });
      if (!rs.ok()) return rs;
      ks = PageCodec::PeekKind(Slice(image), &kind);
      if (!ks.ok()) return ks;
      if (chain.size() > 64) {
        return Status::Corruption("flash chain too long during recovery");
      }
    }
    MetaSetChain(pid, std::move(chain), /*dirty=*/false);
  }

  // 3. Reconstruct the leaf order from fences. The leftmost leaf is the
  //    one no other leaf points at through right_sibling.
  std::map<PageId, std::pair<std::string, PageId>> fences;  // high, right
  std::set<PageId> pointed_at;
  for (auto& [pid, rec] : latest) {
    // Fences live in the base (full) image at the chain tail.
    PageMeta meta = MetaGet(pid);
    std::string base_image;
    if (meta.flash_chain.size() == 1) {
      base_image = rec.image;
    } else {
      Status rs = RetryIo([&]() {
        return options_.log_store->Read(
            FlashAddress::FromPacked(meta.flash_chain.back()), &base_image);
      });
      if (!rs.ok()) return rs;
    }
    LeafBase leaf;
    Status ds = PageCodec::DecodeLeaf(Slice(base_image), &leaf);
    if (!ds.ok()) return ds;
    fences[pid] = {leaf.high_key, leaf.right_sibling};
    if (leaf.right_sibling != kInvalidPageId) {
      pointed_at.insert(leaf.right_sibling);
    }
  }
  PageId head = kInvalidPageId;
  for (auto& [pid, f] : fences) {
    if (pointed_at.count(pid) == 0) {
      if (head != kInvalidPageId) {
        return Status::Corruption("multiple leaf chain heads in recovery");
      }
      head = pid;
    }
  }
  if (head == kInvalidPageId) {
    return Status::Corruption("no leaf chain head found in recovery");
  }

  std::vector<PageId> leaves;
  std::vector<std::string> seps;  // between consecutive leaves
  PageId cur = head;
  while (cur != kInvalidPageId) {
    auto it = fences.find(cur);
    if (it == fences.end()) {
      return Status::Corruption("broken sibling chain in recovery");
    }
    leaves.push_back(cur);
    if (it->second.second != kInvalidPageId) {
      seps.push_back(it->second.first);  // high key == next leaf's low key
    }
    cur = it->second.second;
    if (leaves.size() > latest.size()) {
      return Status::Corruption("sibling cycle in recovery");
    }
  }
  if (leaves.size() != latest.size()) {
    return Status::Corruption("unreachable leaves in recovery");
  }

  // 4. Bulk-build the inner index bottom-up.
  if (leaves.size() == 1) {
    root_pid_.store(leaves[0], std::memory_order_release);
    return Status::Ok();
  }
  std::vector<PageId> level = leaves;
  std::vector<std::string> level_seps = seps;
  const size_t fanout = options_.max_inner_children;
  while (level.size() > 1) {
    std::vector<PageId> parents;
    std::vector<std::string> parent_seps;
    size_t i = 0;
    while (i < level.size()) {
      size_t take = std::min(fanout, level.size() - i);
      // Avoid leaving a lone child for the final parent.
      if (level.size() - i - take == 1) take -= 1;
      auto* inner = new InnerBase();
      for (size_t c = 0; c < take; ++c) {
        inner->children.push_back(level[i + c]);
        if (c + 1 < take) inner->seps.push_back(level_seps[i + c]);
      }
      inner->search.Build(inner->seps);
      PageId ipid = table_.Allocate(EncodePointer(inner));
      if (ipid == kInvalidPageId) {
        delete inner;
        return Status::ResourceExhausted("mapping table full in recovery");
      }
      if (i + take < level.size()) {
        inner->high_key = level_seps[i + take - 1];
        parent_seps.push_back(level_seps[i + take - 1]);
      }
      parents.push_back(ipid);
      i += take;
    }
    // Link sibling pointers across the new level.
    for (size_t k = 0; k + 1 < parents.size(); ++k) {
      auto* in = static_cast<InnerBase*>(
          DecodePointer(table_.Get(parents[k])));
      in->right_sibling = parents[k + 1];
    }
    level.swap(parents);
    level_seps.swap(parent_seps);
  }
  root_pid_.store(level[0], std::memory_order_release);
  return Status::Ok();
  };  // fast_path

  Status fs = fast_path();
  if (fs.ok()) {
    // Stale records (superseded before the crash) are dead for GC
    // purposes. Done only on success: salvage marks every record dead
    // itself, and double marks would break the auditor's accounting.
    for (auto& [pid, addr] : visited) {
      if (!GcIsLive(pid, addr)) options_.log_store->MarkDead(addr);
    }
    return fs;
  }
  if (!fs.IsCorruption()) return fs;
  return SalvageRebuild(visited);
}

Status BwTree::SalvageRebuild(
    const std::vector<std::pair<PageId, FlashAddress>>& visited) {
  s_salvage_.fetch_add(1, std::memory_order_relaxed);
  DiscardResidentState();

  // Replay every readable record in log order at per-page granularity: a
  // full image replaces the page's state, a delta page applies on top.
  // Deletes become sequenced tombstones (not erasures) so the cross-page
  // merge below cannot resurrect a key from an older page's image.
  struct SalvagedVal {
    uint64_t seq = 0;
    bool tombstone = false;
    std::string value;
  };
  std::map<PageId, std::map<std::string, SalvagedVal>> pages;
  uint64_t seq = 0;
  for (const auto& [pid, addr] : visited) {
    ++seq;
    std::string image;
    Status rs =
        RetryIo([&]() { return options_.log_store->Read(addr, &image); });
    if (!rs.ok()) return rs;
    uint8_t kind = 0;
    if (!PageCodec::PeekKind(Slice(image), &kind).ok()) continue;
    if (kind == PageCodec::kFullLeaf) {
      LeafBase leaf;
      if (!PageCodec::DecodeLeaf(Slice(image), &leaf).ok()) continue;
      auto& state = pages[pid];
      state.clear();  // a full image is the page's whole state
      for (size_t i = 0; i < leaf.keys.size(); ++i) {
        state[leaf.keys[i]] = SalvagedVal{seq, false, leaf.values[i]};
      }
    } else if (kind == PageCodec::kDeltaPage) {
      FlashAddress prev;
      std::vector<DeltaOp> ops;
      if (!PageCodec::DecodeDeltaPage(Slice(image), &prev, &ops).ok()) {
        continue;
      }
      auto& state = pages[pid];
      for (const DeltaOp& op : ops) {
        if (op.kind == DeltaOp::kInsert) {
          state[op.key] = SalvagedVal{seq, false, op.value};
        } else {
          state[op.key] = SalvagedVal{seq, true, ""};
        }
      }
    }
  }

  // Cross-page newest-wins merge. Pages overlap only through split/merge
  // SMOs, where the newer page's records carry later log positions.
  std::map<std::string, SalvagedVal> merged;
  for (const auto& [pid, state] : pages) {
    for (const auto& [key, val] : state) {
      auto it = merged.find(key);
      if (it == merged.end() || it->second.seq < val.seq) {
        merged[key] = val;
      }
    }
  }

  // Fresh bootstrap root, then rebuild by re-inserting the merged state.
  auto* root = new LeafBase();
  PageId rp = table_.Allocate(EncodePointer(root));
  if (rp == kInvalidPageId) {
    delete root;
    return Status::ResourceExhausted("mapping table full in salvage");
  }
  root_pid_.store(rp, std::memory_order_release);
  CacheInsertOrResize(rp, root);
  for (const auto& [key, val] : merged) {
    if (val.tombstone) continue;
    Status ps = Put(Slice(key), Slice(val.value));
    if (!ps.ok()) return ps;
  }
  // Every on-media record is superseded by the rebuilt in-memory state.
  for (const auto& [pid, addr] : visited) {
    options_.log_store->MarkDead(addr);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// GC integration
// ---------------------------------------------------------------------

bool BwTree::GcIsLive(PageId pid, FlashAddress addr) const {
  PageMeta meta = MetaGet(pid);
  for (uint64_t packed : meta.flash_chain) {
    if (packed == addr.packed()) return true;
  }
  return false;
}

bool BwTree::GcInstall(PageId pid, FlashAddress old_addr,
                       FlashAddress new_addr) {
  // Only simply-relocatable state: a fully evicted page whose single
  // flash record is old_addr. PrepareSegmentForGc guarantees this; a
  // page loaded since then no longer holds the flash word, and the CAS
  // fails. The check, the CAS and the chain update share one meta_mu_
  // hold, as in CasWithMeta.
  MutexLock lk(&meta_mu_);
  auto it = meta_.find(pid);
  if (it == meta_.end() || it->second.flash_chain.size() != 1 ||
      it->second.flash_chain[0] != old_addr.packed()) {
    return false;
  }
  if (!table_.Cas(pid, EncodeFlash(old_addr), EncodeFlash(new_addr))) {
    return false;
  }
  it->second.flash_chain[0] = new_addr.packed();
  return true;
}

Status BwTree::PrepareSegmentForGc(uint64_t segment_id,
                                   uint64_t segment_bytes) {
  // Every page with (a) a multi-record flash chain touching the segment,
  // or (b) resident state whose single record lives there, gets loaded
  // and re-flushed elsewhere, leaving only simply-relocatable records.
  std::vector<PageId> to_rewrite;
  {
    MutexLock lk(&meta_mu_);
    for (const auto& [pid, meta] : meta_) {
      bool touches = false;
      for (uint64_t packed : meta.flash_chain) {
        FlashAddress a = FlashAddress::FromPacked(packed);
        if (a.offset() / segment_bytes == segment_id) {
          touches = true;
          break;
        }
      }
      if (!touches) continue;
      uint64_t w = table_.Get(pid);
      bool evicted_simple =
          IsFlashWord(w) && meta.flash_chain.size() == 1;
      if (!evicted_simple) to_rewrite.push_back(pid);
    }
  }
  for (PageId pid : to_rewrite) {
    Status s = LoadPage(pid);
    if (!s.ok()) return s;
    for (int attempt = 0; attempt < 100; ++attempt) {
      // Force a rewrite: mark dirty so FlushPage re-appends elsewhere.
      MetaMarkDirty(pid);
      s = FlushPage(pid, FlushMode::kFullPage);
      if (s.ok()) break;
      if (!s.IsAborted()) return s;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

BwTreeStats BwTree::stats() const {
  BwTreeStats s;
  for (const OpStatCell& cell : op_cells_) {
    s.gets += cell.gets.load(std::memory_order_relaxed);
    s.puts += cell.puts.load(std::memory_order_relaxed);
    s.deletes += cell.deletes.load(std::memory_order_relaxed);
    s.mm_ops += cell.mm.load(std::memory_order_relaxed);
    s.ss_ops += cell.ss.load(std::memory_order_relaxed);
    s.record_cache_hits += cell.rc_hits.load(std::memory_order_relaxed);
    s.blind_updates += cell.blind.load(std::memory_order_relaxed);
  }
  s.scans = s_scans_.load(std::memory_order_relaxed);
  s.flash_record_reads = s_flash_reads_.load(std::memory_order_relaxed);
  s.consolidations = s_consolidations_.load(std::memory_order_relaxed);
  s.leaf_splits = s_leaf_splits_.load(std::memory_order_relaxed);
  s.inner_splits = s_inner_splits_.load(std::memory_order_relaxed);
  s.root_splits = s_root_splits_.load(std::memory_order_relaxed);
  s.leaf_merges = s_leaf_merges_.load(std::memory_order_relaxed);
  s.root_collapses = s_root_collapses_.load(std::memory_order_relaxed);
  s.cas_failures = s_cas_failures_.load(std::memory_order_relaxed);
  s.read_relocation_retries =
      s_read_relocation_retries_.load(std::memory_order_relaxed);
  s.page_loads = s_loads_.load(std::memory_order_relaxed);
  s.full_flushes = s_full_flushes_.load(std::memory_order_relaxed);
  s.delta_flushes = s_delta_flushes_.load(std::memory_order_relaxed);
  s.full_evictions = s_full_evictions_.load(std::memory_order_relaxed);
  s.record_cache_evictions = s_rc_evictions_.load(std::memory_order_relaxed);
  s.bytes_flushed = s_bytes_flushed_.load(std::memory_order_relaxed);
  s.io_retries = s_io_retries_.load(std::memory_order_relaxed);
  s.io_retry_give_ups = s_io_give_ups_.load(std::memory_order_relaxed);
  s.salvage_recoveries = s_salvage_.load(std::memory_order_relaxed);
  s.css_hits = s_css_hits_.load(std::memory_order_relaxed);
  s.css_demotions = s_css_demotions_.load(std::memory_order_relaxed);
  s.css_demotion_refusals = s_css_refusals_.load(std::memory_order_relaxed);
  s.css_raw_bytes_demoted =
      s_css_raw_demoted_.load(std::memory_order_relaxed);
  s.css_stored_bytes_demoted =
      s_css_stored_demoted_.load(std::memory_order_relaxed);
  return s;
}

uint64_t BwTree::MemoryFootprintBytes() const {
  uint64_t total = 0;
  PageId hw = table_.high_water();
  for (PageId pid = 0; pid < hw; ++pid) {
    // Per-slot guard: ChainBytes walks the chain, which a concurrent
    // consolidation may retire. Entered before the word read; scoped per
    // iteration so a long footprint scan never pins an old epoch.
    EpochGuard guard(&epochs_);
    uint64_t w = table_.Get(pid);
    if (w != 0 && !IsFlashWord(w)) {
      total += ChainBytes(DecodePointer(w));
    }
  }
  // The mapping table itself is part of the footprint.
  total += hw * sizeof(uint64_t);
  return total;
}

uint64_t BwTree::resident_leaves() const {
  uint64_t n = 0;
  PageId hw = table_.high_water();
  for (PageId pid = 0; pid < hw; ++pid) {
    if (IsLeafResident(pid)) ++n;
  }
  return n;
}

}  // namespace costperf::bwtree
