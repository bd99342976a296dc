#include "masstree/masstree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/racy.h"
#include "common/simd.h"

namespace costperf::masstree {

// ---------------------------------------------------------------------
// Node structures
// ---------------------------------------------------------------------

struct MassTree::Border {
  OptimisticVersion version;
  int n = 0;
  uint64_t slices[kLeafCap];
  uint8_t lens[kLeafCap];  // 0..8 terminal; kLinkLen routes to a Layer*
  // std::string* (terminal) or Layer* (link). Atomic: optimistic
  // readers snapshot slots without the latch; the release store on
  // overwrite publishes the pointee before the pointer.
  std::atomic<void*> payloads[kLeafCap];
  Border* next = nullptr;
};

struct MassTree::Interior {
  OptimisticVersion version;
  int n = 0;
  int level = 1;  // 1 => children are Borders
  uint64_t keys[kInteriorCap];
  void* children[kInteriorCap + 1];
};

struct MassTree::Layer {
  SpinLatch write_latch;
  std::atomic<void*> root{nullptr};
  std::atomic<int> root_level{0};  // 0 => root is a Border
};

namespace {

// Composite (slice, len) ordering used within borders.
inline bool EntryLess(uint64_t s1, uint8_t l1, uint64_t s2, uint8_t l2) {
  return s1 < s2 || (s1 == s2 && l1 < l2);
}

// SIMD search over slot arrays a latch-holding writer may be shifting in
// place; the surrounding version check discards torn results. Under TSan
// the slots are snapshotted with relaxed loads first (vector loads can't
// carry atomic semantics); other builds search the array directly.
inline size_t RacyUpperBoundU64(const uint64_t* a, size_t n, uint64_t key) {
#if COSTPERF_TSAN
  uint64_t snap[16];  // callers clamp n to the 15-slot node caps
  if (n > 16) n = 16;
  for (size_t i = 0; i < n; ++i) snap[i] = RacyLoad(&a[i]);
  return simd::UpperBoundU64(snap, n, key);
#else
  return simd::UpperBoundU64(a, n, key);
#endif
}

inline uint32_t RacyMatchEqU64(const uint64_t* a, size_t n, uint64_t key) {
#if COSTPERF_TSAN
  uint64_t snap[16];
  if (n > 16) n = 16;
  for (size_t i = 0; i < n; ++i) snap[i] = RacyLoad(&a[i]);
  return simd::MatchEqU64(snap, n, key);
#else
  return simd::MatchEqU64(a, n, key);
#endif
}

}  // namespace

// ---------------------------------------------------------------------
// Construction / destruction
// ---------------------------------------------------------------------

MassTree::MassTree()
    : count_(0) {
  root_layer_ = NewLayer();
}

MassTree::Layer* MassTree::NewLayer() {
  auto* layer = new Layer();
  auto* border = new Border();
  layer->root.store(border, std::memory_order_release);
  layer->root_level.store(0, std::memory_order_release);
  s_layers_.fetch_add(1, std::memory_order_relaxed);
  return layer;
}

namespace {

template <typename BorderT, typename InteriorT>
void FreeSubtree(void* node, int level,
                 const std::function<void(BorderT*)>& free_border) {
  if (level == 0) {
    free_border(static_cast<BorderT*>(node));
    return;
  }
  auto* in = static_cast<InteriorT*>(node);
  for (int i = 0; i <= in->n; ++i) {
    FreeSubtree<BorderT, InteriorT>(in->children[i], level - 1, free_border);
  }
  delete in;
}

}  // namespace

void MassTree::FreeLayerTree(Layer* layer) {
  std::function<void(Border*)> free_border = [&](Border* b) {
    for (int i = 0; i < b->n; ++i) {
      if (b->lens[i] == kLinkLen) {
        FreeLayerTree(static_cast<Layer*>(
            b->payloads[i].load(std::memory_order_relaxed)));
      } else {
        delete static_cast<std::string*>(
            b->payloads[i].load(std::memory_order_relaxed));
      }
    }
    delete b;
  };
  FreeSubtree<Border, Interior>(layer->root.load(std::memory_order_acquire),
                                layer->root_level.load(
                                    std::memory_order_acquire),
                                free_border);
  delete layer;
}

MassTree::~MassTree() {
  epochs_.ReclaimAll();
  FreeLayerTree(root_layer_);
}

// ---------------------------------------------------------------------
// Slices
// ---------------------------------------------------------------------

uint64_t MassTree::MakeSlice(const Slice& key, uint8_t* effective_len) {
  unsigned char buf[8] = {0};
  size_t take = key.size() < 8 ? key.size() : 8;
  memcpy(buf, key.data(), take);
  uint64_t slice = 0;
  for (int i = 0; i < 8; ++i) slice = (slice << 8) | buf[i];  // big-endian
  *effective_len =
      key.size() > 8 ? kLinkLen : static_cast<uint8_t>(key.size());
  return slice;
}

// ---------------------------------------------------------------------
// Reads (optimistic)
// ---------------------------------------------------------------------

MassTree::Border* MassTree::FindBorder(const Layer* layer,
                                       uint64_t slice) const {
  epochs_.AssertActive();
  for (;;) {
    void* root = layer->root.load(std::memory_order_acquire);
    int level = layer->root_level.load(std::memory_order_acquire);
    if (layer->root.load(std::memory_order_acquire) != root) continue;
    void* node = root;
    bool restart = false;
    while (level > 0) {
      auto* in = static_cast<Interior*>(node);
      uint64_t v = in->version.StableSnapshot();
      // Clamp the snapshot of n: a torn read racing a split must not
      // take the SIMD search (or children[]) out of bounds — the
      // version check below discards the result either way.
      int n = RacyLoad(&in->n);
      if (n < 0) n = 0;
      if (n > kInteriorCap) n = kInteriorCap;
      // Child index = count of keys <= slice, one vector compare wide.
      const size_t idx = RacyUpperBoundU64(
          in->keys, static_cast<size_t>(n), slice);
      void* child = RacyLoad(&in->children[idx]);
      if (in->version.Changed(v)) {
        s_retries_.fetch_add(1, std::memory_order_relaxed);
        restart = true;
        break;
      }
      node = child;
      simd::PrefetchRead(child);
      --level;
    }
    if (restart) continue;
    auto* b = static_cast<Border*>(node);
    // B-link walk: a concurrent split may have moved the slice range
    // right before the parent (or a stale root) reflected it. A border's
    // first slice is its immutable lower bound, so this read is safe.
    int hops = 0;
    Border* nx = RacyLoad(&b->next);
    while (nx != nullptr && RacyLoad(&nx->n) > 0 &&
           slice >= RacyLoad(&nx->slices[0]) && hops++ < 1024) {
      b = nx;
      nx = RacyLoad(&b->next);
    }
    return b;
  }
}

// Forced inline into both lookup paths, like BwTree::AnswerFromLeaf: a
// call on the single probe's leaf step is measurable in
// bench/index_probe.
[[gnu::always_inline]] inline MassTree::BorderHit MassTree::ReadBorder(
    const Border* b, uint64_t slice, uint8_t len, std::string* value,
    const Layer** sublayer) const {
  const uint64_t v = b->version.StableSnapshot();
  // Snapshot the matching entry: one vector equality over the slice
  // array, then the (rare) same-slice candidates checked by length.
  void* payload = nullptr;
  bool found = false;
  int n = RacyLoad(&b->n);
  if (n < 0) n = 0;
  if (n > kLeafCap) n = kLeafCap;
  uint32_t m = RacyMatchEqU64(b->slices, static_cast<size_t>(n), slice);
  while (m != 0) {
    const int i = std::countr_zero(m);
    if (RacyLoad(&b->lens[i]) == len) {
      payload = b->payloads[i].load(std::memory_order_acquire);
      found = true;
      break;
    }
    m &= m - 1;
  }
  if (found) {
    if (len == kLinkLen) {
      *sublayer = static_cast<const Layer*>(payload);
    } else {
      // Copy before the version check (the payload string is
      // epoch-retired, never freed under us) so a racing overwrite is
      // caught by Changed and retried.
      *value = *static_cast<std::string*>(payload);
    }
  }
  if (b->version.Changed(v)) {
    s_retries_.fetch_add(1, std::memory_order_relaxed);
    return BorderHit::kRetry;
  }
  if (!found) return BorderHit::kMissing;
  return len == kLinkLen ? BorderHit::kLayer : BorderHit::kValue;
}

Result<std::string> MassTree::GetInLayer(const Layer* layer,
                                         const Slice& key) const {
  uint8_t len = 0;
  uint64_t slice = MakeSlice(key, &len);
  std::string value;
  for (int attempt = 0; attempt < 1 << 20; ++attempt) {
    const Layer* sublayer = nullptr;
    switch (ReadBorder(FindBorder(layer, slice), slice, len, &value,
                       &sublayer)) {
      case BorderHit::kRetry:
        continue;
      case BorderHit::kMissing:
        return Status::NotFound();
      case BorderHit::kLayer:
        return GetInLayer(sublayer, Slice(key.data() + 8, key.size() - 8));
      case BorderHit::kValue:
        return value;
    }
  }
  return Status::Internal("Get retry budget exhausted");
}

Result<std::string> MassTree::Get(const Slice& key) const {
  s_gets_.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard(&epochs_);
  return GetInLayer(root_layer_, key);
}

// ---------------------------------------------------------------------
// Batched lookups (AMAC interleaving)
// ---------------------------------------------------------------------

// One lane of the batch machine. A probe advances one descent step per
// quantum — kRoot resolves the layer root, kInterior takes one
// version-validated level, kBorder takes one B-link hop, kRead does the
// copy-then-validate entry read — prefetching the node it will
// dereference next before yielding. Sublayer links re-enter kRoot with
// the 8-byte-advanced suffix, exactly like GetInLayer's recursion.
struct MassTree::LookupProbe {
  enum class St : uint8_t { kRoot, kInterior, kBorder, kRead, kDone };

  Slice key;  // suffix within the current layer
  std::string* value = nullptr;
  Status* status = nullptr;
  const Layer* layer = nullptr;
  uint64_t slice = 0;
  uint8_t len = 0;
  St st = St::kRoot;
  void* node = nullptr;
  int level = 0;
  int hops = 0;      // B-link hops in the current border walk
  int attempts = 0;  // kRoot entries; same 1<<20 budget as GetInLayer

  void EnterLayer(const Layer* l, Slice suffix) {
    layer = l;
    key = suffix;
    slice = MakeSlice(suffix, &len);
    st = St::kRoot;
  }
};

void MassTree::StepLookup(LookupProbe* p) const {
  auto finish = [p](Status s) {
    *p->status = s;
    p->st = LookupProbe::St::kDone;
  };

  switch (p->st) {
    case LookupProbe::St::kRoot: {
      if (++p->attempts >= (1 << 20)) {
        finish(Status::Internal("Get retry budget exhausted"));
        return;
      }
      void* root = p->layer->root.load(std::memory_order_acquire);
      const int level =
          p->layer->root_level.load(std::memory_order_acquire);
      if (p->layer->root.load(std::memory_order_acquire) != root) {
        return;  // root moved between the two loads; stay in kRoot
      }
      p->node = root;
      p->level = level;
      p->hops = 0;
      simd::PrefetchRead(root);
      p->st = level > 0 ? LookupProbe::St::kInterior
                        : LookupProbe::St::kBorder;
      return;
    }

    case LookupProbe::St::kInterior: {
      auto* in = static_cast<Interior*>(p->node);
      const uint64_t v = in->version.StableSnapshot();
      int n = RacyLoad(&in->n);
      if (n < 0) n = 0;
      if (n > kInteriorCap) n = kInteriorCap;
      const size_t idx = RacyUpperBoundU64(
          in->keys, static_cast<size_t>(n), p->slice);
      void* child = RacyLoad(&in->children[idx]);
      if (in->version.Changed(v)) {
        s_retries_.fetch_add(1, std::memory_order_relaxed);
        p->st = LookupProbe::St::kRoot;  // restart this layer's descent
        return;
      }
      p->node = child;
      --p->level;
      simd::PrefetchRead(child);
      p->st = p->level > 0 ? LookupProbe::St::kInterior
                           : LookupProbe::St::kBorder;
      return;
    }

    case LookupProbe::St::kBorder: {
      // One B-link hop per quantum: a concurrent split may have moved
      // the slice range right before the parent reflected it.
      auto* b = static_cast<Border*>(p->node);
      Border* nx = RacyLoad(&b->next);
      if (nx != nullptr && RacyLoad(&nx->n) > 0 &&
          p->slice >= RacyLoad(&nx->slices[0]) && p->hops++ < 1024) {
        p->node = nx;
        simd::PrefetchRead(&nx->payloads[0]);
        return;  // stay in kBorder
      }
      p->st = LookupProbe::St::kRead;
      return;
    }

    case LookupProbe::St::kRead: {
      const Layer* sublayer = nullptr;
      switch (ReadBorder(static_cast<Border*>(p->node), p->slice, p->len,
                         p->value, &sublayer)) {
        case BorderHit::kRetry:
          p->st = LookupProbe::St::kRoot;  // restart this layer's descent
          return;
        case BorderHit::kMissing:
          finish(Status::NotFound());
          return;
        case BorderHit::kLayer:
          simd::PrefetchRead(sublayer);
          p->EnterLayer(sublayer,
                        Slice(p->key.data() + 8, p->key.size() - 8));
          return;
        case BorderHit::kValue:
          finish(Status::Ok());
          return;
      }
      return;
    }

    case LookupProbe::St::kDone:
      return;
  }
}

void MassTree::LookupBatch(const LookupOp* ops, size_t count,
                           size_t interleave) const {
  if (count == 0) return;
  if (interleave == 0) interleave = 1;
  s_gets_.fetch_add(count, std::memory_order_relaxed);
  // Lane state reused across calls (no per-call allocation once warm).
  thread_local std::vector<LookupProbe> lanes;
  if (lanes.size() < interleave) lanes.resize(interleave);

  for (size_t base = 0; base < count; base += interleave) {
    const size_t n = std::min<size_t>(interleave, count - base);
    // One guard per interleave group: probes hold node pointers across
    // quanta (the guard blocks reclamation) and the epoch reservation
    // cost is amortized over the group.
    EpochGuard guard(&epochs_);
    for (size_t i = 0; i < n; ++i) {
      LookupProbe& p = lanes[i];
      p.value = ops[base + i].value;
      p.status = ops[base + i].status;
      p.attempts = 0;
      p.EnterLayer(root_layer_, ops[base + i].key);
    }
    size_t live = n;
    while (live > 0) {
      for (size_t i = 0; i < n; ++i) {
        LookupProbe& p = lanes[i];
        if (p.st == LookupProbe::St::kDone) continue;
        StepLookup(&p);
        if (p.st == LookupProbe::St::kDone) --live;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Writes (layer latch + version marks for readers)
// ---------------------------------------------------------------------

MassTree::Border* MassTree::FindBorderLocked(
    Layer* layer, uint64_t slice, std::vector<Interior*>* path) const {
  path->clear();
  void* node = layer->root.load(std::memory_order_acquire);
  int level = layer->root_level.load(std::memory_order_acquire);
  while (level > 0) {
    auto* in = static_cast<Interior*>(node);
    path->push_back(in);
    int idx = 0;
    while (idx < in->n && slice >= in->keys[idx]) ++idx;
    node = in->children[idx];
    --level;
  }
  return static_cast<Border*>(node);
}

void MassTree::InsertIntoParent(Layer* layer, std::vector<Interior*>* path,
                                void* left, uint64_t sep, void* right,
                                int level) {
  if (path->empty()) {
    // left was the root: grow.
    auto* new_root = new Interior();
    new_root->level = level + 1;
    new_root->n = 1;
    new_root->keys[0] = sep;
    new_root->children[0] = left;
    new_root->children[1] = right;
    layer->root.store(new_root, std::memory_order_release);
    layer->root_level.store(level + 1, std::memory_order_release);
    return;
  }
  Interior* parent = path->back();
  path->pop_back();

  if (parent->n < kInteriorCap) {
    parent->version.Lock();
    parent->version.MarkInserting();
    // RacyStore on every slot mutation: optimistic readers walk this
    // node concurrently and rely on the version recheck, not the latch.
    int idx = 0;
    while (idx < parent->n && parent->keys[idx] < sep) ++idx;
    for (int i = parent->n; i > idx; --i) {
      RacyStore(&parent->keys[i], parent->keys[i - 1]);
      RacyStore(&parent->children[i + 1], parent->children[i]);
    }
    RacyStore(&parent->keys[idx], sep);
    RacyStore(&parent->children[idx + 1], right);
    RacyStore(&parent->n, parent->n + 1);
    parent->version.Unlock();
    return;
  }

  // Split the parent. Build the full sorted sequence conceptually, then
  // divide around the median.
  s_interior_splits_.fetch_add(1, std::memory_order_relaxed);
  uint64_t all_keys[kInteriorCap + 1];
  void* all_children[kInteriorCap + 2];
  int idx = 0;
  while (idx < parent->n && parent->keys[idx] < sep) ++idx;
  for (int i = 0; i < idx; ++i) all_keys[i] = parent->keys[i];
  all_keys[idx] = sep;
  for (int i = idx; i < parent->n; ++i) all_keys[i + 1] = parent->keys[i];
  for (int i = 0; i <= idx; ++i) all_children[i] = parent->children[i];
  all_children[idx + 1] = right;
  for (int i = idx + 1; i <= parent->n; ++i) {
    all_children[i + 1] = parent->children[i];
  }
  const int total_keys = parent->n + 1;
  const int mid = total_keys / 2;
  const uint64_t up_key = all_keys[mid];

  auto* right_in = new Interior();
  right_in->level = parent->level;
  right_in->n = total_keys - mid - 1;
  for (int i = 0; i < right_in->n; ++i) {
    right_in->keys[i] = all_keys[mid + 1 + i];
  }
  for (int i = 0; i <= right_in->n; ++i) {
    right_in->children[i] = all_children[mid + 1 + i];
  }

  parent->version.Lock();
  parent->version.MarkSplitting();
  RacyStore(&parent->n, mid);
  for (int i = 0; i < mid; ++i) RacyStore(&parent->keys[i], all_keys[i]);
  for (int i = 0; i <= mid; ++i) {
    RacyStore(&parent->children[i], all_children[i]);
  }
  parent->version.Unlock();

  InsertIntoParent(layer, path, parent, up_key, right_in, parent->level);
}

void MassTree::InsertIntoBorder(Layer* layer, Border* b,
                                std::vector<Interior*>* path, uint64_t slice,
                                uint8_t len, void* payload) {
  if (b->n < kLeafCap) {
    b->version.Lock();
    b->version.MarkInserting();
    // RacyStore on slot mutations: optimistic readers snapshot these
    // fields without the latch and validate via the version recheck.
    int idx = 0;
    while (idx < b->n && EntryLess(b->slices[idx], b->lens[idx], slice, len)) {
      ++idx;
    }
    for (int i = b->n; i > idx; --i) {
      RacyStore(&b->slices[i], b->slices[i - 1]);
      RacyStore(&b->lens[i], b->lens[i - 1]);
      b->payloads[i].store(
          b->payloads[i - 1].load(std::memory_order_relaxed),
          std::memory_order_release);
    }
    RacyStore(&b->slices[idx], slice);
    RacyStore(&b->lens[idx], len);
    b->payloads[idx].store(payload, std::memory_order_release);
    RacyStore(&b->n, b->n + 1);
    b->version.Unlock();
    return;
  }

  // Border split. Keep same-slice groups intact: pick a boundary index
  // where the slice changes, closest to the middle. A boundary always
  // exists because one slice contributes at most 10 variants (< cap).
  s_border_splits_.fetch_add(1, std::memory_order_relaxed);
  int split = -1;
  for (int d = 0; d < kLeafCap; ++d) {
    int lo = kLeafCap / 2 - d, hi = kLeafCap / 2 + d;
    if (lo >= 1 && b->slices[lo] != b->slices[lo - 1]) {
      split = lo;
      break;
    }
    if (hi >= 1 && hi < b->n && b->slices[hi] != b->slices[hi - 1]) {
      split = hi;
      break;
    }
  }
  assert(split > 0);

  auto* right = new Border();
  right->n = b->n - split;
  for (int i = 0; i < right->n; ++i) {
    right->slices[i] = b->slices[split + i];
    right->lens[i] = b->lens[split + i];
    right->payloads[i].store(
        b->payloads[split + i].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  right->next = b->next;

  const uint64_t sep = right->slices[0];

  b->version.Lock();
  b->version.MarkSplitting();
  RacyStore(&b->n, split);
  RacyStore(&b->next, right);
  b->version.Unlock();

  std::vector<Interior*> parent_path(*path);
  InsertIntoParent(layer, &parent_path, b, sep, right, 0);

  // Route the pending entry into the correct half and insert (both halves
  // now have room).
  Border* target = slice < sep ? b : right;
  // Path is only used for further splits, which cannot happen now.
  std::vector<Interior*> empty_path;
  InsertIntoBorder(layer, target, &empty_path, slice, len, payload);
}

Status MassTree::PutInLayer(Layer* layer, const Slice& key,
                            const Slice& value) {
  epochs_.AssertActive();
  uint8_t len = 0;
  uint64_t slice = MakeSlice(key, &len);

  SpinLatchGuard latch(&layer->write_latch);
  std::vector<Interior*> path;
  Border* b = FindBorderLocked(layer, slice, &path);

  for (int i = 0; i < b->n; ++i) {
    if (b->slices[i] == slice && b->lens[i] == len) {
      if (len == kLinkLen) {
        // Descend into the sublayer (release this layer's latch first —
        // layer latches nest strictly downward so ordering is safe, but
        // holding it isn't needed once the link is stable).
        auto* sub = static_cast<Layer*>(
            b->payloads[i].load(std::memory_order_relaxed));
        Slice suffix(key.data() + 8, key.size() - 8);
        return PutInLayer(sub, suffix, value);
      }
      // Terminal overwrite: swap the value pointer, retire the old one.
      auto* fresh = new std::string(value.ToString());
      b->version.Lock();
      b->version.MarkInserting();
      auto* old = static_cast<std::string*>(
          b->payloads[i].load(std::memory_order_relaxed));
      b->payloads[i].store(fresh, std::memory_order_release);
      b->version.Unlock();
      epochs_.Retire([old] { delete old; });
      return Status::Ok();
    }
  }

  // No exact entry.
  if (len == kLinkLen) {
    // Create the sublayer, link it, then insert the suffix there.
    Layer* sub = NewLayer();
    InsertIntoBorder(layer, b, &path, slice, kLinkLen, sub);
    Slice suffix(key.data() + 8, key.size() - 8);
    Status s = PutInLayer(sub, suffix, value);
    if (s.ok()) return s;
    return s;
  }
  auto* fresh = new std::string(value.ToString());
  InsertIntoBorder(layer, b, &path, slice, len, fresh);
  count_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

Status MassTree::Put(const Slice& key, const Slice& value) {
  s_puts_.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard(&epochs_);
  return PutInLayer(root_layer_, key, value);
}

Status MassTree::DeleteInLayer(Layer* layer, const Slice& key) {
  uint8_t len = 0;
  uint64_t slice = MakeSlice(key, &len);

  SpinLatchGuard latch(&layer->write_latch);
  std::vector<Interior*> path;
  Border* b = FindBorderLocked(layer, slice, &path);
  for (int i = 0; i < b->n; ++i) {
    if (b->slices[i] == slice && b->lens[i] == len) {
      if (len == kLinkLen) {
        auto* sub = static_cast<Layer*>(
            b->payloads[i].load(std::memory_order_relaxed));
        Slice suffix(key.data() + 8, key.size() - 8);
        return DeleteInLayer(sub, suffix);
      }
      auto* old = static_cast<std::string*>(
          b->payloads[i].load(std::memory_order_relaxed));
      b->version.Lock();
      b->version.MarkInserting();
      for (int j = i; j < b->n - 1; ++j) {
        RacyStore(&b->slices[j], b->slices[j + 1]);
        RacyStore(&b->lens[j], b->lens[j + 1]);
        b->payloads[j].store(
            b->payloads[j + 1].load(std::memory_order_relaxed),
            std::memory_order_release);
      }
      RacyStore(&b->n, b->n - 1);
      b->version.Unlock();
      epochs_.Retire([old] { delete old; });
      count_.fetch_sub(1, std::memory_order_acq_rel);
      return Status::Ok();
    }
  }
  return Status::NotFound();
}

Status MassTree::Delete(const Slice& key) {
  s_deletes_.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard(&epochs_);
  return DeleteInLayer(root_layer_, key);
}

// ---------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------

namespace {

// Reconstructs the key bytes an entry contributes at this layer.
std::string SliceBytes(uint64_t slice, int len) {
  std::string out;
  for (int i = 0; i < len; ++i) {
    out.push_back(static_cast<char>((slice >> (8 * (7 - i))) & 0xFF));
  }
  return out;
}

}  // namespace

bool MassTree::ScanLayer(
    const Layer* layer, const std::string& layer_prefix,
    const std::string& start_suffix, const Slice& global_end, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) const {
  uint8_t start_len = 0;
  uint64_t start_slice = MakeSlice(Slice(start_suffix), &start_len);

  Border* b = FindBorder(layer, start_slice);
  while (b != nullptr) {
    // Optimistically snapshot the border.
    uint64_t v = b->version.StableSnapshot();
    int n = RacyLoad(&b->n);
    uint64_t slices[kLeafCap];
    uint8_t lens[kLeafCap];
    void* payloads[kLeafCap];
    Border* next = RacyLoad(&b->next);
    for (int i = 0; i < n && i < kLeafCap; ++i) {
      slices[i] = RacyLoad(&b->slices[i]);
      lens[i] = RacyLoad(&b->lens[i]);
      payloads[i] = b->payloads[i].load(std::memory_order_acquire);
    }
    if (b->version.Changed(v)) {
      s_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;  // retry the same border
    }

    for (int i = 0; i < n; ++i) {
      // Skip entries before the start point.
      if (EntryLess(slices[i], lens[i], start_slice, start_len)) continue;
      if (lens[i] == kLinkLen) {
        auto* sub = static_cast<Layer*>(payloads[i]);
        std::string sub_prefix = layer_prefix + SliceBytes(slices[i], 8);
        std::string sub_start;
        if (slices[i] == start_slice && start_suffix.size() > 8) {
          sub_start = start_suffix.substr(8);
        }
        if (!ScanLayer(sub, sub_prefix, sub_start, global_end, limit, out)) {
          return false;
        }
      } else {
        std::string key = layer_prefix + SliceBytes(slices[i], lens[i]);
        if (Slice(key).compare(Slice(start_suffix.size() <= 8
                                         ? layer_prefix + start_suffix
                                         : key)) < 0) {
          continue;
        }
        if (!global_end.empty() && Slice(key).compare(global_end) >= 0) {
          return false;
        }
        out->emplace_back(std::move(key),
                          *static_cast<std::string*>(payloads[i]));
        if (out->size() >= limit) return false;
      }
    }
    b = next;
    // After the first border, everything qualifies.
    start_slice = 0;
    start_len = 0;
  }
  return true;
}

Status MassTree::Scan(const Slice& start, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out,
                      const Slice& end) const {
  s_scans_.fetch_add(1, std::memory_order_relaxed);
  out->clear();
  if (limit == 0) return Status::Ok();
  EpochGuard guard(&epochs_);
  ScanLayer(root_layer_, "", start.ToString(), end, limit, out);
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

uint64_t MassTree::MemoryFootprintBytes() const {
  // Walk the whole trie. Not concurrency-safe; call at a quiescent point
  // (measurement harnesses do).
  //
  // Each node, layer, and value is an individual heap allocation; charge
  // the allocator's per-chunk overhead (header + size-class rounding),
  // which is a real part of MassTree's memory expansion relative to the
  // Bw-tree's packed pages.
  constexpr uint64_t kAllocOverhead = 32;
  uint64_t total = sizeof(MassTree);
  std::function<void(const Layer*)> walk_layer = [&](const Layer* layer) {
    total += sizeof(Layer) + kAllocOverhead;
    std::function<void(const void*, int)> walk = [&](const void* node,
                                                     int level) {
      if (level > 0) {
        const auto* in = static_cast<const Interior*>(node);
        total += sizeof(Interior) + kAllocOverhead;
        for (int i = 0; i <= in->n; ++i) walk(in->children[i], level - 1);
        return;
      }
      const auto* b = static_cast<const Border*>(node);
      total += sizeof(Border) + kAllocOverhead;
      for (int i = 0; i < b->n; ++i) {
        if (b->lens[i] == kLinkLen) {
          walk_layer(static_cast<const Layer*>(
              b->payloads[i].load(std::memory_order_relaxed)));
        } else {
          const auto* s = static_cast<const std::string*>(
              b->payloads[i].load(std::memory_order_relaxed));
          total += sizeof(std::string) + kAllocOverhead +
                   (s->capacity() > 15 ? s->capacity() + kAllocOverhead : 0);
        }
      }
    };
    walk(layer->root.load(std::memory_order_acquire),
         layer->root_level.load(std::memory_order_acquire));
  };
  walk_layer(root_layer_);
  return total;
}

MassTree::Stats MassTree::stats() const {
  Stats s;
  s.puts = s_puts_.load(std::memory_order_relaxed);
  s.gets = s_gets_.load(std::memory_order_relaxed);
  s.deletes = s_deletes_.load(std::memory_order_relaxed);
  s.scans = s_scans_.load(std::memory_order_relaxed);
  s.read_retries = s_retries_.load(std::memory_order_relaxed);
  s.border_splits = s_border_splits_.load(std::memory_order_relaxed);
  s.interior_splits = s_interior_splits_.load(std::memory_order_relaxed);
  s.layers_created = s_layers_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace costperf::masstree
