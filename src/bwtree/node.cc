#include "bwtree/node.h"

#include <cstring>

#include "common/simd.h"

namespace costperf::bwtree {

namespace {

// The key arrays the search helpers run over: an inner node's separator
// strings and a leaf's records.
struct StringKeys {
  const std::vector<std::string>& keys;
  size_t size() const { return keys.size(); }
  Slice operator[](size_t i) const { return Slice(keys[i]); }
};
struct LeafKeys {
  const LeafBase& leaf;
  size_t size() const { return leaf.size(); }
  Slice operator[](size_t i) const { return leaf.key(i); }
};

template <typename Keys>
void BuildIndex(const Keys& keys, NodeSearchIndex* idx) {
  idx->skip = 0;
  idx->slices.clear();
  const size_t n = keys.size();
  if (n == 0) return;
  // Sorted array: every key shares exactly the common prefix of the
  // first and last ones.
  const Slice lo = keys[0];
  const Slice hi = keys[n - 1];
  const size_t max = lo.size() < hi.size() ? lo.size() : hi.size();
  size_t p = 0;
  while (p < max && lo[p] == hi[p]) ++p;
  idx->skip = static_cast<uint32_t>(p);
  idx->slices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Slice k = keys[i];
    idx->slices.push_back(simd::KeySliceAt(k.data(), k.size(), idx->skip));
  }
}

// Orders `key` against the node's common prefix: <0 / >0 place it below
// or above every key in the node; 0 means the slice window decides.
// A key shorter than the prefix that matches what it has of it sorts
// below every node key (they all carry the full prefix plus more).
int ComparePrefix(const Slice& key, const Slice& first_key, uint32_t skip) {
  const size_t take = key.size() < skip ? key.size() : skip;
  int c = take == 0 ? 0 : std::memcmp(key.data(), first_key.data(), take);
  if (c == 0 && key.size() < skip) return -1;
  return c;
}

// First position whose key is >= `key` (kUpper: > `key`).
template <bool kUpper, typename Keys>
size_t Bound(const Keys& keys, const NodeSearchIndex& idx, const Slice& key) {
  const size_t n = keys.size();
  // Does keys[i] stay below the bound?
  auto below = [&](size_t i) {
    const int c = keys[i].compare(key);
    return kUpper ? c <= 0 : c < 0;
  };
  if (!idx.Ready(n)) {
    size_t lo = 0, hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (below(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  const int pc = ComparePrefix(key, keys[0], idx.skip);
  if (pc < 0) return 0;
  if (pc > 0) return n;
  const uint64_t ks = simd::KeySliceAt(key.data(), key.size(), idx.skip);
  size_t pos = simd::LowerBoundU64(idx.slices.data(), n, ks);
  // Slices are only non-strictly monotonic with key order: resolve the
  // run of equal slices (keys agreeing on bytes [skip, skip+8)) with
  // full compares. Runs are short — 8+ shared bytes past the prefix.
  while (pos < n && idx.slices[pos] == ks && below(pos)) ++pos;
  return pos;
}

}  // namespace

void NodeSearchIndex::Build(const std::vector<std::string>& keys) {
  BuildIndex(StringKeys{keys}, this);
}

void NodeSearchIndex::Build(const LeafBase& leaf) {
  BuildIndex(LeafKeys{leaf}, this);
}

size_t NodeLowerBound(const std::vector<std::string>& keys,
                      const NodeSearchIndex& idx, const Slice& key) {
  return Bound<false>(StringKeys{keys}, idx, key);
}

size_t NodeLowerBound(const LeafBase& leaf, const Slice& key) {
  return Bound<false>(LeafKeys{leaf}, leaf.search(), key);
}

size_t NodeUpperBound(const std::vector<std::string>& seps,
                      const NodeSearchIndex& idx, const Slice& key) {
  return Bound<true>(StringKeys{seps}, idx, key);
}

uint64_t NodeBytes(const Node* n) {
  switch (n->type) {
    case NodeType::kLeafBase:
      return static_cast<const LeafBase*>(n)->ApproxBytes();
    case NodeType::kInnerBase:
      return static_cast<const InnerBase*>(n)->ApproxBytes();
    case NodeType::kInsertDelta:
      return static_cast<const InsertDelta*>(n)->ApproxBytes();
    case NodeType::kDeleteDelta:
      return static_cast<const DeleteDelta*>(n)->ApproxBytes();
    case NodeType::kFlashPointer:
      return sizeof(FlashPointer);
    case NodeType::kRemoveNode:
      return sizeof(RemoveNodeDelta);
    case NodeType::kMergeDelta: {
      const auto* m = static_cast<const MergeDelta*>(n);
      // The merge delta carries the absorbed page's chain.
      return sizeof(MergeDelta) + ChainBytes(m->right_chain);
    }
  }
  return sizeof(Node);
}

uint64_t ChainBytes(const Node* head) {
  uint64_t b = 0;
  for (const Node* n = head; n != nullptr; n = n->next) b += NodeBytes(n);
  return b;
}

void FreeChain(Node* head) {
  while (head != nullptr) {
    Node* next = head->next;
    switch (head->type) {
      case NodeType::kLeafBase:
        delete static_cast<LeafBase*>(head);
        break;
      case NodeType::kInnerBase:
        delete static_cast<InnerBase*>(head);
        break;
      case NodeType::kInsertDelta:
        delete static_cast<InsertDelta*>(head);
        break;
      case NodeType::kDeleteDelta:
        delete static_cast<DeleteDelta*>(head);
        break;
      case NodeType::kFlashPointer:
        delete static_cast<FlashPointer*>(head);
        break;
      case NodeType::kRemoveNode:
        delete static_cast<RemoveNodeDelta*>(head);
        break;
      case NodeType::kMergeDelta: {
        auto* m = static_cast<MergeDelta*>(head);
        FreeChain(m->right_chain);  // owned absorbed chain
        delete m;
        break;
      }
    }
    head = next;
  }
}

}  // namespace costperf::bwtree
