#ifndef COSTPERF_BWTREE_NODE_H_
#define COSTPERF_BWTREE_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "common/slice.h"
#include "llama/flash_address.h"
#include "mapping/mapping_table.h"

namespace costperf::bwtree {

using mapping::PageId;
using mapping::kInvalidPageId;
using llama::FlashAddress;

class LeafBase;

// SIMD search accelerator embedded in base nodes: the 8-byte big-endian
// key slice of every key, taken at the node's common-prefix offset
// `skip` (workload keys often share a long prefix — "user000000012345" —
// so slicing at offset 0 would leave every slice identical and the
// vector compare useless). Built once right before a base node is
// installed; the node's key array is immutable afterwards, so the index
// never goes stale on the read path.
//
// Copies deliberately produce an EMPTY index. Inner-node SMO sites copy
// a node and then mutate its separator array in place
// (ReplaceBoundarySep even keeps the array sizes equal, so a size-only
// staleness guard cannot catch it); a copied node therefore degrades to
// scalar search until Build() is explicitly called on the final array.
// Ready() is the guard the search helpers check before trusting the
// slices.
//
// Not counted in ApproxBytes: that models the packed on-page image the
// cost model compares layouts with, and the index never goes to flash.
struct NodeSearchIndex {
  uint32_t skip = 0;             // common-prefix bytes skipped per key
  std::vector<uint64_t> slices;  // KeySliceAt(keys[i], skip), same order

  NodeSearchIndex() = default;
  NodeSearchIndex(const NodeSearchIndex&) {}
  NodeSearchIndex& operator=(const NodeSearchIndex&) {
    skip = 0;
    slices.clear();
    return *this;
  }

  // The keys must be sorted (skip = LCP of front and back covers all).
  void Build(const std::vector<std::string>& keys);
  void Build(const LeafBase& leaf);
  bool Ready(size_t n) const { return n != 0 && slices.size() == n; }
};

// Index of the first element of sorted `keys` that is >= `key`
// (std::lower_bound). Uses `idx`'s SIMD slice search when it is current
// for `keys`, refined by full string compares over the (short) run of
// equal slices; falls back to scalar binary search otherwise.
COSTPERF_HOT size_t NodeLowerBound(const std::vector<std::string>& keys,
                                   const NodeSearchIndex& idx,
                                   const Slice& key);
// The same over a leaf's records, with the leaf's own index.
COSTPERF_HOT size_t NodeLowerBound(const LeafBase& leaf, const Slice& key);

// Index of the first element of sorted `seps` that is > `key`
// (std::upper_bound) — the inner-node child-selection rule.
COSTPERF_HOT size_t NodeUpperBound(const std::vector<std::string>& seps,
                                   const NodeSearchIndex& idx,
                                   const Slice& key);

// In-memory node kinds. A logical page is a chain of immutable nodes:
// zero or more deltas prepended (latch-free, via mapping-table CAS) onto a
// base node — or onto a FlashPointer when the base lives on flash (a
// blind write over an evicted page, §6.2: the deltas form a record cache
// until a read of another key loads the base).
enum class NodeType : uint8_t {
  kLeafBase,
  kInnerBase,
  kInsertDelta,   // upsert of one record (also carries blind updates)
  kDeleteDelta,   // deletion of one record
  kFlashPointer,  // rest of the page is on flash at `addr`
  kRemoveNode,    // page is being merged into its left sibling
  kMergeDelta,    // left page absorbed the right sibling's contents
};

struct Node {
  NodeType type;
  // Number of delta nodes above (and including) this one; 0 for bases and
  // flash pointers. Triggers consolidation.
  uint16_t chain_length = 0;
  Node* next = nullptr;  // toward the base; nullptr at chain tail

  explicit Node(NodeType t) : type(t) {}
};

// Sorted leaf payload. Immutable once installed. The records live in one
// contiguous image in PageCodec's kFullLeaf format — the exact bytes a
// flush appends to the log (paper §6.1: a page is one variable-size byte
// image) — and an offset/length index beside it says where each key and
// value starts, so records are read as Slices into the image. A leaf is
// filled only by PageCodec::DecodeLeaf, which adopts an image and indexes
// it: a page load adopts the image the log store returned, and
// LeafBuilder writes one record by record for everything else
// (consolidation, splits, loads that merge deltas). Not copyable: the
// high key is a Slice into this leaf's own image.
class LeafBase : public Node {
 public:
  // A blank leaf (no image); PageCodec::DecodeLeaf or LeafBuilder fills
  // it before it is installed.
  LeafBase() : Node(NodeType::kLeafBase) {}
  LeafBase(const LeafBase&) = delete;
  LeafBase& operator=(const LeafBase&) = delete;

  size_t size() const { return records_.size(); }
  Slice key(size_t i) const {
    const Record& r = records_[i];
    return Slice(image_.data() + r.key_off, r.key_len);
  }
  Slice value(size_t i) const {
    const Record& r = records_[i];
    return Slice(image_.data() + r.value_off, r.value_len);
  }
  // Exclusive upper fence; empty means +infinity.
  Slice high_key() const { return high_key_; }
  // B-link pointer: the sibling holding keys >= high_key.
  PageId right_sibling() const { return right_sibling_; }
  // The kFullLeaf image: what FlushPage appends (compressed on a tiered
  // tree).
  Slice image() const { return Slice(image_); }
  // SIMD slice index over the keys, built when the image is indexed.
  const NodeSearchIndex& search() const { return search_; }

  // Footprint of the page in its packed on-page representation: the
  // paper's Deuteronomy pages are variable-size and ~100% utilized, so a
  // record costs its bytes plus a small per-record slot (length prefixes
  // + offset). This is what M_x compares against MassTree's
  // pointer-linked fixed-fanout layout.
  uint64_t ApproxBytes() const {
    return sizeof(LeafBase) + payload_bytes_ + 10 * records_.size() +
           high_key_.size();
  }
  // Payload-only footprint (what a serialized page roughly costs).
  uint64_t PayloadBytes() const { return payload_bytes_; }

 private:
  friend class PageCodec;

  // Where record i's key and value sit in image_.
  struct Record {
    uint32_t key_off, key_len, value_off, value_len;
  };

  std::string image_;
  std::vector<Record> records_;
  Slice high_key_;
  PageId right_sibling_ = kInvalidPageId;
  uint64_t payload_bytes_ = 0;  // sum of key and value bytes
  NodeSearchIndex search_;
};

// Sorted inner node: children[i] covers keys < seps[i]; children.back()
// covers keys >= seps.back(). Immutable; updated by consolidation-CAS.
struct InnerBase : Node {
  InnerBase() : Node(NodeType::kInnerBase) {}

  std::vector<std::string> seps;
  std::vector<PageId> children;  // seps.size() + 1 entries
  std::string high_key;          // empty = +inf
  PageId right_sibling = kInvalidPageId;
  // SIMD slice index over `seps`; see NodeSearchIndex for the staleness
  // contract (copy-then-mutate SMO sites get an empty index).
  NodeSearchIndex search;

  uint64_t ApproxBytes() const {
    uint64_t b = sizeof(InnerBase) + children.size() * sizeof(PageId);
    for (const auto& s : seps) b += s.size() + sizeof(std::string);
    return b + high_key.size();
  }
};

// Upsert delta. `timestamp` orders blind updates posted by the transaction
// component (§6.2): consolidation and readers pick the version with the
// highest timestamp, falling back to chain order (newer deltas are closer
// to the head) for equal timestamps.
struct InsertDelta : Node {
  InsertDelta() : Node(NodeType::kInsertDelta) {}

  std::string key;
  std::string value;
  uint64_t timestamp = 0;

  uint64_t ApproxBytes() const {
    return sizeof(InsertDelta) + key.size() + value.size();
  }
};

struct DeleteDelta : Node {
  DeleteDelta() : Node(NodeType::kDeleteDelta) {}

  std::string key;
  uint64_t timestamp = 0;

  uint64_t ApproxBytes() const { return sizeof(DeleteDelta) + key.size(); }
};

// Chain tail standing in for an evicted base page: the page's one record
// on flash. Only a blind write makes one, always with its delta over it
// (BwTree::PostDelta), so a FlashPointer never stands alone.
struct FlashPointer : Node {
  FlashPointer() : Node(NodeType::kFlashPointer) {}

  FlashAddress addr;
};

// Posted at the head of a page that is being merged away (the canonical
// Bw-tree SMO): operations landing here redirect to the left sibling,
// which carries a MergeDelta covering this page's key range.
struct RemoveNodeDelta : Node {
  RemoveNodeDelta() : Node(NodeType::kRemoveNode) {}

  PageId left_pid = kInvalidPageId;
};

// Posted on the surviving (left) page: logically extends it over the
// removed right sibling's range. Owns the removed page's chain (freed
// with this node), including the LeafBase searched for keys >= sep.
struct MergeDelta : Node {
  MergeDelta() : Node(NodeType::kMergeDelta) {}

  std::string sep;             // low fence of the absorbed range
  LeafBase* right_base = nullptr;   // records of the absorbed page
  Node* right_chain = nullptr;      // owned: the removed page's chain
  PageId right_pid = kInvalidPageId;  // the absorbed page's id
  std::string high_key;             // combined page's new fences
  PageId right_sibling = kInvalidPageId;
};

// Footprint of a single node.
uint64_t NodeBytes(const Node* n);
// Footprint of a whole chain.
uint64_t ChainBytes(const Node* head);
// Deletes every node in the chain. Caller must guarantee no concurrent
// readers (use epoch retirement).
void FreeChain(Node* head);

// --- mapping-table word encoding ---
// Entries hold either a Node* (bit 0 clear) or a flash address (bit 0
// set). Address payload fits in 63 bits (offset 40 + len 24 > 63, so the
// offset is capped at 39 bits / 512 GiB when stored in an entry).

inline uint64_t EncodePointer(Node* n) {
  return reinterpret_cast<uint64_t>(n);
}
inline uint64_t EncodeFlash(FlashAddress a) { return (a.packed() << 1) | 1; }
inline bool IsFlashWord(uint64_t w) { return w & 1; }
inline Node* DecodePointer(uint64_t w) {
  return reinterpret_cast<Node*>(w);
}
inline FlashAddress DecodeFlash(uint64_t w) {
  return FlashAddress::FromPacked(w >> 1);
}

}  // namespace costperf::bwtree

#endif  // COSTPERF_BWTREE_NODE_H_
