#include "analysis/bwtree_validator.h"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_set>

#include "bwtree/node.h"
#include "common/epoch.h"

namespace costperf::analysis {

namespace {

using bwtree::BwTree;
using bwtree::InnerBase;
using bwtree::LeafBase;
using bwtree::Node;
using bwtree::NodeType;
using mapping::kInvalidPageId;
using mapping::PageId;

// Upper bound on chain walks; anything longer is treated as a cycle.
constexpr size_t kMaxChainNodes = 1 << 16;

std::string PidEntity(PageId pid) { return "pid " + std::to_string(pid); }

bool IsDeltaType(NodeType t) {
  return t == NodeType::kInsertDelta || t == NodeType::kDeleteDelta ||
         t == NodeType::kRemoveNode || t == NodeType::kMergeDelta;
}

// Walks head toward the tail, stopping after kMaxChainNodes. Returns the
// tail (base/flash pointer) or nullptr when the chain is broken/cyclic.
// Dereferences live chain nodes, so the caller must be inside the owning
// tree's epoch — declared through the explicit manager parameter, which
// is how a free function names the capability for the analysis.
const Node* WalkChain(EpochManager* epochs, const Node* head,
                      std::vector<const Node*>* nodes)
    REQUIRES_EPOCH(epochs) {
  epochs->AssertActive();  // runtime backstop for non-Clang builds
  const Node* n = head;
  while (n != nullptr && nodes->size() < kMaxChainNodes) {
    nodes->push_back(n);
    if (!IsDeltaType(n->type)) return n;
    n = n->next;
  }
  return nullptr;
}

void EnqueueChild(PageId pid, std::unordered_set<PageId>* seen,
                  std::deque<PageId>* frontier) {
  if (pid == kInvalidPageId) return;
  if (seen->insert(pid).second) frontier->push_back(pid);
}

// Visits every reachable pid; calls visit(pid, word) for each, inside a
// live guard on the tree's epoch manager (the BFS dereferences resident
// chains throughout). Note for visit lambdas: the analysis treats a
// lambda as its own function, so a lambda that walks chains itself must
// re-establish the capability — an AssertActive() call at its top both
// satisfies the static layer and arms the runtime backstop.
template <typename Fn>
void Traverse(BwTree* tree, const Fn& visit) {
  EpochGuard guard(tree->epochs());
  mapping::MappingTable* table = tree->mapping_table();
  std::unordered_set<PageId> seen;
  std::deque<PageId> frontier;
  EnqueueChild(tree->root_pid(), &seen, &frontier);
  while (!frontier.empty()) {
    PageId pid = frontier.front();
    frontier.pop_front();
    if (pid >= table->capacity()) continue;
    uint64_t word = table->Get(pid);
    visit(pid, word);
    if (word == 0 || bwtree::IsFlashWord(word)) continue;
    std::vector<const Node*> nodes;
    const Node* tail =
        WalkChain(tree->epochs(), bwtree::DecodePointer(word), &nodes);
    if (tail == nullptr) continue;
    // A MergeDelta supersedes the tail's fences: the tail base still
    // names the absorbed (detached) sibling, the delta the live one.
    const bwtree::MergeDelta* merge = nullptr;
    for (const Node* n : nodes) {
      if (n->type == NodeType::kMergeDelta) {
        merge = static_cast<const bwtree::MergeDelta*>(n);
        break;
      }
    }
    if (tail->type == NodeType::kInnerBase) {
      const auto* inner = static_cast<const InnerBase*>(tail);
      for (PageId child : inner->children) {
        EnqueueChild(child, &seen, &frontier);
      }
      EnqueueChild(inner->right_sibling, &seen, &frontier);
    } else if (merge != nullptr) {
      EnqueueChild(merge->right_sibling, &seen, &frontier);
    } else if (tail->type == NodeType::kLeafBase) {
      EnqueueChild(static_cast<const LeafBase*>(tail)->right_sibling(), &seen,
                   &frontier);
    }
  }
}

void CheckChainLengths(PageId pid, const std::vector<const Node*>& nodes,
                       const Node* tail, std::vector<Violation>* out) {
  for (const Node* n : nodes) {
    uint16_t expected;
    if (!IsDeltaType(n->type)) {
      expected = 0;
    } else {
      expected = n->next == nullptr
                     ? 1
                     : static_cast<uint16_t>(n->next->chain_length + 1);
    }
    if (n->chain_length != expected) {
      out->push_back(Violation{
          "BwTreeValidator", "chain-length", PidEntity(pid),
          "node type " + std::to_string(static_cast<int>(n->type)) +
              " has chain_length " + std::to_string(n->chain_length) +
              ", expected " + std::to_string(expected)});
      return;  // one report per page; deeper mismatches are derivative
    }
  }
  (void)tail;
}

void CheckLeafOrder(PageId pid, const LeafBase* leaf,
                    std::vector<Violation>* out) {
  for (size_t i = 1; i < leaf->size(); ++i) {
    if (!(leaf->key(i - 1) < leaf->key(i))) {
      out->push_back(Violation{
          "BwTreeValidator", "key-order", PidEntity(pid),
          "leaf keys not strictly ascending at slot " + std::to_string(i) +
              " (\"" + leaf->key(i - 1).ToString() + "\" !< \"" +
              leaf->key(i).ToString() + "\")"});
      return;
    }
  }
  if (!leaf->high_key().empty() && leaf->size() != 0 &&
      !(leaf->key(leaf->size() - 1) < leaf->high_key())) {
    out->push_back(Violation{
        "BwTreeValidator", "key-order", PidEntity(pid),
        "leaf key \"" + leaf->key(leaf->size() - 1).ToString() +
            "\" >= high fence \"" + leaf->high_key().ToString() + "\""});
  }
}

void CheckInnerOrder(PageId pid, const InnerBase* inner,
                     std::vector<Violation>* out) {
  if (inner->children.size() != inner->seps.size() + 1) {
    out->push_back(Violation{
        "BwTreeValidator", "key-order", PidEntity(pid),
        "inner has " + std::to_string(inner->children.size()) +
            " children for " + std::to_string(inner->seps.size()) +
            " separators (want seps+1)"});
    return;
  }
  for (size_t i = 1; i < inner->seps.size(); ++i) {
    if (!(inner->seps[i - 1] < inner->seps[i])) {
      out->push_back(Violation{
          "BwTreeValidator", "key-order", PidEntity(pid),
          "inner separators not strictly ascending at slot " +
              std::to_string(i)});
      return;
    }
  }
}

// The flash record a mapping word or a FlashPointer tail addresses must
// be the page's one record.
void CheckFlashChain(BwTree* tree, PageId pid, uint64_t word,
                     const Node* tail, std::vector<Violation>* out) {
  bwtree::FlashAddress addr;
  std::string what;
  if (bwtree::IsFlashWord(word)) {
    addr = bwtree::DecodeFlash(word);
    what = "mapping entry points at";
  } else if (tail != nullptr && tail->type == NodeType::kFlashPointer) {
    addr = static_cast<const bwtree::FlashPointer*>(tail)->addr;
    what = "FlashPointer tail addresses";
  } else {
    return;
  }
  const bwtree::FlashAddress record = tree->DebugPageInfo(pid).record;
  if (addr != record) {
    out->push_back(Violation{
        "BwTreeValidator", "flash-chain", PidEntity(pid),
        what + " flash record " + std::to_string(addr.packed()) +
            " but the page's record is " +
            (record.valid() ? std::to_string(record.packed())
                            : std::string("<none>"))});
  }
}

}  // namespace

std::vector<mapping::PageId> CollectReachablePids(bwtree::BwTree* tree) {
  std::vector<PageId> pids;
  Traverse(tree, [&](PageId pid, uint64_t) { pids.push_back(pid); });
  std::sort(pids.begin(), pids.end());
  return pids;
}

std::vector<mapping::PageId> CollectMemoryLeafPids(bwtree::BwTree* tree) {
  std::vector<PageId> pids;
  Traverse(tree, [&](PageId pid, uint64_t word) {
    tree->epochs()->AssertActive();  // see Traverse's doc comment
    if (word == 0 || bwtree::IsFlashWord(word)) return;
    std::vector<const Node*> nodes;
    const Node* tail =
        WalkChain(tree->epochs(), bwtree::DecodePointer(word), &nodes);
    if (tail != nullptr && tail->type != NodeType::kInnerBase) {
      pids.push_back(pid);
    }
  });
  return pids;
}

std::vector<Violation> BwTreeValidator::Check() {
  std::vector<Violation> out;
  Traverse(tree_, [&](PageId pid, uint64_t word) {
    // Re-establish the epoch capability for this lambda (see Traverse's
    // doc comment): Traverse's guard is live for the whole visit, the
    // assert makes that visible to the analysis and checked at runtime.
    tree_->epochs()->AssertActive();
    if (word == 0) {
      out.push_back(Violation{"BwTreeValidator", "null-word", PidEntity(pid),
                              "reachable page has a null mapping entry"});
      return;
    }
    if (bwtree::IsFlashWord(word)) {
      CheckFlashChain(tree_, pid, word, nullptr, &out);
      return;
    }
    std::vector<const Node*> nodes;
    const Node* tail =
        WalkChain(tree_->epochs(), bwtree::DecodePointer(word), &nodes);
    if (tail == nullptr) {
      out.push_back(Violation{
          "BwTreeValidator", "chain-tail", PidEntity(pid),
          "delta chain of " + std::to_string(nodes.size()) +
              " node(s) never reaches a base page (broken or cyclic)"});
      return;
    }
    CheckChainLengths(pid, nodes, tail, &out);
    if (tail->type == NodeType::kLeafBase) {
      CheckLeafOrder(pid, static_cast<const LeafBase*>(tail), &out);
    } else if (tail->type == NodeType::kInnerBase) {
      CheckInnerOrder(pid, static_cast<const InnerBase*>(tail), &out);
    }
    CheckFlashChain(tree_, pid, word, tail, &out);
  });
  return out;
}

}  // namespace costperf::analysis
