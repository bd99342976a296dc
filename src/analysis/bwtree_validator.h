#ifndef COSTPERF_ANALYSIS_BWTREE_VALIDATOR_H_
#define COSTPERF_ANALYSIS_BWTREE_VALIDATOR_H_

#include <vector>

#include "analysis/invariant_checker.h"
#include "bwtree/bwtree.h"
#include "mapping/mapping_table.h"

namespace costperf::analysis {

// Every page id reachable from the tree root: inner children recursively,
// plus B-link right siblings of every base. Quiescent-tree only (the walk
// dereferences mapping words under a single epoch guard but takes no
// latches against concurrent SMOs).
std::vector<mapping::PageId> CollectReachablePids(bwtree::BwTree* tree);
// Of those, the leaves whose mapping word is a memory pointer — a
// resident base, or record deltas over a FlashPointer: the pages that
// hold DRAM. Same quiescent-tree contract.
std::vector<mapping::PageId> CollectMemoryLeafPids(bwtree::BwTree* tree);

// Structural validator for the Bw-tree (tentpole prong 2, rule ids):
//   null-word    reachable page whose mapping entry is 0
//   chain-tail   delta chain that does not terminate in a base page /
//                flash pointer within bounds (broken or cyclic chain)
//   chain-length node's chain_length disagrees with its position
//   key-order    unsorted leaf keys / inner separators, fence violations,
//                inner child-count mismatch
//   flash-chain  mapping word or FlashPointer tail addresses a record
//                other than the page's one record on flash
class BwTreeValidator : public InvariantChecker {
 public:
  explicit BwTreeValidator(bwtree::BwTree* tree) : tree_(tree) {}

  std::string_view name() const override { return "BwTreeValidator"; }
  std::vector<Violation> Check() override;

 private:
  bwtree::BwTree* tree_;
};

}  // namespace costperf::analysis

#endif  // COSTPERF_ANALYSIS_BWTREE_VALIDATOR_H_
