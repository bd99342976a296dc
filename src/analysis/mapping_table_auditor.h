#ifndef COSTPERF_ANALYSIS_MAPPING_TABLE_AUDITOR_H_
#define COSTPERF_ANALYSIS_MAPPING_TABLE_AUDITOR_H_

#include "analysis/invariant_checker.h"
#include "bwtree/bwtree.h"
#include "llama/cache_manager.h"

namespace costperf::analysis {

// Audits the mapping table against the tree that owns it and (optionally)
// the cache manager's resident-set accounting. Rule ids:
//   dangling-free      tree-reachable page id sitting on the free list
//   beyond-high-water  tree-reachable page id that was never allocated
//   leaked-pid         allocated id holding a live mapping word (memory
//                      pointer or flash address) that the tree can no
//                      longer reach — pinned memory/flash with no owner.
//                      Detached ids with a zeroed word are NOT leaks:
//                      merge SMOs park ids that way until epoch reclaim.
//   cache-not-resident cache manager believes a page is resident but its
//                      mapping entry is null or a flash address
//   resident-untracked the converse: a tree-reachable leaf whose mapping
//                      entry is a memory pointer has no cache entry, so
//                      it holds DRAM that no victim pick can reach
class MappingTableAuditor : public InvariantChecker {
 public:
  // `cache` may be null (tree without resident-set accounting).
  MappingTableAuditor(bwtree::BwTree* tree, llama::CacheManager* cache)
      : tree_(tree), cache_(cache) {}

  std::string_view name() const override { return "MappingTableAuditor"; }
  std::vector<Violation> Check() override;

 private:
  bwtree::BwTree* tree_;
  llama::CacheManager* cache_;
};

}  // namespace costperf::analysis

#endif  // COSTPERF_ANALYSIS_MAPPING_TABLE_AUDITOR_H_
