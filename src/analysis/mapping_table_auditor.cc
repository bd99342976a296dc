#include "analysis/mapping_table_auditor.h"

#include <string>
#include <unordered_set>

#include "analysis/bwtree_validator.h"
#include "bwtree/node.h"

namespace costperf::analysis {

namespace {

using mapping::PageId;

std::string PidEntity(PageId pid) { return "pid " + std::to_string(pid); }

}  // namespace

std::vector<Violation> MappingTableAuditor::Check() {
  std::vector<Violation> out;
  mapping::MappingTable* table = tree_->mapping_table();

  std::vector<PageId> reachable_list = CollectReachablePids(tree_);
  std::unordered_set<PageId> reachable(reachable_list.begin(),
                                       reachable_list.end());
  std::vector<PageId> free_list = table->FreeListSnapshot();
  std::unordered_set<PageId> free_ids(free_list.begin(), free_list.end());
  const PageId high_water = table->high_water();

  for (PageId pid : reachable_list) {
    if (free_ids.count(pid) != 0) {
      out.push_back(Violation{
          "MappingTableAuditor", "dangling-free", PidEntity(pid),
          "tree-reachable page id is on the mapping table's free list"});
    }
    if (pid >= high_water) {
      out.push_back(Violation{
          "MappingTableAuditor", "beyond-high-water", PidEntity(pid),
          "tree references id " + std::to_string(pid) +
              " past the allocation high water mark " +
              std::to_string(high_water)});
    }
  }

  for (PageId pid = 0; pid < high_water && pid < table->capacity(); ++pid) {
    if (free_ids.count(pid) != 0 || reachable.count(pid) != 0) continue;
    uint64_t word = table->Get(pid);
    if (word == 0) continue;  // detached, awaiting epoch recycle — not a leak
    out.push_back(Violation{
        "MappingTableAuditor", "leaked-pid", PidEntity(pid),
        std::string("allocated id holds a live ") +
            (bwtree::IsFlashWord(word) ? "flash address" : "memory pointer") +
            " but is unreachable from the tree"});
  }

  if (cache_ != nullptr) {
    std::unordered_set<PageId> tracked;
    for (const auto& [pid, bytes] : cache_->ResidentEntries()) {
      tracked.insert(pid);
      uint64_t word = pid < table->capacity() ? table->Get(pid) : 0;
      if (word == 0 || bwtree::IsFlashWord(word)) {
        out.push_back(Violation{
            "MappingTableAuditor", "cache-not-resident", PidEntity(pid),
            "cache manager accounts " + std::to_string(bytes) +
                " resident bytes but the mapping entry is " +
                (word == 0 ? "null" : "a flash address")});
      }
    }
    for (PageId pid : CollectMemoryLeafPids(tree_)) {
      if (tracked.count(pid) != 0) continue;
      out.push_back(Violation{
          "MappingTableAuditor", "resident-untracked", PidEntity(pid),
          "leaf's mapping entry is a memory pointer but the cache manager "
          "does not track it"});
    }
  }

  return out;
}

}  // namespace costperf::analysis
