#include "analysis/mapping_table_auditor.h"

#include <string>
#include <unordered_set>

#include "analysis/bwtree_validator.h"
#include "bwtree/node.h"
#include "llama/log_store.h"

namespace costperf::analysis {

namespace {

using mapping::PageId;

std::string PidEntity(PageId pid) { return "pid " + std::to_string(pid); }

// Empty when `word` names pid's own compressed record of `bytes` stored
// bytes; otherwise what the entry names instead.
std::string CssRecordMismatch(llama::LogStructuredStore* log, PageId pid,
                              uint64_t word, uint64_t bytes) {
  if (word == 0) return "null";
  if (!bwtree::IsFlashWord(word)) return "a memory pointer";
  if (log == nullptr) return "a flash address with no log store";
  const llama::FlashAddress addr = bwtree::DecodeFlash(word);
  std::string image;
  PageId owner = mapping::kInvalidPageId;
  bool compressed = false;
  const Status s = log->Read(addr, &image, &owner, &compressed);
  if (!s.ok()) return "an unreadable record (" + s.ToString() + ")";
  if (owner != pid) return "page " + std::to_string(owner) + "'s record";
  if (!compressed) return "a plain record";
  const uint64_t stored = addr.len() - llama::LogStructuredStore::kHeaderBytes;
  if (stored != bytes) {
    return "a compressed record of " + std::to_string(stored) +
           " stored bytes";
  }
  return "";
}

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
    for (const auto& [pid, bytes] : cache_->ResidentEntries()) {
      uint64_t word = pid < table->capacity() ? table->Get(pid) : 0;
      if (word == 0 || bwtree::IsFlashWord(word)) {
        out.push_back(Violation{
            "MappingTableAuditor", "cache-not-resident", PidEntity(pid),
            "cache manager accounts " + std::to_string(bytes) +
                " resident bytes but the mapping entry is " +
                (word == 0 ? "null" : "a flash address")});
      }
    }
    for (const auto& [pid, bytes] : cache_->CssEntries()) {
      const uint64_t word = pid < table->capacity() ? table->Get(pid) : 0;
      const std::string mismatch =
          CssRecordMismatch(tree_->options().log_store, pid, word, bytes);
      if (mismatch.empty()) continue;
      out.push_back(Violation{
          "MappingTableAuditor", "css-record", PidEntity(pid),
          "cache manager charges a CSS entry " + std::to_string(bytes) +
              " stored bytes but the mapping entry is " + mismatch});
    }
  }

  return out;
}

}  // namespace costperf::analysis
