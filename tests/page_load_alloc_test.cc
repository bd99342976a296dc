// Heap allocations of one page load. A leaf is its flash image, so loading
// it adopts the bytes the log store returns and indexes them in place: the
// number of allocations must not depend on how many records the page
// holds. Counted with a replacement global operator new that counts only
// on the calling thread, only while a load runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bwtree/bwtree.h"
#include "common/coding.h"
#include "llama/log_store.h"
#include "storage/device.h"

namespace {
thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace costperf::bwtree {
namespace {

enum class Tier { kPlain, kCompressed };

// Workload-shaped records: 16-byte keys, 256-byte values of a binary
// header and a per-key text template (compressible, as the CSS tier
// needs).
std::string Key(uint32_t k) {
  char buf[17];
  snprintf(buf, sizeof(buf), "key:%012u", k);
  return std::string(buf, 16);
}
std::string Value(uint32_t k) {
  std::string v(256, '\0');
  EncodeFixed64(v.data(), k * 0x9E3779B97F4A7C15ull);
  char frag[48];
  const int n =
      snprintf(frag, sizeof(frag), "|key=%08x|status=active|region=2", k);
  for (size_t i = 16; i < v.size(); ++i) v[i] = frag[(i - 16) % n];
  return v;
}

// Allocations LoadPage makes for a one-leaf tree of `records` records,
// evicted to a plain (SS) or compressed (CSS) log record. The page is
// evicted and loaded once to warm per-thread buffers, then measured.
uint64_t LoadAllocations(uint32_t records, Tier tier) {
  storage::SsdOptions dev;
  dev.capacity_bytes = 64ull << 20;
  dev.max_iops = 0;
  storage::SsdDevice device(dev);
  llama::LogStructuredStore log(&device);
  BwTreeOptions opts;
  opts.max_page_bytes = 64 << 10;  // one leaf
  opts.log_store = &log;
  // A compressed tree's flush writes the record its evictions swing onto,
  // each a demotion.
  if (tier == Tier::kCompressed) opts.css_min_ratio = 0.85;
  BwTree tree(opts);
  for (uint32_t k = 0; k < records; ++k) {
    EXPECT_TRUE(tree.Put(Key(k), Value(k)).ok());
  }
  EXPECT_TRUE(tree.FlushAll().ok());
  const std::vector<PageId> pids = tree.LeafPageIds();
  EXPECT_EQ(pids.size(), 1u);
  const PageId pid = pids.front();

  uint64_t counted = 0;
  for (int round = 0; round < 2; ++round) {
    EvictResult res;
    EXPECT_TRUE(tree.EvictPage(pid, &res).ok());
    EXPECT_EQ(res.demoted, tier == Tier::kCompressed);
    EXPECT_TRUE(log.Flush().ok());  // the record is read from the device
    const uint64_t css_hits = tree.stats().css_hits;
    t_allocations = 0;
    t_counting = true;
    const Status s = tree.LoadPage(pid);
    t_counting = false;
    counted = t_allocations;
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(tree.stats().css_hits - css_hits,
              tier == Tier::kCompressed ? 1u : 0u);
  }
  EXPECT_EQ(*tree.Get(Key(records - 1)), Value(records - 1));
  return counted;
}

void ExpectFlat(Tier tier) {
  std::vector<uint64_t> counts;
  for (uint32_t records : {2u, 12u, 30u}) {
    counts.push_back(LoadAllocations(records, tier));
    std::printf("%u records: %llu allocations per load\n", records,
                static_cast<unsigned long long>(counts.back()));
  }
  for (uint64_t c : counts) {
    EXPECT_EQ(c, counts.front()) << "allocations grow with the records";
    EXPECT_LE(c, 6u);
  }
}

TEST(PageLoadAllocTest, PlainRecordLoadDoesNotAllocatePerRecord) {
  ExpectFlat(Tier::kPlain);
}

TEST(PageLoadAllocTest, CompressedRecordLoadDoesNotAllocatePerRecord) {
  ExpectFlat(Tier::kCompressed);
}

}  // namespace
}  // namespace costperf::bwtree
