// Reproduces Figure 8 and §7.2: adding a compressed secondary storage
// (CSS) tier. Measures an actual compression ratio and decompression CPU
// cost on synthetic page images (structured records, as Facebook-style
// cold data would be), converts the decompress cost into the model's
// decompress_r, and prints the three-tier cost curves with their two
// switch points: CSS cheapest when very cold, SS in the middle, MM when
// hot.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "compression/compressor.h"
#include "costmodel/advisor.h"
#include "costmodel/calibration.h"
#include "costmodel/five_minute_rule.h"

namespace costperf {
namespace {

using bench::Banner;

std::string SyntheticPage(Random* rng, size_t approx_bytes) {
  std::string page;
  int i = 0;
  while (page.size() < approx_bytes) {
    char buf[128];
    snprintf(buf, sizeof(buf),
             "user%010d|name=customer_%d|city=city_%03d|balance=%08llu|",
             i, i % 1000, i % 250,
             static_cast<unsigned long long>(rng->Uniform(100000000)));
    page += buf;
    ++i;
  }
  return page;
}

int Run() {
  Banner("Figure 8 / §7.2 — compressed secondary storage (CSS) tier",
         "Compression trades CPU for storage: CSS wins on very cold data, "
         "SS in the middle, MM when hot — two crossovers.");

  // Measure real ratio & decompress CPU on ~2.7KB synthetic pages.
  Random rng(2024);
  constexpr int kPages = 400;
  std::vector<std::string> pages, compressed(kPages);
  for (int i = 0; i < kPages; ++i) pages.push_back(SyntheticPage(&rng, 2700));

  uint64_t raw_bytes = 0, comp_bytes = 0;
  for (int i = 0; i < kPages; ++i) {
    compression::Compressor::Compress(Slice(pages[i]), &compressed[i]);
    raw_bytes += pages[i].size();
    comp_bytes += compressed[i].size();
  }
  const double ratio = static_cast<double>(comp_bytes) / raw_bytes;

  // A decoder that failed early would time as fast as a correct one, so
  // every page must round-trip before the timed loop.
  std::string out;
  for (int i = 0; i < kPages; ++i) {
    Status s = compression::Compressor::Decompress(Slice(compressed[i]), &out);
    if (!s.ok() || out != pages[i]) {
      printf("FAIL: page %d does not round-trip: %s\n", i,
             s.ToString().c_str());
      return 1;
    }
  }

  // Decompression CPU per page.
  uint64_t t0 = ThreadCpuNanos();
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPages; ++i) {
      (void)compression::Compressor::Decompress(Slice(compressed[i]), &out);
    }
  }
  const double decompress_sec_per_page =
      (ThreadCpuNanos() - t0) * 1e-9 / (kRounds * kPages);

  costmodel::CostParams p = costmodel::CostParams::PaperDefaults();
  // Express decompression as a multiple of an MM operation (1/ROPS sec).
  const double mm_op_sec = 1.0 / p.rops;
  costmodel::CompressionParams comp;
  comp.compression_ratio = ratio;
  comp.decompress_r = decompress_sec_per_page / mm_op_sec;

  printf("\nmeasured compression: ratio = %.2f (%.0f -> %.0f bytes/page), "
         "decompress = %.2f us/page = %.1f MM-ops of CPU\n",
         ratio, raw_bytes / double(kPages), comp_bytes / double(kPages),
         decompress_sec_per_page * 1e6, comp.decompress_r);

  costmodel::CostAdvisor advisor(p, comp);
  printf("%s\n", advisor.DescribeRegimes().c_str());

  const double css_ss = costmodel::CssSsBreakevenOpsPerSec(p, comp);
  const double ss_mm = costmodel::MmSsBreakevenOpsPerSec(p);

  printf("\n%14s %13s %13s %13s %9s\n", "N (ops/sec)", "$MM", "$SS", "$CSS",
         "cheapest");
  for (double n = css_ss / 64; n <= ss_mm * 64; n *= 4) {
    auto a = advisor.AdviseForRate(n);
    printf("%14.6f %13.4e %13.4e %13.4e %9s\n", n, a.mm_cost, a.ss_cost,
           *a.css_cost, costmodel::TierName(a.tier).c_str());
  }

  printf("\nswitch points: CSS->SS at %.3g ops/sec, SS->MM at %.3g ops/sec\n",
         css_ss, ss_mm);
  printf("Do not be misled by the small left-hand range: the amount of "
         "data that cold can be enormous (§7.2).\n");

  // Shape check: tier order must be CSS -> SS -> MM as rate grows.
  auto cold = advisor.AdviseForRate(css_ss / 100).tier;
  auto mid = advisor.AdviseForRate((css_ss + ss_mm) / 2).tier;
  auto hot = advisor.AdviseForRate(ss_mm * 100).tier;
  if (cold != costmodel::Tier::kCompressedSecondary ||
      mid != costmodel::Tier::kSecondaryStorage ||
      hot != costmodel::Tier::kMainMemory) {
    printf("WARNING: tier regime order broke\n");
    return 1;
  }

  // --- the CSS tier running inside the actual store ---
  // Same dataset flushed uncompressed vs evicted to the compressed tier:
  // compare media bytes and the CPU of reading a page back from each.
  printf("\n--- CSS tier in the storage stack ---\n");
  // Two stores over the same records: one without the tier, whose
  // flushes write plain images, and one whose flushes compress every
  // image whatever its ratio, so every page the probe below evicts lands
  // on the compressed tier.
  const auto plain_opts = bench::FigureStoreOptions();
  auto css_opts = plain_opts;
  css_opts.tier.css_budget_bytes = 1ull << 30;
  css_opts.tier.min_ratio = std::numeric_limits<double>::infinity();
  core::CachingStore plain_store(plain_opts);
  core::CachingStore css_store(css_opts);
  constexpr int kStoreRecords = 20'000;
  for (int i = 0; i < kStoreRecords; ++i) {
    char key[32], val[96];
    snprintf(key, sizeof(key), "rec%010d", i);
    snprintf(val, sizeof(val), "name=customer_%04d|city=city_%03d|tier=%d|",
             i % 1000, i % 250, i % 3);
    if (!plain_store.Put(Slice(key), Slice(val)).ok()) return 1;
    if (!css_store.Put(Slice(key), Slice(val)).ok()) return 1;
  }
  uint64_t before = plain_store.log_store()->stats().payload_bytes_appended;
  for (auto pid : plain_store.tree()->LeafPageIds()) {
    (void)plain_store.tree()->FlushPage(pid);
  }
  uint64_t raw_media =
      plain_store.log_store()->stats().payload_bytes_appended - before;
  // Every page is dirty: its eviction flushes it compressed and swings
  // onto the record, a demotion.
  before = css_store.log_store()->stats().payload_bytes_appended;
  for (auto pid : css_store.tree()->LeafPageIds()) {
    (void)css_store.tree()->EvictPage(pid);
  }
  uint64_t css_media =
      css_store.log_store()->stats().payload_bytes_appended - before;
  printf("media bytes for the dataset: full pages %llu, CSS pages %llu "
         "(ratio %.2f)\n",
         (unsigned long long)raw_media, (unsigned long long)css_media,
         css_media / double(raw_media));

  // CPU per SS read from the compressed tier vs the plain tier.
  auto probe = [&](bool compressed) {
    core::CachingStore& store = compressed ? css_store : plain_store;
    Random prng(9);
    uint64_t nanos = 0;
    constexpr int kProbes = 800;
    for (int i = 0; i < kProbes; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "rec%010d",
               (int)prng.Uniform(kStoreRecords));
      // Force the page onto the probed tier: dirty it, then evict it —
      // flushed in the store's record form — and time the read back.
      auto pid = store.tree()->LeafOf(Slice(key));
      if (!pid.ok()) continue;
      (void)store.tree()->Get(Slice(key));  // ensure resident
      (void)store.tree()->Put(Slice(key), "probe-touch");
      (void)store.tree()->EvictPage(*pid);
      uint64_t t0 = ThreadCpuNanos();
      (void)store.tree()->Get(Slice(key));
      nanos += ThreadCpuNanos() - t0;
      if (i % 256 == 0) store.tree()->ReclaimMemory();
    }
    return nanos / double(kProbes);
  };
  double plain_ns = probe(/*compressed=*/false);
  double css_ns = probe(/*compressed=*/true);
  printf("SS read CPU: plain %.1f us, CSS %.1f us (decompression premium "
         "%.2fx) — execution traded for storage, exactly Fig. 8's CSS "
         "line.\n",
         plain_ns / 1e3, css_ns / 1e3, css_ns / plain_ns);
  return 0;
}

}  // namespace
}  // namespace costperf

int main() { return costperf::Run(); }
