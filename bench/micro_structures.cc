// Micro-benchmarks of the building blocks (google-benchmark): mapping
// table CAS/Get (Fig. 4's indirection), Bw-tree and MassTree point ops,
// delta-chain consolidation effects, epoch guards, CRC, compression, and
// the zipfian generator. These are the per-operation numbers the figure
// benches build on.

#include <benchmark/benchmark.h>

#include <memory>

#include "bwtree/bwtree.h"
#include "bwtree/page_codec.h"
#include "common/crc32.h"
#include "common/epoch.h"
#include "common/random.h"
#include "compression/compressor.h"
#include "mapping/mapping_table.h"
#include "masstree/masstree.h"

namespace costperf {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

void BM_MappingTableGet(benchmark::State& state) {
  mapping::MappingTable table(1 << 16);
  for (int i = 0; i < 1000; ++i) table.Allocate(i);
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(rng.Uniform(1000)));
  }
}
BENCHMARK(BM_MappingTableGet);

void BM_MappingTableCas(benchmark::State& state) {
  mapping::MappingTable table(1 << 16);
  mapping::PageId pid = table.Allocate(0);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Cas(pid, v, v + 2));
    v += 2;
  }
}
BENCHMARK(BM_MappingTableCas);

void BM_BwTreeGetInMemory(benchmark::State& state) {
  bwtree::BwTreeOptions opts;
  auto tree = std::make_unique<bwtree::BwTree>(opts);
  const uint64_t n = state.range(0);
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree->Put(Slice(Key(i)), "value-0123456789");
  }
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get(Slice(Key(rng.Uniform(n)))));
  }
}
BENCHMARK(BM_BwTreeGetInMemory)->Arg(10'000)->Arg(100'000);

void BM_BwTreePutInMemory(benchmark::State& state) {
  bwtree::BwTreeOptions opts;
  auto tree = std::make_unique<bwtree::BwTree>(opts);
  const uint64_t n = 100'000;
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree->Put(Slice(Key(i)), "value-0123456789");
  }
  Random rng(3);
  uint64_t ops = 0;
  for (auto _ : state) {
    (void)tree->Put(Slice(Key(rng.Uniform(n))), "value-9876543210");
    if (++ops % 8192 == 0) tree->ReclaimMemory();
  }
}
BENCHMARK(BM_BwTreePutInMemory);

void BM_MassTreeGet(benchmark::State& state) {
  masstree::MassTree tree;
  const uint64_t n = state.range(0);
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree.Put(Slice(Key(i)), "value-0123456789");
  }
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(Slice(Key(rng.Uniform(n)))));
  }
}
BENCHMARK(BM_MassTreeGet)->Arg(10'000)->Arg(100'000);

void BM_MassTreePut(benchmark::State& state) {
  masstree::MassTree tree;
  const uint64_t n = 100'000;
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree.Put(Slice(Key(i)), "value-0123456789");
  }
  Random rng(5);
  uint64_t ops = 0;
  for (auto _ : state) {
    (void)tree.Put(Slice(Key(rng.Uniform(n))), "value-9876543210");
    if (++ops % 8192 == 0) tree.ReclaimMemory();
  }
}
BENCHMARK(BM_MassTreePut);

void BM_EpochGuard(benchmark::State& state) {
  EpochManager mgr;
  for (auto _ : state) {
    EpochGuard g(&mgr);
    benchmark::DoNotOptimize(&g);
  }
}
BENCHMARK(BM_EpochGuard);

void BM_Crc32c4K(benchmark::State& state) {
  std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc32c4K);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_ZipfianNext);

// A leaf as the CSS tier compresses it: 16-byte keys and 256-byte values
// of a binary header and a repeated per-key text template, filled to
// about 3.3 KB (the tiered store's average leaf between splits).
std::string WorkloadShapedLeafImage() {
  bwtree::LeafBase leaf;
  Random rng(6);
  for (uint32_t k = 5000; k < 5012; ++k) {
    char key[17];
    snprintf(key, sizeof(key), "key:%012u", k);
    std::string value(256, '\0');
    rng.Fill(value.data(), 16);
    char frag[48];
    const int n =
        snprintf(frag, sizeof(frag), "|key=%08x|status=active|region=2", k);
    for (size_t i = 16; i < value.size(); ++i) value[i] = frag[(i - 16) % n];
    leaf.keys.emplace_back(key, 16);
    leaf.values.push_back(std::move(value));
  }
  std::string image;
  bwtree::PageCodec::EncodeLeaf(leaf, &image);
  return image;
}

// A decoder that failed early would time as fast as a correct one.
bool RoundTrips(benchmark::State& state, const std::string& page,
                const std::string& compressed) {
  std::string back;
  Status s = compression::Compressor::Decompress(Slice(compressed), &back);
  if (s.ok() && back == page) return true;
  const std::string why = "page does not round-trip: " + s.ToString();
  state.SkipWithError(why.c_str());
  return false;
}

void BM_CompressPage(benchmark::State& state) {
  const std::string page = WorkloadShapedLeafImage();
  std::string out;
  compression::Compressor::Compress(Slice(page), &out);
  if (!RoundTrips(state, page, out)) return;
  for (auto _ : state) {
    compression::Compressor::Compress(Slice(page), &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * page.size());
}
BENCHMARK(BM_CompressPage);

void BM_DecompressPage(benchmark::State& state) {
  const std::string page = WorkloadShapedLeafImage();
  std::string compressed, out;
  compression::Compressor::Compress(Slice(page), &compressed);
  if (!RoundTrips(state, page, compressed)) return;
  for (auto _ : state) {
    Status s = compression::Compressor::Decompress(Slice(compressed), &out);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * page.size());
}
BENCHMARK(BM_DecompressPage);

// Delta-chain length vs read cost: the consolidation trade-off.
void BM_BwTreeGetWithChainLength(benchmark::State& state) {
  bwtree::BwTreeOptions opts;
  opts.consolidate_threshold = state.range(0) + 1;
  auto tree = std::make_unique<bwtree::BwTree>(opts);
  (void)tree->Put("hot-key", "v0");
  for (int i = 0; i < state.range(0); ++i) {
    (void)tree->Put("hot-key", "v" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get("hot-key"));
  }
}
BENCHMARK(BM_BwTreeGetWithChainLength)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace costperf

BENCHMARK_MAIN();
