// Reproduces the §6.1 claims about log-structuring:
//  (1) many pages per device write (large flush buffers),
//  (2) variable-size pages save ~30% media vs fixed 4K blocks (B-tree
//      pages run ~ln(2) ~ 69% full).

#include <cstdio>

#include "bench/bench_util.h"

namespace costperf {
namespace {

using bench::Banner;

int Run() {
  Banner("§6.1 — log-structuring for reduced writes",
         "One large write per segment; variable pages ~30% smaller than "
         "fixed blocks.");

  constexpr uint64_t kRecords = 40'000;
  constexpr uint64_t kBlockBytes = 4096;

  // --- baseline: full-page flushes of a freshly loaded store ---
  core::CachingStore store(bench::FigureStoreOptions());
  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(kRecords);
  spec.value_size = 100;
  workload::Workload loader(spec);
  if (!loader.Load(&store).ok()) return 1;
  if (!store.Checkpoint().ok()) return 1;

  auto log_stats = store.log_store()->stats();
  auto dev_stats = store.device()->stats();
  const uint64_t pages = log_stats.records_appended;
  const uint64_t variable_bytes = log_stats.payload_bytes_appended;
  const uint64_t fixed_bytes = pages * kBlockBytes;

  printf("\nfull checkpoint of %llu records:\n",
         (unsigned long long)kRecords);
  printf("  pages flushed:            %12llu\n", (unsigned long long)pages);
  printf("  device writes:            %12llu  (%.0f pages per write — one "
         "large write per segment)\n",
         (unsigned long long)dev_stats.writes,
         pages / double(dev_stats.writes ? dev_stats.writes : 1));
  printf("  variable-size bytes:      %12llu  (avg %.0f B/page)\n",
         (unsigned long long)variable_bytes, variable_bytes / double(pages));
  printf("  fixed 4K-block bytes:     %12llu\n",
         (unsigned long long)fixed_bytes);
  printf("  variable/fixed = %.2f  (paper: ~0.7, i.e. ~30%% saved)\n",
         variable_bytes / double(fixed_bytes));

  if (variable_bytes >= fixed_bytes) {
    printf("WARNING: variable-size pages did not save media\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace costperf

int main() { return costperf::Run(); }
