// Reproduces Figure 7 and §7.1.1: the effect of the I/O execution path on
// cost/performance. The same store runs the same miss-heavy workload
// under (a) an OS-mediated I/O path and (b) a user-level (SPDK-style)
// path; we derive R for each and show the cheaper path flattens the SS
// cost line and shrinks the breakeven interval. Paper: R dropped from ~9x
// to ~5.8x, about a third off the I/O execution path.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "costmodel/calibration.h"
#include "costmodel/five_minute_rule.h"
#include "costmodel/operation_cost.h"

namespace costperf {
namespace {

using bench::Banner;

struct PathResult {
  double rops;       // MM ops/sec-cpu
  double ss_op_sec;  // CPU seconds per SS op
  double r;
};

PathResult MeasurePath(storage::IoPathKind kind) {
  core::CachingStore store(bench::FigureStoreOptions());
  store.device()->set_io_path(kind);
  constexpr uint64_t kRecords = 50'000;
  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(kRecords);
  workload::Workload loader(spec);
  (void)loader.Load(&store);
  (void)store.Checkpoint();

  auto* tree = store.tree();
  Random rng(kind == storage::IoPathKind::kUserLevel ? 1 : 2);
  for (int i = 0; i < 20'000; ++i) {
    (void)tree->Get(Slice(loader.KeyAt(rng.Uniform(kRecords))));
  }
  PathResult res;
  res.rops = costmodel::MeasureRops(
      [&] { (void)tree->Get(Slice(loader.KeyAt(rng.Uniform(kRecords)))); },
      100'000);

  // Warm the SS path itself (allocator, page-load code, flash chunks)
  // before timing; the paper likewise excludes the "very cold" I/O-path
  // regime from its R derivation.
  for (int i = 0; i < 1'000; ++i) {
    std::string key = loader.KeyAt(rng.Uniform(kRecords));
    auto pid = tree->LeafOf(Slice(key));
    if (pid.ok()) tree->EvictPage(*pid);
    (void)tree->Get(Slice(key));
    if (i % 512 == 0) tree->ReclaimMemory();
  }

  uint64_t ss_nanos = 0;
  const int kProbes = 3'000;
  for (int i = 0; i < kProbes; ++i) {
    std::string key = loader.KeyAt(rng.Uniform(kRecords));
    auto pid = tree->LeafOf(Slice(key));
    if (pid.ok()) tree->EvictPage(*pid);
    uint64_t t0 = ThreadCpuNanos();
    (void)tree->Get(Slice(key));
    ss_nanos += ThreadCpuNanos() - t0;
    if (i % 1024 == 0) tree->ReclaimMemory();
  }
  res.ss_op_sec = ss_nanos * 1e-9 / kProbes;
  res.r = res.ss_op_sec * res.rops;
  return res;
}

int Run() {
  Banner("Figure 7 / §7.1.1 — optimizing the I/O execution path",
         "User-level I/O (SPDK-style) cuts the SS execution path; R drops "
         "(paper: ~9x -> ~5.8x), SS cost-line slope falls, breakeven "
         "shrinks.");

  PathResult os_path = MeasurePath(storage::IoPathKind::kOsMediated);
  PathResult user_path = MeasurePath(storage::IoPathKind::kUserLevel);

  printf("\n%-22s %14s %16s %8s\n", "I/O path", "MM ops/s-cpu",
         "SS op cpu (us)", "R");
  printf("%-22s %14.0f %16.2f %8.2f\n", "OS-mediated", os_path.rops,
         os_path.ss_op_sec * 1e6, os_path.r);
  printf("%-22s %14.0f %16.2f %8.2f\n", "user-level (SPDK)",
         user_path.rops, user_path.ss_op_sec * 1e6, user_path.r);
  printf("\npath improvement: SS op cost ratio os/user = %.2f "
         "(paper: R 9 -> 5.8, i.e. ~1.55x)\n",
         os_path.ss_op_sec / user_path.ss_op_sec);

  // Cost lines under the two Rs (everything else equal).
  costmodel::CostParams base = costmodel::CostParams::PaperDefaults();
  costmodel::CostParams p_os = base, p_user = base;
  p_os.r = os_path.r;
  p_user.r = user_path.r;

  printf("\n%14s %14s %14s  (SS cost at paper prices)\n", "N (ops/sec)",
         "$SS os-path", "$SS user-path");
  for (double n = 0.001; n <= 4.1; n *= 4) {
    printf("%14.3f %14.4e %14.4e\n", n,
           costmodel::SsCost(n, p_os).total(),
           costmodel::SsCost(n, p_user).total());
  }
  printf("\nbreakeven T_i: os-path = %.1f s, user-path = %.1f s "
         "(smaller => evict earlier, lower cost over a wide range)\n",
         costmodel::BreakevenIntervalSeconds(p_os),
         costmodel::BreakevenIntervalSeconds(p_user));

  if (os_path.r <= user_path.r) {
    printf("WARNING: expected OS path R > user path R\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace costperf

int main() { return costperf::Run(); }
