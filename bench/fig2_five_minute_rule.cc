// Reproduces Figure 2 and §4.2: MM vs SS operation cost as the access
// rate changes, and the updated five-minute rule breakeven T_i ~ 45 s.
// Printed twice: once with the paper's §4.1 constants, once with rates
// calibrated on OUR substrate (measured ROPS from Bw-tree MM gets,
// measured IOPS from the simulated device, measured R from a quick mixed
// run) — the crossover shape must hold in both.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "costmodel/calibration.h"
#include "costmodel/five_minute_rule.h"
#include "costmodel/operation_cost.h"

namespace costperf {
namespace {

using bench::Banner;
using bench::FigureStoreOptions;

void PrintCostCurves(const costmodel::CostParams& p, const char* label) {
  printf("\n--- %s ---\n", label);
  printf("params: %s\n", p.ToString().c_str());
  double t_i = costmodel::BreakevenIntervalSeconds(p);
  double n_star = costmodel::BreakevenOpsPerSec(p);
  printf("breakeven: T_i = %.1f s  (N* = %.4f ops/sec)\n", t_i, n_star);
  printf("classic (Gray, I/O-vs-memory only) T_i = %.1f s — the CPU path "
         "term adds the difference (§4.2 'additional cost')\n",
         costmodel::ClassicBreakevenIntervalSeconds(p));
  printf("record-granularity (P_s/10) T_i = %.1f s (§6.3: ~10x the page "
         "breakeven)\n",
         costmodel::RecordBreakevenIntervalSeconds(p, p.page_size_bytes / 10));

  printf("\n%14s %14s %14s %9s\n", "N (ops/sec)", "$MM", "$SS", "cheaper");
  for (double n = n_star / 64; n <= n_star * 64; n *= 4) {
    auto mm = costmodel::MmCost(n, p);
    auto ss = costmodel::SsCost(n, p);
    printf("%14.5f %14.4e %14.4e %9s\n", n, mm.total(), ss.total(),
           mm.total() <= ss.total() ? "MM" : "SS");
  }
}

int Run() {
  Banner("Figure 2 / §4.2 — the updated five-minute rule",
         "SS cheaper left of the crossover (storage-dominated), MM cheaper "
         "right of it (execution-dominated); paper T_i ~ 45 s.");

  // 1. Paper constants.
  costmodel::CostParams paper = costmodel::CostParams::PaperDefaults();
  PrintCostCurves(paper, "paper §4.1 constants");

  // Structural ratios the paper quotes.
  printf("\nstorage-cost ratio MM/SS = %.1fx (paper: ~11x)\n",
         costmodel::MmCost(0, paper).storage /
             costmodel::SsCost(0, paper).storage);
  double n = 1000;
  printf("execution-cost ratio SS/MM = %.1fx (paper: ~12x)\n",
         costmodel::SsCost(n, paper).execution /
             costmodel::MmCost(n, paper).execution);

  // 2. Calibrated on our substrate.
  core::CachingStore store(bench::FigureStoreOptions());
  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbC(50'000);
  workload::Workload loader(spec);
  if (!loader.Load(&store).ok()) return 1;
  if (!store.Checkpoint().ok()) return 1;

  // Measured ROPS and R with identical probe loops (only the eviction
  // before the Get differs), so the ratio is apples-to-apples — the same
  // discipline the paper uses for its R derivation.
  Random rng(123);
  auto* tree = store.tree();
  for (int i = 0; i < 40'000; ++i) {
    (void)tree->Get(Slice(loader.KeyAt(rng.Uniform(50'000))));
  }
  uint64_t mm_nanos = 0;
  const int kMmProbes = 100'000;
  for (int i = 0; i < kMmProbes; ++i) {
    std::string key = loader.KeyAt(rng.Uniform(50'000));
    uint64_t t0 = ThreadCpuNanos();
    (void)tree->Get(Slice(key));
    mm_nanos += ThreadCpuNanos() - t0;
  }
  double rops = kMmProbes / (mm_nanos * 1e-9);

  // Warm the SS path before timing (the paper excludes the cold-path
  // regime from its R derivation).
  for (int i = 0; i < 1'000; ++i) {
    std::string key = loader.KeyAt(rng.Uniform(50'000));
    auto pid = tree->LeafOf(Slice(key));
    if (pid.ok()) tree->EvictPage(*pid);
    (void)tree->Get(Slice(key));
    if (i % 512 == 0) tree->ReclaimMemory();
  }

  uint64_t ss_nanos = 0;
  const int kSsProbes = 5'000;
  for (int i = 0; i < kSsProbes; ++i) {
    std::string key = loader.KeyAt(rng.Uniform(50'000));
    auto pid = tree->LeafOf(Slice(key));
    if (pid.ok()) tree->EvictPage(*pid);
    uint64_t t0 = ThreadCpuNanos();
    (void)tree->Get(Slice(key));
    ss_nanos += ThreadCpuNanos() - t0;
    if (i % 1024 == 0) tree->ReclaimMemory();
  }
  double ss_op_seconds = ss_nanos * 1e-9 / kSsProbes;
  double measured_r = ss_op_seconds * rops;

  // Measured IOPS of a throttled device configured like the paper's.
  storage::SsdOptions dev_probe;
  dev_probe.max_iops = 200'000;
  storage::SsdDevice probe(dev_probe);
  double iops = probe.MeasureIops(50'000);

  costmodel::CalibrationReport cal;
  cal.rops = rops;
  cal.iops = iops;
  cal.r = measured_r;
  costmodel::CostParams ours = costmodel::ApplyCalibration(paper, cal);
  PrintCostCurves(ours, "calibrated on this substrate");

  printf("\ncalibration: measured ROPS=%.3g, IOPS=%.3g, R=%.2f\n", rops,
         iops, measured_r);
  return 0;
}

}  // namespace
}  // namespace costperf

int main() { return costperf::Run(); }
