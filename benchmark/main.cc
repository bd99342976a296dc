// costperf_benchmark: one run of one workload of the repo benchmark.
//
//   costperf_benchmark --workload NAME [--seed N] [--seconds S]
//                      [--trace 0|1] [--out FILE] [--trace-dir DIR]
//   costperf_benchmark --selftest
//
// Runs five trials of S/5 seconds. Each builds a fresh store (setup,
// timed), warms it up, measures it, then quiesces maintenance, checks
// invariants and reads every key back; every metric is the median over the
// trials. Prints every metric by name with its unit; the last line is one
// JSON object with "correct", "attempted", "failed" and "metrics" — the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a traced
// run. --trace 1 splits the S seconds between one untraced and one traced
// trial, so a traced call takes about as long as an untraced one. --out
// appends a fuller record (host fingerprint, validity, all metrics) as a
// JSON line. Exits 1 when any output was wrong.

#include <dirent.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "compression/compressor.h"
#include "costmodel/cost_params.h"
#include "costmodel/five_minute_rule.h"
#include "gen.h"
#include "stack.h"
#include "trace.h"

#ifndef COSTPERF_BENCHMARK_BUILD_TYPE
#define COSTPERF_BENCHMARK_BUILD_TYPE "unknown"
#endif

namespace costperf::benchmark {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 35;
  bool trace = false;
  std::string out;
  std::string trace_dir = "build-benchmark/trace";
};

// Where a metric comes from. Counter metrics exist in every run; traced
// ones need the TimedStore decorators; probe ones time a layer's public
// function on the quiesced store after the traced run.
enum class Source { kEndToEnd, kCounter, kTraced, kProbe };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Source source;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- host ---------------------------------------------------------------

std::string ReadFirstLine(const char* path) {
  FILE* f = fopen(path, "r");
  if (f == nullptr) return "";
  char buf[512] = {};
  if (fgets(buf, sizeof(buf), f) == nullptr) buf[0] = '\0';
  fclose(f);
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string CpuModel() {
  FILE* f = fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "model name", 10) == 0) {
      const char* colon = strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() && model.back() == '\n') model.pop_back();
      }
      break;
    }
  }
  fclose(f);
  return model;
}

struct Host {
  long nproc = 0;
  std::string cpu, simd, build, commit;
  double loadavg = 0;
  bool pinned = false;  // the working threads ran one per CPU
};

Host Fingerprint() {
  Host h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.cpu = CpuModel();
  h.simd = simd::BackendName();
  h.build = COSTPERF_BENCHMARK_BUILD_TYPE;
  const char* commit = getenv("COSTPERF_BENCHMARK_COMMIT");
  h.commit = commit != nullptr && *commit != '\0' ? commit : "unknown";
  h.loadavg = atof(ReadFirstLine("/proc/loadavg").c_str());
  return h;
}

// --- per-thread CPU -------------------------------------------------------

// CPU nanoseconds of every live thread of this process, from
// /proc/self/task/<tid>/schedstat (nanosecond resolution).
std::map<pid_t, uint64_t> TaskCpuNanos() {
  std::map<pid_t, uint64_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/schedstat";
    FILE* f = fopen(path.c_str(), "r");
    if (f == nullptr) continue;  // the thread exited meanwhile
    unsigned long long ns = 0;
    if (fscanf(f, "%llu", &ns) == 1) out[atoi(e->d_name)] = ns;
    fclose(f);
  }
  closedir(dir);
  return out;
}

// Threads of this process that did not exist in `before`.
std::set<pid_t> NewTasks(const std::map<pid_t, uint64_t>& before) {
  std::set<pid_t> out;
  for (const auto& [tid, ns] : TaskCpuNanos()) {
    if (before.count(tid) == 0) out.insert(tid);
  }
  return out;
}

// Pins each of `tids` to a CPU of its own, in order, from the CPUs this
// process may use, so the kernel never stacks two working threads on one
// CPU while another idles. Returns the CPUs used; none when there are too
// few CPUs to pin every thread.
std::vector<int> PinThreads(const std::vector<pid_t>& tids) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < tids.size()) return {};
  cpus.resize(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    if (sched_setaffinity(tids[i], sizeof(one), &one) != 0) return {};
  }
  return cpus;
}

// Clock ticks the hypervisor gave these CPUs to someone else while they
// had work (the steal column of /proc/stat), summed over `cpus`, or over
// all CPUs when `cpus` is empty. Time stolen from a client is time it
// completes no operations, so it lowers throughput but not per-op latency.
double StealTicks(const std::vector<int>& cpus) {
  FILE* f = fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  char line[512];
  double ticks = 0;
  while (fgets(line, sizeof(line), f) != nullptr &&
         strncmp(line, "cpu", 3) == 0) {
    char name[16];
    unsigned long long v[8] = {};
    if (sscanf(line, "%15s %llu %llu %llu %llu %llu %llu %llu %llu", name,
               &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 9) {
      continue;
    }
    const bool total = strcmp(name, "cpu") == 0;
    const bool wanted =
        cpus.empty() ? total
                     : !total && std::find(cpus.begin(), cpus.end(),
                                           atoi(name + 3)) != cpus.end();
    if (wanted) ticks += static_cast<double>(v[7]);
  }
  fclose(f);
  return ticks;
}

// --- snapshots --------------------------------------------------------------

struct Snapshot {
  std::map<std::string, double> c;  // cumulative counters and gauges
  std::map<pid_t, uint64_t> cpu;
};

void AddLayer(const char* prefix, const LayerTotals& t,
              std::map<std::string, double>* c) {
  const std::string p(prefix);
  (*c)[p + "read_keys"] = t.read_keys;
  (*c)[p + "read_ns"] = t.read_ns;
  (*c)[p + "write_keys"] = t.write_keys;
  (*c)[p + "write_ns"] = t.write_ns;
  (*c)[p + "cpu_keys"] = t.cpu_keys;
  (*c)[p + "cpu_ns"] = t.cpu_ns;
  (*c)[p + "mm_keys"] = t.mm_keys;
  (*c)[p + "mm_ns"] = t.mm_ns;
  (*c)[p + "ss_keys"] = t.ss_keys;
  (*c)[p + "ss_ns"] = t.ss_ns;
}

Snapshot Take(Stack* s, const Tracer* tracer) {
  Snapshot snap;
  snap.cpu = TaskCpuNanos();
  auto& c = snap.c;
  // Additive KvStoreStats fields only: ShardedStore sums them per shard.
  const core::KvStoreStats st = s->top->Stats();
  c["hits"] = st.hits;
  c["misses"] = st.misses;
  c["cache_touches"] = st.cache_touches;
  c["cache_touches_sampled"] = st.cache_touches_sampled;
  c["epoch_reclaimed"] = st.epoch_reclaimed_items;
  c["fg_maintenance"] = st.foreground_maintenance_ops;
  c["write_stalls"] = st.write_stalls;
  c["stall_micros"] = st.stall_micros_total;
  c["demotions"] = st.tier_demotions;
  c["promotions"] = st.tier_promotions;
  c["css_hits"] = st.tier_css_hits;
  c["css_raw_bytes"] = st.css_raw_bytes;
  c["css_stored_bytes"] = st.css_stored_bytes;
  c["dram_bytes"] = st.tier_dram_bytes;
  c["dram_pages"] = st.tier_dram_pages;
  for (core::CachingStore* shard : s->shards) {
    const bwtree::BwTreeStats t = shard->tree()->stats();
    c["consolidations"] += t.consolidations;
    c["page_loads"] += t.page_loads;
    c["rc_hits"] += t.record_cache_hits;
    c["tree_gets"] += t.gets;
    c["relocation_retries"] += t.read_relocation_retries;
    c["cas_failures"] += t.cas_failures;
    c["evictions"] += shard->cache()->stats().evictions;
    const llama::LogStoreStats l = shard->log_store()->stats();
    c["log_records"] += l.records_appended;
    c["log_groups"] += l.append_groups;
    c["gc_relocated"] += l.gc_relocated_records;
    for (const llama::SegmentInfo& seg : shard->log_store()->segments()) {
      c["seg_used"] += seg.used_bytes;
      c["seg_dead"] += seg.dead_bytes;
    }
    const storage::DeviceStatsSnapshot d = shard->device()->stats();
    c["dev_reads"] += d.reads;
    c["dev_writes"] += d.writes;
    c["dev_bytes_written"] += d.bytes_written;
    c["path_units"] += d.path_units;
  }
  const maintenance::SchedulerStats m = s->scheduler->stats();
  c["steps"] = m.steps;
  c["requeues"] = m.requeues;
  if (tracer != nullptr) {
    AddLayer("sharded.", tracer->Totals(Layer::kSharded), &c);
    AddLayer("caching.", tracer->Totals(Layer::kCaching), &c);
  }
  return snap;
}

constexpr uint64_t kFootprintEvery = 500'000'000;

// Mean resident DRAM and flash bytes over the measured window. Flash is
// the bytes in the log's segments, live and dead: what the store keeps on
// flash until GC trims it. The simulated device's occupied_bytes counts
// whole 1 MiB chunks and frees only chunks a trim covers entirely, so it
// also grows with the chunks that segment boundaries leave behind.
struct Footprint {
  double dram = 0;
  double flash = 0;
};

// --- probes -----------------------------------------------------------------

struct Probes {
  double single_ns = 0, batched_ns = 0, read_4k_ns = 0;
  double compress_ns_per_kib = 0, decompress_ns_per_kib = 0, ratio = 0;
};

// Median over passes of the nanoseconds one call of `pass` takes per unit.
template <typename Fn>
double TimePerUnit(int passes, double units, Fn&& pass) {
  std::vector<double> ns;
  for (int i = 0; i < passes; ++i) {
    const uint64_t t0 = NowNanos();
    pass();
    ns.push_back(static_cast<double>(NowNanos() - t0) / units);
  }
  return Median(ns);
}

Probes RunProbes(Stack* s, const Workload& w, uint64_t seed,
                 const VersionTable& versions) {
  constexpr int kPasses = 5;
  constexpr size_t kProbeKeys = 4096;
  constexpr size_t kBatch = 64;
  Probes p;
  KeyChooser chooser(w.load.keys, w.load.zipf_theta, Hash64(seed ^ 0x9b));
  std::vector<std::vector<std::string>> by_shard(kShards);
  for (size_t i = 0; i < kProbeKeys; ++i) {
    std::string key = KeyOf(chooser.Next());
    by_shard[s->sharded->ShardIndexOf(key)].push_back(std::move(key));
  }
  std::string value;
  p.single_ns = TimePerUnit(kPasses, kProbeKeys, [&] {
    for (size_t i = 0; i < kShards; ++i) {
      bwtree::BwTree* tree = s->shards[i]->tree();
      for (const std::string& key : by_shard[i]) (void)tree->Get(key, &value);
    }
  });
  std::vector<std::string> values(kBatch);
  std::vector<Status> statuses(kBatch);
  std::vector<BatchGetOp> ops(kBatch);
  p.batched_ns = TimePerUnit(kPasses, kProbeKeys, [&] {
    for (size_t i = 0; i < kShards; ++i) {
      const auto& keys = by_shard[i];
      for (size_t b = 0; b < keys.size(); b += kBatch) {
        const size_t n = std::min(kBatch, keys.size() - b);
        for (size_t j = 0; j < n; ++j) {
          ops[j] = BatchGetOp{Slice(keys[b + j]), &values[j], &statuses[j]};
        }
        s->shards[i]->tree()->MultiGetBatch(ops.data(), n);
      }
    }
  });

  constexpr size_t kReads = 1024;
  constexpr uint64_t kSpanPages = (64ull << 20) / 4096;
  std::vector<char> page(4096);
  Random rng(Hash64(seed ^ 0x4f));
  storage::SsdDevice* device = s->shards[0]->device();
  p.read_4k_ns = TimePerUnit(kPasses, kReads, [&] {
    for (size_t i = 0; i < kReads; ++i) {
      (void)device->Read(rng.Uniform(kSpanPages) * 4096, 4096, page.data());
    }
  });

  // Page-sized buffers of (key, value) records as the tier would see them.
  constexpr size_t kPages = 32;
  std::vector<std::string> raw(kPages), packed(kPages);
  for (std::string& buf : raw) {
    while (buf.size() < 4096) {
      const uint32_t k = chooser.Next();
      buf += KeyOf(k);
      EncodeValue(k, versions.acked(k), w.load.value_bytes, &value);
      buf += value;
    }
    buf.resize(4096);
  }
  p.compress_ns_per_kib = TimePerUnit(kPasses, kPages * 4, [&] {
    for (size_t i = 0; i < kPages; ++i) {
      compression::Compressor::Compress(raw[i], &packed[i]);
    }
  });
  p.decompress_ns_per_kib = TimePerUnit(kPasses, kPages * 4, [&] {
    for (size_t i = 0; i < kPages; ++i) {
      (void)compression::Compressor::Decompress(packed[i], &value);
    }
  });
  double stored = 0;
  for (const std::string& buf : packed) stored += buf.size();
  p.ratio = stored / (kPages * 4096.0);
  return p;
}

// --- one run ----------------------------------------------------------------

struct RunResult {
  std::vector<Metric> metrics;
  std::vector<std::string> invalid;  // why the run must not be compared
  bool ok = true;                    // setup succeeded
  bool pinned = false;               // each working thread had its own CPU
};

double ValueOf(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void SleepUntil(uint64_t at) {
  const uint64_t now = NowNanos();
  if (at > now) std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
}

// What the main thread observed over one measured window.
struct Samples {
  Snapshot a, b;  // at the window's two ends
  Footprint footprint;
  double steal_ticks = 0;  // over the window, on the working threads' CPUs
  size_t steal_cpus = 0;   // how many CPUs that covers
};

// CPU nanoseconds between two per-thread snapshots, over the threads in
// `only` (all threads when `only` is null).
double CpuBetween(const std::map<pid_t, uint64_t>& from,
                  const std::map<pid_t, uint64_t>& to,
                  const std::set<pid_t>* only) {
  double ns = 0;
  for (const auto& [tid, at] : to) {
    if (only != nullptr && only->count(tid) == 0) continue;
    const auto it = from.find(tid);
    ns += static_cast<double>(at - (it == from.end() ? 0 : it->second));
  }
  return ns;
}

std::vector<Metric> ComputeMetrics(const Workload& w, double setup_s,
                                   const Window& window, const Samples& run,
                                   const std::vector<ClientResult>& clients,
                                   const std::set<pid_t>& client_tids,
                                   const Probes* probes) {
  const Snapshot& a = run.a;
  const Snapshot& b = run.b;
  const auto d = [&](const char* k) {
    const auto ia = a.c.find(k);
    const auto ib = b.c.find(k);
    return (ib == b.c.end() ? 0 : ib->second) -
           (ia == a.c.end() ? 0 : ia->second);
  };
  const auto end = [&](const char* k) {
    const auto it = b.c.find(k);
    return it == b.c.end() ? 0 : it->second;
  };
  const double secs =
      static_cast<double>(window.measure_end - window.measure_begin) / 1e9;
  LatencyHistogram latency;
  double ops = 0, user_bytes = 0;
  for (const ClientResult& c : clients) {
    for (const LatencyHistogram& h : c.latency) latency.Merge(h);
    ops += c.ops;
    user_bytes += c.user_bytes_written;
  }
  const double proc_ns = CpuBetween(a.cpu, b.cpu, nullptr);
  const double client_ns = CpuBetween(a.cpu, b.cpu, &client_tids);
  const double maint_ns = proc_ns - client_ns;
  const double perkop = Ratio(1000, ops);

  // p50 and p99 are medians over the window's slices of each slice's
  // percentile: a maintenance burst that hits one or two slices moves the
  // window's pooled p99 a lot and this one little.
  std::vector<double> p50, p99;
  for (uint32_t i = 0; i < window.slices; ++i) {
    LatencyHistogram slice;
    for (const ClientResult& c : clients) slice.Merge(c.latency[i]);
    p50.push_back(slice.Percentile(50) / 1e3);
    p99.push_back(slice.Percentile(99) / 1e3);
  }
  const double throughput = ops / secs / 1e3;
  // The paper's measure: CPU per op. The clients are the callers, so
  // their CPU counts.
  const double cpu_us = Ratio(proc_ns, ops) / 1e3;
  const double ios_per_op = Ratio(d("dev_reads") + d("dev_writes"), ops);
  const double logical =
      static_cast<double>(w.load.keys) * (kKeyBytes + w.load.value_bytes);
  const double dram = run.footprint.dram;
  const double flash = run.footprint.flash;
  const costmodel::CostParams paper = costmodel::CostParams::PaperDefaults();
  // Eq. 1-5 at the §4.1 prices: execution (CPU and device I/O capability)
  // per op plus storage rent on the resident bytes, per 1,000 ops/s.
  const double usd =
      1000 * (paper.processor_cost * cpu_us * 1e-6 +
              paper.ssd_io_capability_cost * ios_per_op / paper.iops) +
      Ratio(paper.dram_cost_per_byte * dram + paper.flash_cost_per_byte * flash,
            throughput);

  std::vector<Metric> m;
  const auto add = [&m](const char* name, double v, const char* unit,
                        Source src) { m.push_back({name, v, unit, src}); };
  add("p50_us", Median(p50), "us", Source::kEndToEnd);
  add("p99_us", Median(p99), "us", Source::kEndToEnd);
  add("dram_bytes_per_user_byte", dram / logical, "ratio", Source::kEndToEnd);
  add("flash_bytes_per_user_byte", flash / logical, "ratio",
      Source::kEndToEnd);
  add("setup_s", setup_s, "s", Source::kEndToEnd);
  // Rates and CPU per op follow the time the hypervisor steals from the
  // benchmark's CPUs, which on a shared host swings them by up to 2x from
  // one run to the next (README.md), so they carry no bound.
  add("workload.throughput_kops", throughput, "kops/s", Source::kCounter);
  add("workload.cpu_us_per_op", cpu_us, "us/op", Source::kCounter);
  add("costmodel.usd_per_kops", usd, "usd", Source::kCounter);

  // Thread CPU inside the top-level store calls, scaled up from the calls
  // whose CPU was sampled.
  const double top_keys = d("sharded.read_keys") + d("sharded.write_keys");
  const double in_store_ns =
      Ratio(d("sharded.cpu_ns") * top_keys, d("sharded.cpu_keys"));
  const double mm_ns = Ratio(d("caching.mm_ns"), d("caching.mm_keys"));
  const double ss_ns = Ratio(d("caching.ss_ns"), d("caching.ss_keys"));

  add("workload.p999_us", latency.Percentile(99.9) / 1e3, "us",
      Source::kCounter);
  add("host.steal_fraction",
      Ratio(run.steal_ticks / sysconf(_SC_CLK_TCK), secs * run.steal_cpus),
      "ratio", Source::kCounter);
  add("workload.gen_cpu_us_per_op", Ratio(client_ns - in_store_ns, ops) / 1e3,
      "us/op", Source::kTraced);
  add("sharded.self_ns_per_key",
      Ratio(d("sharded.read_ns") + d("sharded.write_ns") -
                d("caching.read_ns") - d("caching.write_ns"),
            top_keys),
      "ns/key", Source::kTraced);
  add("caching.read_ns_per_key",
      Ratio(d("caching.read_ns"), d("caching.read_keys")), "ns/key",
      Source::kTraced);
  add("caching.write_ns_per_key",
      Ratio(d("caching.write_ns"), d("caching.write_keys")), "ns/key",
      Source::kTraced);
  add("caching.mm_cpu_us", mm_ns / 1e3, "us/op", Source::kTraced);
  add("caching.ss_cpu_us", ss_ns / 1e3, "us/op", Source::kTraced);
  add("caching.ss_fraction", Ratio(d("misses"), d("hits") + d("misses")),
      "ratio", Source::kCounter);
  add("caching.write_stalls_per_kop", d("write_stalls") * perkop, "count/kop",
      Source::kCounter);
  add("caching.stall_us_per_kop", d("stall_micros") * perkop, "us/kop",
      Source::kCounter);
  add("caching.foreground_maintenance_ops", d("fg_maintenance"), "count",
      Source::kCounter);
  add("bwtree.single_probe_ns", probes ? probes->single_ns : 0, "ns",
      Source::kProbe);
  add("bwtree.batched_probe_ns", probes ? probes->batched_ns : 0, "ns",
      Source::kProbe);
  add("bwtree.consolidations_per_kop", d("consolidations") * perkop,
      "count/kop", Source::kCounter);
  add("bwtree.page_loads_per_kop", d("page_loads") * perkop, "count/kop",
      Source::kCounter);
  add("bwtree.record_cache_hit_fraction", Ratio(d("rc_hits"), d("tree_gets")),
      "ratio", Source::kCounter);
  add("bwtree.read_relocation_retries_per_kop",
      d("relocation_retries") * perkop, "count/kop", Source::kCounter);
  add("bwtree.cas_failures_per_kop", d("cas_failures") * perkop, "count/kop",
      Source::kCounter);
  add("cache.evictions_per_kop", d("evictions") * perkop, "count/kop",
      Source::kCounter);
  add("cache.demotions_per_kop", d("demotions") * perkop, "count/kop",
      Source::kCounter);
  add("cache.promotions_per_kop", d("promotions") * perkop, "count/kop",
      Source::kCounter);
  add("cache.css_hits_per_kop", d("css_hits") * perkop, "count/kop",
      Source::kCounter);
  add("cache.sampled_touch_fraction",
      Ratio(d("cache_touches_sampled"), d("cache_touches")), "ratio",
      Source::kCounter);
  add("log.write_amp", Ratio(d("dev_bytes_written"), user_bytes), "ratio",
      Source::kCounter);
  add("log.records_per_append_group", Ratio(d("log_records"), d("log_groups")),
      "count", Source::kCounter);
  add("log.gc_relocated_per_kop", d("gc_relocated") * perkop, "count/kop",
      Source::kCounter);
  add("log.dead_fraction", Ratio(end("seg_dead"), end("seg_used")), "ratio",
      Source::kCounter);
  add("device.reads_per_kop", d("dev_reads") * perkop, "count/kop",
      Source::kCounter);
  add("device.writes_per_kop", d("dev_writes") * perkop, "count/kop",
      Source::kCounter);
  add("device.path_units_per_op", Ratio(d("path_units"), ops), "count/op",
      Source::kCounter);
  add("device.read_4k_ns", probes ? probes->read_4k_ns : 0, "ns",
      Source::kProbe);
  add("compression.ratio", probes ? probes->ratio : 0, "ratio",
      Source::kProbe);
  add("compression.compress_ns_per_kib",
      probes ? probes->compress_ns_per_kib : 0, "ns/KiB", Source::kProbe);
  add("compression.decompress_ns_per_kib",
      probes ? probes->decompress_ns_per_kib : 0, "ns/KiB", Source::kProbe);
  add("maintenance.cpu_us_per_op", Ratio(maint_ns, ops) / 1e3, "us/op",
      Source::kCounter);
  add("maintenance.steps_per_kop", d("steps") * perkop, "count/kop",
      Source::kCounter);
  add("maintenance.requeue_fraction", Ratio(d("requeues"), d("steps")),
      "ratio", Source::kCounter);
  add("epoch.reclaimed_items_per_kop", d("epoch_reclaimed") * perkop,
      "count/kop", Source::kCounter);

  // Eq. 6 with what this run measured: R from the sampled SS and MM CPU,
  // ROPS = 1 / MM CPU, and the page size from the additive per-shard
  // demotion accumulators (the resident page size when nothing demoted).
  // ShardedStore's own measured_t_i_seconds adopts one shard's value.
  double r = 0, t_i = 0, css_breakeven = 0;
  if (mm_ns > 0 && ss_ns > 0) {
    r = ss_ns / mm_ns;
    costmodel::CostParams measured = paper;
    measured.r = r;
    measured.rops = 1e9 / mm_ns;
    const double demoted_raw = end("css_raw_bytes");
    measured.page_size_bytes =
        end("demotions") > 0 ? demoted_raw / end("demotions")
                             : Ratio(end("dram_bytes"), end("dram_pages"));
    if (measured.page_size_bytes > 0) {
      t_i = costmodel::BreakevenIntervalSeconds(measured);
    }
    if (demoted_raw > 0 && probes != nullptr) {
      costmodel::CompressionParams tier;
      tier.compression_ratio = end("css_stored_bytes") / demoted_raw;
      // Decompressing one demoted page, in units of an MM op's CPU.
      tier.decompress_r = probes->decompress_ns_per_kib *
                          measured.page_size_bytes / 1024 / mm_ns;
      css_breakeven = costmodel::CssSsBreakevenOpsPerSec(measured, tier);
    }
  }
  add("costmodel.r_measured", r, "ratio", Source::kTraced);
  add("costmodel.t_i_measured_s", t_i, "s", Source::kTraced);
  add("costmodel.css_breakeven_measured_ops", css_breakeven, "1/s",
      Source::kTraced);
  return m;
}

// Reasons the run did not exercise what its workload is for; such runs
// are reported but never compared.
std::vector<std::string> Validity(const Workload& w,
                                  const std::vector<Metric>& m) {
  std::vector<std::string> why;
  if (ValueOf(m, "caching.foreground_maintenance_ops") > 0) {
    why.push_back("maintenance ran on a foreground thread");
  }
  if (w.dram_budget == 0 && ValueOf(m, "device.reads_per_kop") >= 1) {
    why.push_back("device reads on an in-cache workload");
  }
  if (w.css_budget != 0) {
    if (ValueOf(m, "device.reads_per_kop") <= 0) why.push_back("no device reads");
    if (ValueOf(m, "cache.demotions_per_kop") <= 0) why.push_back("no demotions");
    if (ValueOf(m, "cache.css_hits_per_kop") <= 0) why.push_back("no CSS hits");
  }
  return why;
}

// One store's life: sets it up (timed), warms it up for min(2 s, S/4),
// measures it for `seconds`, then finishes and checks it. Trial `trial`
// seeds its clients apart from the other trials of the run.
RunResult RunTrial(const Workload& w, const Options& o, int trial,
                   double seconds, bool traced, Checker* checker,
                   std::string* trace_path) {
  RunResult result;
  std::unique_ptr<Tracer> tracer;
  if (traced) tracer = std::make_unique<Tracer>();
  const uint64_t t0 = NowNanos();
  std::unique_ptr<Stack> stack = BuildStack(w, tracer.get());
  const Status s = Preload(stack->top.get(), w.load);
  const double setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  if (!s.ok()) {
    fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
    result.ok = false;
    return result;
  }
  VersionTable versions(w.load.keys);

  const uint64_t warmup_ns =
      static_cast<uint64_t>(std::min(2.0, seconds / 4) * 1e9);
  Window window;
  window.measure_begin = NowNanos() + warmup_ns;
  window.measure_end =
      window.measure_begin + static_cast<uint64_t>(seconds * 1e9);
  window.slices = std::max(1L, std::lround(seconds / 0.5));
  std::vector<ClientResult> clients(w.load.streams, ClientResult(window));
  // Clients stay alive until the closing snapshot has read their CPU from
  // /proc; an exited thread's CPU time is no longer listed there.
  std::atomic<bool> release{false};
  const auto linger = [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto before_clients = TaskCpuNanos();
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < w.load.streams; ++i) {
    threads.emplace_back([&, i] {
      RunLibClient(stack->top.get(), w.load, window, i,
                   Hash64(o.seed) + trial * w.load.streams + i, &versions,
                   checker, tracer.get(), &clients[i]);
      linger();
    });
  }
  // A thread is listed in /proc as soon as std::thread returns. Clients
  // first, then the rest: the maintenance worker.
  const std::set<pid_t> client_tids = NewTasks(before_clients);
  std::vector<pid_t> working(client_tids.begin(), client_tids.end());
  for (const auto& [tid, ns] : before_clients) {
    if (tid != getpid()) working.push_back(tid);
  }
  const std::vector<int> cpus = PinThreads(working);
  result.pinned = !cpus.empty();

  // Storage rent accrues over time and the footprints swing with every GC
  // cycle, so they are averaged over samples taken every 0.5 s.
  Samples run;
  int samples = 0;
  const auto sample = [&] {
    for (core::CachingStore* shard : stack->shards) {
      run.footprint.dram += shard->MemoryFootprintBytes();
      for (const llama::SegmentInfo& seg : shard->log_store()->segments()) {
        run.footprint.flash += seg.used_bytes;
      }
    }
    ++samples;
  };
  SleepUntil(window.measure_begin);
  run.a = Take(stack.get(), tracer.get());
  run.steal_ticks = -StealTicks(cpus);
  sample();
  for (uint64_t t = window.measure_begin + kFootprintEvery;
       t < window.measure_end; t += kFootprintEvery) {
    SleepUntil(t);
    sample();
  }
  SleepUntil(window.measure_end);
  run.b = Take(stack.get(), tracer.get());
  run.steal_ticks += StealTicks(cpus);
  run.steal_cpus = cpus.empty() ? sysconf(_SC_NPROCESSORS_ONLN) : cpus.size();
  sample();
  run.footprint.dram /= samples;
  run.footprint.flash /= samples;
  release = true;
  for (std::thread& t : threads) t.join();

  Finish(stack->top.get(), [&] { stack->scheduler->Quiesce(); }, w.load,
         versions, checker);
  Probes probes;
  if (traced) {
    probes = RunProbes(stack.get(), w, o.seed, versions);
    mkdir(o.trace_dir.c_str(), 0755);
    *trace_path = o.trace_dir + "/" + w.name + ".trace.json";
    if (!tracer->WriteChromeTrace(*trace_path)) {
      fprintf(stderr, "could not write %s\n", trace_path->c_str());
      trace_path->clear();
    }
  }
  result.metrics = ComputeMetrics(w, setup_s, window, run, clients,
                                  client_tids, traced ? &probes : nullptr);
  result.invalid = Validity(w, result.metrics);
  return result;
}

// Runs `trials` trials of seconds / trials each and reports every metric as
// its median over them. Each trial builds a fresh store, and how fast one
// store serves depends on where its memory landed: in-DRAM p50 moved from
// 0.87 to 1.14 us between stores built one after another in one process,
// on an idle host. A median over stores is steadier than one long window.
RunResult RunWorkload(const Workload& w, const Options& o, double seconds,
                      bool traced, int trials, Checker* checker,
                      std::string* trace_path) {
  std::vector<RunResult> runs;
  for (int i = 0; i < trials; ++i) {
    runs.push_back(RunTrial(w, o, i, seconds / trials, traced, checker,
                            trace_path));
    if (!runs.back().ok) return runs.back();
  }
  RunResult result = runs.front();
  for (size_t m = 0; m < result.metrics.size(); ++m) {
    std::vector<double> values;
    for (const RunResult& r : runs) values.push_back(r.metrics[m].value);
    result.metrics[m].value = Median(values);
  }
  result.invalid.clear();
  for (size_t i = 0; i < runs.size(); ++i) {
    result.pinned = result.pinned && runs[i].pinned;
    for (const std::string& why : runs[i].invalid) {
      result.invalid.push_back("trial " + std::to_string(i) + ": " + why);
    }
  }
  return result;
}

// --- output -----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + JsonString(ms[i].name) + ": {\"value\": " +
           JsonNumber(ms[i].value) + ", \"unit\": " + JsonString(ms[i].unit) +
           "}";
  }
  return out + "}";
}

void AppendRecord(const std::string& path, const Options& o, const Host& h,
                  const std::vector<Metric>& ms,
                  const std::vector<std::string>& invalid,
                  const Checker& checker) {
  std::string rec = "{\"workload\": " + JsonString(o.workload) +
                    ", \"seed\": " + std::to_string(o.seed) +
                    ", \"seconds\": " + JsonNumber(o.seconds) +
                    ", \"trace\": " + (o.trace ? "1" : "0") +
                    ", \"valid\": " + (invalid.empty() ? "true" : "false") +
                    ", \"invalid\": [";
  for (size_t i = 0; i < invalid.size(); ++i) {
    rec += (i ? ", " : "") + JsonString(invalid[i]);
  }
  rec += "], \"correct\": " + std::string(checker.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(checker.attempted()) +
         ", \"failed\": " + std::to_string(checker.failed()) +
         ", \"host\": {\"nproc\": " + std::to_string(h.nproc) +
         ", \"cpu\": " + JsonString(h.cpu) + ", \"simd\": " +
         JsonString(h.simd) + ", \"build\": " + JsonString(h.build) +
         ", \"commit\": " + JsonString(h.commit) +
         ", \"pinned\": " + (h.pinned ? "true" : "false") +
         ", \"loadavg\": " + JsonNumber(h.loadavg) +
         "}, \"metrics\": " + JsonMetrics(ms) + "}\n";
  FILE* f = fopen(path.c_str(), "a");
  if (f == nullptr || fputs(rec.c_str(), f) < 0) {
    fprintf(stderr, "could not append to %s\n", path.c_str());
  }
  if (f != nullptr) fclose(f);
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Usage() {
  fprintf(stderr,
          "usage: costperf_benchmark --workload NAME [--seed N] "
          "[--seconds S] [--trace 0|1] [--out FILE] [--trace-dir DIR]\n"
          "       costperf_benchmark --selftest\n"
          "workloads:");
  for (const Workload& w : Workloads()) fprintf(stderr, " %s", w.name.c_str());
  fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = atof(v);
    } else if (flag == "--trace") {
      o.trace = strcmp(v, "0") != 0;
    } else if (flag == "--out") {
      o.out = v;
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr || !(o.seconds > 0)) return Usage();

  Host host = Fingerprint();
  printf("workload %s  seed %llu  seconds %g  trace %d\n", w->name.c_str(),
         static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  printf("host nproc=%ld cpu=\"%s\" simd=%s build=%s commit=%s loadavg=%.2f\n",
         host.nproc, host.cpu.c_str(), host.simd.c_str(), host.build.c_str(),
         host.commit.c_str(), host.loadavg);

  Checker checker;
  std::string trace_path;
  // The end-to-end numbers always come from an untraced run; --trace adds
  // a traced rerun for the per-layer numbers, and the gap between the two
  // is the tracing overhead. An untraced call measures five stores; a
  // traced call one store each way, since a trace follows one store.
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  RunResult plain = RunWorkload(*w, o, seconds, /*traced=*/false,
                                o.trace ? 1 : 5, &checker, &trace_path);
  bool ok = plain.ok;
  host.pinned = plain.pinned;
  std::vector<Metric> e2e, layer, record;
  for (const Metric& m : plain.metrics) {
    if (m.source == Source::kEndToEnd) e2e.push_back(m);
    if (m.source == Source::kEndToEnd || m.source == Source::kCounter) {
      record.push_back(m);
    }
  }
  std::vector<std::string> invalid = plain.invalid;
  if (o.trace && ok) {
    RunResult traced = RunWorkload(*w, o, seconds, /*traced=*/true, 1,
                                   &checker, &trace_path);
    ok = traced.ok;
    for (const Metric& m : traced.metrics) {
      if (m.source != Source::kEndToEnd) layer.push_back(m);
    }
    layer.push_back({"trace.overhead_fraction",
                     Ratio(ValueOf(traced.metrics, "workload.cpu_us_per_op"),
                           ValueOf(plain.metrics, "workload.cpu_us_per_op")) -
                         1,
                     "ratio", Source::kTraced});
    record = e2e;
    record.insert(record.end(), layer.begin(), layer.end());
    for (const std::string& why : traced.invalid) {
      invalid.push_back("traced: " + why);
    }
  }

  printf("end-to-end (untraced run):\n");
  PrintMetrics(e2e);
  if (o.trace) {
    printf("per-layer (traced run):\n");
    PrintMetrics(layer);
    if (!trace_path.empty()) printf("trace %s\n", trace_path.c_str());
  }
  for (const std::string& why : invalid) printf("invalid: %s\n", why.c_str());
  for (const std::string& msg : checker.messages()) {
    printf("failure: %s\n", msg.c_str());
  }
  const bool correct = ok && checker.correct();
  printf("correct %s  attempted %llu  failed %llu  valid %s  pinned %s\n",
         correct ? "yes" : "NO",
         static_cast<unsigned long long>(checker.attempted()),
         static_cast<unsigned long long>(checker.failed()),
         invalid.empty() ? "yes" : "no", host.pinned ? "yes" : "no");
  if (!o.out.empty()) {
    AppendRecord(o.out, o, host, record, invalid, checker);
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(checker.attempted()),
         static_cast<unsigned long long>(checker.failed()),
         JsonMetrics(o.trace ? layer : e2e).c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace costperf::benchmark

int main(int argc, char** argv) {
  return costperf::benchmark::Main(argc, argv);
}
