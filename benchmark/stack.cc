#include "stack.h"

#include <cstdio>

namespace costperf::benchmark {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    // Two in-process workloads: every read hits DRAM in one and misses to
    // the CSS and SS tiers in the other. Having only two lets each run
    // last long enough to average out a shared host whose speed drifts
    // from minute to minute, and 3 busy threads leave one of 4 CPUs to the
    // kernel. Loopback-server workloads spread too widely from run to run
    // on such a host to bound a regression (README.md).
    //
    // 2 client threads, single-key Get/Put, unbounded DRAM: the
    // single-probe BwTree::Get, epoch and cache-touch path.
    Workload w;
    w.name = "lib_incache_point";
    w.load.streams = 2;
    all.push_back(w);

    // 2 client threads, single-key, 256 B compressible values with DRAM
    // and a CSS tier both smaller than the data: compression, demotion,
    // promotion and SS/CSS loads do the work.
    w = Workload();
    w.name = "lib_css_tiered";
    w.load.streams = 2;
    w.load.value_bytes = 256;
    w.dram_budget = 16ull << 20;
    w.css_budget = 32ull << 20;
    w.demote_idle_seconds = 0.05;
    all.push_back(w);
    return all;
  }();
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Stack> BuildStack(const Workload& w, Tracer* tracer) {
  auto stack = std::make_unique<Stack>();
  maintenance::MaintenanceScheduler::Options sched;
  sched.workers = 1;
  stack->scheduler = std::make_unique<maintenance::MaintenanceScheduler>(sched);

  core::CachingStoreOptions o;
  o.memory_budget_bytes = w.dram_budget / kShards;
  o.device.max_iops = 0;  // no throttle; the I/O path CPU is still charged
  o.background.scheduler = stack->scheduler.get();
  if (w.css_budget != 0) {
    o.tier.css_budget_bytes = w.css_budget / kShards;
    o.tier.demote_idle_seconds = w.demote_idle_seconds;
  }
  Stack* raw = stack.get();
  auto sharded = std::make_unique<core::ShardedStore>(
      kShards, [&](size_t) -> std::unique_ptr<core::KvStore> {
        auto shard = std::make_unique<core::CachingStore>(o);
        raw->shards.push_back(shard.get());
        if (tracer == nullptr) return shard;
        return std::make_unique<TimedStore>(std::move(shard), tracer,
                                            Layer::kCaching);
      });
  stack->sharded = sharded.get();
  if (tracer == nullptr) {
    stack->top = std::move(sharded);
  } else {
    stack->top = std::make_unique<TimedStore>(std::move(sharded), tracer,
                                              Layer::kSharded);
  }
  return stack;
}

namespace {

// Misbehaves on three chosen keys: serves the version a key had before its
// latest write, reports another key missing, and refuses writes to a
// third. Records whether CheckInvariants ran before maintenance was
// quiesced.
class FaultStore : public core::KvStore {
 public:
  FaultStore(core::KvStore* inner, uint32_t stale, uint32_t dropped,
             uint32_t failing, const bool* quiesced)
      : inner_(inner),
        stale_(KeyOf(stale)),
        dropped_(KeyOf(dropped)),
        failing_(KeyOf(failing)),
        quiesced_(quiesced) {}

  Status Put(const Slice& key, const Slice& value) override {
    if (key == Slice(failing_)) return Status::IoError("injected failure");
    if (key == Slice(stale_) && stale_value_.empty()) {
      (void)inner_->Get(key, &stale_value_);
    }
    return inner_->Put(key, value);
  }
  Result<std::string> Get(const Slice& key) override {
    std::string value;
    Status s = Get(key, &value);
    if (!s.ok()) return s;
    return value;
  }
  Status Get(const Slice& key, std::string* value_out) override {
    if (key == Slice(dropped_)) return Status::NotFound("injected drop");
    if (key == Slice(stale_) && !stale_value_.empty()) {
      *value_out = stale_value_;
      return Status::Ok();
    }
    return inner_->Get(key, value_out);
  }
  Status Delete(const Slice& key) override { return inner_->Delete(key); }
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out)
      override {
    return inner_->Scan(start, limit, out);
  }
  uint64_t MemoryFootprintBytes() const override {
    return inner_->MemoryFootprintBytes();
  }
  core::KvStoreStats Stats() const override { return inner_->Stats(); }
  std::vector<analysis::Violation> CheckInvariants() override {
    if (!*quiesced_) checked_before_quiesce_ = true;
    return inner_->CheckInvariants();
  }

  bool checked_before_quiesce() const { return checked_before_quiesce_; }

 private:
  core::KvStore* inner_;
  const std::string stale_, dropped_, failing_;
  const bool* quiesced_;
  std::string stale_value_;
  bool checked_before_quiesce_ = false;
};

}  // namespace

int RunSelfTest() {
  Workload w = *FindWorkload("lib_incache_point");
  w.load.keys = 1000;
  auto stack = BuildStack(w, nullptr);
  if (Status s = Preload(stack->top.get(), w.load); !s.ok()) {
    fprintf(stderr, "selftest: preload failed: %s\n", s.ToString().c_str());
    return 1;
  }
  VersionTable versions(w.load.keys);
  Checker checker;
  bool quiesced = false;
  constexpr uint32_t kStale = 11, kDropped = 22, kFailing = 33, kHealthy = 44;
  FaultStore faulty(stack->top.get(), kStale, kDropped, kFailing, &quiesced);
  std::string scratch;
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      fprintf(stderr, "selftest: %s\n", what);
      ++failures;
    }
  };

  CheckedWrite(&faulty, kStale, w.load, &versions, &checker, &scratch);
  CheckedRead(&faulty, kStale, w.load, &versions, &checker, &scratch);
  expect(checker.wrong() == 1, "a stale version was not flagged");
  CheckedRead(&faulty, kDropped, w.load, &versions, &checker, &scratch);
  expect(checker.missing() == 1, "a dropped key was not flagged");
  const Status failed =
      CheckedWrite(&faulty, kFailing, w.load, &versions, &checker, &scratch);
  expect(!failed.ok() && checker.errors() == 1,
         "a failed write was not counted");
  CheckedRead(&faulty, kFailing, w.load, &versions, &checker, &scratch);
  CheckedWrite(&faulty, kHealthy, w.load, &versions, &checker, &scratch);
  CheckedRead(&faulty, kHealthy, w.load, &versions, &checker, &scratch);
  expect(checker.wrong() == 1 && checker.missing() == 1,
         "a key whose write failed, or a healthy key, was flagged");

  Finish(
      &faulty,
      [&] {
        stack->scheduler->Quiesce();
        quiesced = true;
      },
      w.load, versions, &checker);
  expect(!faulty.checked_before_quiesce(),
         "CheckInvariants ran before Quiesce");
  expect(checker.violations() == 0, "a healthy store reported violations");
  // The final pass sees the stale and the dropped key again, nothing else.
  expect(checker.wrong() == 2 && checker.missing() == 2 &&
             checker.errors() == 1,
         "the final verification missed a fault or flagged a healthy key");
  expect(!checker.correct(), "a run with wrong results counted as correct");
  printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace costperf::benchmark
