#include "gen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "trace.h"

namespace costperf::benchmark {

namespace {

// Word-at-a-time mixing checksum: cheap enough to verify on every read,
// and any flipped byte of the value changes it.
uint64_t Checksum(const char* p, size_t n, uint64_t seed) {
  uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ull;
  }
  return Hash64(h ^ n);
}

uint64_t ChecksumSeed(uint32_t key, uint32_t version) {
  return (static_cast<uint64_t>(key) << 32) | version;
}

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FormatKey(uint32_t k, char* out) {
  memcpy(out, "key:", 4);
  for (int i = kKeyBytes - 1; i >= 4; --i) {
    out[i] = static_cast<char>('0' + k % 10);
    k /= 10;
  }
}

std::string KeyOf(uint32_t k) {
  std::string key(kKeyBytes, '\0');
  FormatKey(k, key.data());
  return key;
}

void EncodeValue(uint32_t key, uint32_t version, size_t size,
                 std::string* out) {
  out->resize(size);
  char* p = out->data();
  EncodeFixed32(p, key);
  EncodeFixed32(p + 4, version);
  char frag[48];
  const int n = snprintf(frag, sizeof(frag),
                         "|key=%08x|status=active|region=2", key);
  for (size_t i = 16; i < size; ++i) p[i] = frag[(i - 16) % n];
  EncodeFixed64(p + 8, Checksum(p + 16, size - 16, ChecksumSeed(key, version)));
}

uint32_t DecodeValue(uint32_t key, std::string_view v, size_t size) {
  if (v.size() != size || size < 16) return 0;
  if (DecodeFixed32(v.data()) != key) return 0;
  const uint32_t version = DecodeFixed32(v.data() + 4);
  const uint64_t sum =
      Checksum(v.data() + 16, size - 16, ChecksumSeed(key, version));
  return DecodeFixed64(v.data() + 8) == sum ? version : 0;
}

VersionTable::VersionTable(uint32_t keys)
    : issued_(new std::atomic<uint32_t>[keys]),
      acked_(new std::atomic<uint32_t>[keys]) {
  for (uint32_t k = 0; k < keys; ++k) {
    issued_[k].store(1, std::memory_order_relaxed);
    acked_[k].store(1, std::memory_order_relaxed);
  }
}

uint32_t VersionTable::Issue(uint32_t k) {
  // Published before the write reaches the store, so a reader that sees
  // the new value also sees an issued version at least as new.
  const uint32_t v = issued_[k].load(std::memory_order_relaxed) + 1;
  issued_[k].store(v, std::memory_order_release);
  return v;
}

void VersionTable::Ack(uint32_t k, uint32_t version) {
  // One writer per key, one write at a time: versions are acked in order.
  acked_[k].store(version, std::memory_order_release);
}

void Checker::CheckRead(uint32_t key, const Status& s, std::string_view value,
                        size_t value_bytes, uint32_t lo, uint32_t hi) {
  char what[160];
  if (s.IsNotFound()) {
    missing_.fetch_add(1, std::memory_order_relaxed);
    snprintf(what, sizeof(what), "key %u missing", key);
    Note(what);
    return;
  }
  if (!s.ok()) {
    Error(1, "read of key " + std::to_string(key) + ": " + s.ToString());
    return;
  }
  const uint32_t v = DecodeValue(key, value, value_bytes);
  if (v == 0) {
    wrong_.fetch_add(1, std::memory_order_relaxed);
    snprintf(what, sizeof(what), "key %u: malformed value (%zu bytes)", key,
             value.size());
    Note(what);
    return;
  }
  if (v < lo || v > hi) {
    wrong_.fetch_add(1, std::memory_order_relaxed);
    snprintf(what, sizeof(what), "key %u: version %u outside [%u, %u]", key,
             v, lo, hi);
    Note(what);
  }
}

void Checker::Error(uint64_t n, const std::string& what) {
  errors_.fetch_add(n, std::memory_order_relaxed);
  Note(what);
}

void Checker::Violation(const std::string& what) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  Note(what);
}

void Checker::Note(const std::string& what) {
  MutexLock lock(&mu_);
  if (messages_.size() < 20) messages_.push_back(what);
}

std::vector<std::string> Checker::messages() const {
  MutexLock lock(&mu_);
  return messages_;
}

namespace {

constexpr uint64_t kSub = 64;      // linear sub-buckets per power of two
constexpr uint64_t kLinear = 128;  // values below this get exact buckets
constexpr size_t kBuckets = kLinear + 57 * kSub;

size_t BucketOf(uint64_t v) {
  if (v < kLinear) return v;
  const int shift = 63 - __builtin_clzll(v) - 6;  // v >> shift in [64, 128)
  return kLinear + (shift - 1) * kSub + ((v >> shift) - kSub);
}

void BucketRange(size_t b, double* lower, double* width) {
  if (b < kLinear) {
    *lower = static_cast<double>(b);
    *width = 1;
    return;
  }
  const uint64_t shift = (b - kLinear) / kSub + 1;
  const uint64_t m = (b - kLinear) % kSub + kSub;
  *lower = static_cast<double>(m << shift);
  *width = static_cast<double>(1ull << shift);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Add(uint64_t nanos) {
  ++buckets_[BucketOf(nanos)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(count_);
  double seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double n = static_cast<double>(buckets_[b]);
    if (seen + n >= target) {
      double lower, width;
      BucketRange(b, &lower, &width);
      return lower + width * std::max(0.0, target - seen) / n;
    }
    seen += n;
  }
  return 0;
}

KeyChooser::KeyChooser(uint32_t keys, double theta, uint64_t seed)
    : keys_(keys), zipf_(keys, theta, seed) {}

uint32_t KeyChooser::Next() { return static_cast<uint32_t>(zipf_.Next()); }

uint32_t KeyChooser::NextOwned(uint32_t stream, uint32_t streams) {
  uint32_t k = Next();
  k = k - k % streams + stream;
  return k < keys_ ? k : k - streams;
}

bool ClientResult::Record(const Window& w, uint64_t end,
                          uint64_t latency_ns) {
  if (end < w.measure_begin || end >= w.measure_end) return false;
  latency[(end - w.measure_begin) * w.slices /
          (w.measure_end - w.measure_begin)]
      .Add(latency_ns);
  ++ops;
  return true;
}

void CheckedRead(core::KvStore* store, uint32_t k, const LoadSpec& spec,
                 const VersionTable* versions, Checker* checker,
                 std::string* scratch) {
  char key[kKeyBytes];
  FormatKey(k, key);
  const uint32_t lo = versions->acked(k);
  const Status s = store->Get(Slice(key, kKeyBytes), scratch);
  const uint32_t hi = versions->issued(k);
  checker->CheckRead(k, s, *scratch, spec.value_bytes, lo, hi);
}

Status CheckedWrite(core::KvStore* store, uint32_t k, const LoadSpec& spec,
                    VersionTable* versions, Checker* checker,
                    std::string* scratch) {
  char key[kKeyBytes];
  FormatKey(k, key);
  const uint32_t v = versions->Issue(k);
  EncodeValue(k, v, spec.value_bytes, scratch);
  Status s = store->Put(Slice(key, kKeyBytes), Slice(*scratch));
  if (s.ok()) {
    versions->Ack(k, v);
  } else {
    checker->Error(1, "write of key " + std::to_string(k) + ": " +
                          s.ToString());
  }
  return s;
}

Status Preload(core::KvStore* store, const LoadSpec& spec) {
  std::vector<core::KvEntry> batch;
  core::BatchWriteResult result;
  for (uint32_t base = 0; base < spec.keys; base += 1024) {
    batch.clear();
    const uint32_t end = std::min(base + 1024, spec.keys);
    for (uint32_t k = base; k < end; ++k) {
      batch.emplace_back(KeyOf(k), std::string());
      EncodeValue(k, 1, spec.value_bytes, &batch.back().second);
    }
    Status s = store->WriteBatch(batch, &result);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void VerifyAll(core::KvStore* store, const LoadSpec& spec,
               const VersionTable& versions, Checker* checker) {
  std::vector<std::string> keys;
  core::BatchReadResult result;
  for (uint32_t base = 0; base < spec.keys; base += 1024) {
    keys.clear();
    const uint32_t end = std::min(base + 1024, spec.keys);
    for (uint32_t k = base; k < end; ++k) keys.push_back(KeyOf(k));
    (void)store->MultiGet(keys, &result);
    for (uint32_t k = base; k < end; ++k) {
      const size_t i = k - base;
      checker->CheckRead(k, result.statuses[i], result.values[i],
                         spec.value_bytes, versions.acked(k),
                         versions.issued(k));
    }
    checker->Attempted(end - base);
  }
}

void Finish(core::KvStore* store, const std::function<void()>& quiesce,
            const LoadSpec& spec, const VersionTable& versions,
            Checker* checker) {
  // The structural checkers assume no concurrent mutation, and background
  // maintenance keeps mutating after the last client call returns.
  quiesce();
  for (const analysis::Violation& v : store->CheckInvariants()) {
    checker->Violation("invariant: " + v.ToString());
  }
  VerifyAll(store, spec, versions, checker);
}

void RunLibClient(core::KvStore* store, const LoadSpec& spec,
                  const Window& window, uint32_t stream, uint64_t seed,
                  VersionTable* versions, Checker* checker, Tracer* tracer,
                  ClientResult* out) {
  KeyChooser chooser(spec.keys, spec.zipf_theta, seed);
  Random rng(Hash64(seed ^ 0x5bd1e995ull));
  std::string scratch;
  uint64_t attempted = 0;
  for (;;) {
    const bool write = !rng.Bernoulli(spec.read_fraction);
    const uint32_t k =
        write ? chooser.NextOwned(stream, spec.streams) : chooser.Next();
    const uint64_t start = NowNanos();
    if (start >= window.measure_end) break;
    {
      Tracer::Scope span(tracer, Layer::kClient, write ? Op::kPut : Op::kGet,
                         1);
      if (write) {
        CheckedWrite(store, k, spec, versions, checker, &scratch);
      } else {
        CheckedRead(store, k, spec, versions, checker, &scratch);
      }
    }
    const uint64_t end = NowNanos();
    ++attempted;
    if (out->Record(window, end, end - start) && write) {
      out->user_bytes_written += kKeyBytes + spec.value_bytes;
    }
  }
  checker->Attempted(attempted);
}

}  // namespace costperf::benchmark
