#include "compression/compressor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "common/coding.h"

namespace costperf::compression {

namespace {

inline uint32_t HashFour(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - Compressor::kHashBits);
}

inline uint64_t LoadEight(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

// Number of leading bytes, in memory order, that two 8-byte loads share;
// `diff` is their XOR and is nonzero.
inline size_t SharedBytes(uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<size_t>(std::countl_zero(diff)) / 8;
  }
}

// Length of the common prefix of a[0..max) and b[0..max).
inline size_t MatchLength(const char* a, const char* b, size_t max) {
  size_t len = 0;
  while (len + 8 <= max) {
    const uint64_t diff = LoadEight(a + len) ^ LoadEight(b + len);
    if (diff != 0) return len + SharedBytes(diff);
    len += 8;
  }
  while (len < max && a[len] == b[len]) ++len;
  return len;
}

// GetVarint64 with the one-byte case inline: in a page-sized stream nearly
// every length and offset is below 128.
inline const char* ReadVarint(const char* p, const char* limit,
                              uint64_t* v) {
  if (p < limit && static_cast<unsigned char>(*p) < 128) {
    *v = static_cast<unsigned char>(*p);
    return p + 1;
  }
  return GetVarint64(p, limit, v);
}

// Match-finder state kept per thread across Compress calls. An entry holds
// `base + position` for the call that wrote it; every call starts its base
// past all positions of earlier calls, so an entry below the current base
// reads as empty and the table never needs clearing. (A 64-bit base cannot
// wrap: that would take 2^64 bytes of input on one thread.)
struct MatchTable {
  uint64_t next_base = 1;  // zero-filled entries are below every base
  uint64_t slot[1 << Compressor::kHashBits] = {};
};

// Allocated on first use, so a thread that never compresses carries no
// 128 KiB table.
MatchTable* ThreadMatchTable() {
  thread_local std::unique_ptr<MatchTable> table;
  if (table == nullptr) table = std::make_unique<MatchTable>();
  return table.get();
}

// Copies `len` bytes that start `offset` bytes before `dst` to `dst`. When
// offset < len the match repeats its own output. Each memcpy then reads
// only bytes already written, and the distance from the source to the write
// point doubles with every copy, so a run of length L takes about
// log2(L / offset) copies.
inline void CopyMatch(char* dst, size_t offset, size_t len) {
  const char* src = dst - offset;
  while (len > 0) {
    const size_t n = std::min(static_cast<size_t>(dst - src), len);
    memcpy(dst, src, n);
    dst += n;
    len -= n;
  }
}

}  // namespace

void Compressor::Compress(const Slice& input, std::string* out) {
  out->clear();
  PutVarint64(out, input.size());
  const char* src = input.data();
  const size_t n = input.size();
  if (n == 0) {
    PutVarint64(out, 0);  // no literals
    PutVarint64(out, 0);  // end marker
    return;
  }

  MatchTable* table = ThreadMatchTable();
  const uint64_t base = table->next_base;
  table->next_base += n;
  uint64_t* slot = table->slot;
  size_t pos = 0;
  size_t literal_start = 0;

  auto emit = [&](size_t lit_from, size_t lit_len, size_t match_len,
                  size_t offset) {
    char buf[20];
    out->append(buf, EncodeVarint64(buf, lit_len));
    out->append(src + lit_from, lit_len);
    size_t k = EncodeVarint64(buf, match_len);
    if (match_len > 0) k += EncodeVarint64(buf + k, offset);
    out->append(buf, k);
  };

  while (pos + kMinMatch <= n) {
    uint64_t& entry = slot[HashFour(src + pos)];
    const uint64_t prev = entry;
    entry = base + pos;
    const size_t cand = static_cast<size_t>(prev - base);
    if (prev >= base && pos - cand <= kMaxOffset &&
        memcmp(src + cand, src + pos, kMinMatch) == 0) {
      const size_t len =
          kMinMatch + MatchLength(src + cand + kMinMatch,
                                  src + pos + kMinMatch, n - pos - kMinMatch);
      emit(literal_start, pos - literal_start, len, pos - cand);
      // Seed the table inside the match sparsely to keep compression fast.
      for (size_t i = pos + 1; i + kMinMatch <= pos + len; i += 7) {
        slot[HashFour(src + i)] = base + i;
      }
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  // Trailing literals + end marker (match_len == 0).
  emit(literal_start, n - literal_start, 0, 0);
}

void Compressor::Compress(const Slice& input, std::string* out,
                          CompressInfo* info) {
  Compress(input, out);
  info->raw_size = input.size();
  info->compressed_size = out->size();
}

Status Compressor::Decompress(const Slice& input, std::string* out,
                              size_t max_raw_size) {
  out->clear();
  const char* p = input.data();
  const char* limit = p + input.size();
  uint64_t raw_size = 0;
  p = GetVarint64(p, limit, &raw_size);
  if (p == nullptr) return Status::Corruption("bad raw size");
  if (raw_size > max_raw_size) {
    return Status::Corruption("decompressed size exceeds limit");
  }
  out->resize(raw_size);
  char* const dst = out->data();
  uint64_t produced = 0;
  // On failure *out keeps only the bytes decoded so far.
  auto fail = [&](const char* why) {
    out->resize(produced);
    return Status::Corruption(why);
  };
  for (;;) {
    uint64_t lit_len = 0;
    p = ReadVarint(p, limit, &lit_len);
    if (p == nullptr) return fail("truncated literal length");
    if (static_cast<uint64_t>(limit - p) < lit_len) {
      return fail("truncated literals");
    }
    // Every length is checked against the room left before anything is
    // copied, never as produced + len, which a length near 2^64 wraps.
    if (lit_len > raw_size - produced) {
      return fail("output overruns declared size");
    }
    // A short copy moves a fixed 16 bytes when both sides have the room:
    // bytes past the literal are overwritten by what follows it.
    if (lit_len <= 16 && raw_size - produced >= 16 && limit - p >= 16) {
      memcpy(dst + produced, p, 16);
    } else {
      memcpy(dst + produced, p, lit_len);
    }
    produced += lit_len;
    p += lit_len;
    uint64_t match_len = 0;
    p = ReadVarint(p, limit, &match_len);
    if (p == nullptr) return fail("truncated match length");
    if (match_len == 0) break;  // end of stream
    uint64_t offset = 0;
    p = ReadVarint(p, limit, &offset);
    if (p == nullptr) return fail("truncated match offset");
    if (offset == 0 || offset > produced) {
      return fail("match offset out of range");
    }
    if (match_len > raw_size - produced) {
      return fail("output overruns declared size");
    }
    // Likewise for a short match whose 16-byte source ends at or before
    // the write point.
    if (match_len <= 16 && offset >= 16 && raw_size - produced >= 16) {
      memcpy(dst + produced, dst + produced - offset, 16);
    } else {
      CopyMatch(dst + produced, offset, match_len);
    }
    produced += match_len;
  }
  if (produced != raw_size) return fail("decompressed size mismatch");
  return Status::Ok();
}

double Compressor::MeasureRatio(const Slice& input) {
  std::string out;
  CompressInfo info;
  Compress(input, &out, &info);
  return info.ratio();
}

}  // namespace costperf::compression
