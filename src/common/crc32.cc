#include "common/crc32.h"

#include <cstring>

#if !defined(COSTPERF_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define COSTPERF_CRC32C_HW 1
#include <nmmintrin.h>
#else
#define COSTPERF_CRC32C_HW 0
#endif

namespace costperf {

namespace {

// Slicing-by-8 CRC-32C tables (polynomial 0x1EDC6F41, reflected
// 0x82F63B78). Processes 8 bytes per iteration — the table-per-byte
// variant costs ~3ns/B, which would dominate SS-operation cost; this one
// runs at ~0.4ns/B.
struct Crc32cTables {
  uint32_t t[8][256];
  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[slice][i] = c;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables& tables = *new Crc32cTables();
  return tables;
}

#if COSTPERF_CRC32C_HW

// The SSE4.2 crc32 instruction computes the same reflected CRC-32C
// register update as the tables, 8 bytes per instruction.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t len,
                                                       uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = seed ^ 0xFFFFFFFFu;
  while (len >= 8) {
    uint64_t v = 0;
    memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
    p += 8;
    len -= 8;
  }
  auto c32 = static_cast<uint32_t>(c);
  if (len >= 4) {
    uint32_t v = 0;
    memcpy(&v, p, 4);
    c32 = _mm_crc32_u32(c32, v);
    p += 4;
    len -= 4;
  }
  while (len-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32 ^ 0xFFFFFFFFu;
}

// Resolved during static initialization. A Crc32c call that runs before
// it (from another translation unit's initializer) sees false and takes
// the table path, which gives the same value.
const bool g_have_sse42 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();

#endif  // COSTPERF_CRC32C_HW

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& tb = Tables();
  uint32_t c = seed ^ 0xFFFFFFFFu;

  // Align-free slicing-by-8 main loop.
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    memcpy(&lo, p, 4);
    memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
        tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^
        tb.t[3][hi & 0xFF] ^ tb.t[2][(hi >> 8) & 0xFF] ^
        tb.t[1][(hi >> 16) & 0xFF] ^ tb.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
#if COSTPERF_CRC32C_HW
  if (g_have_sse42) return Crc32cSse42(data, len, seed);
#endif
  return Crc32cPortable(data, len, seed);
}

const char* Crc32cBackendName() {
#if COSTPERF_CRC32C_HW
  if (g_have_sse42) return "sse4.2";
#endif
  return "slicing-by-8";
}

}  // namespace costperf
