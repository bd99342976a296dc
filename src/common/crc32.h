#ifndef COSTPERF_COMMON_CRC32_H_
#define COSTPERF_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace costperf {

// CRC-32C (Castagnoli). Used to checksum pages and log segments on the
// simulated flash device so corruption injection and torn writes are
// detectable, as a real store would. On x86-64 it runs the SSE4.2 crc32
// instruction when the CPU has it (checked once, at startup); otherwise,
// and in a -DCOSTPERF_NO_SIMD build, the slicing-by-8 tables below. Both
// give the same values, so records written under one verify under the
// other.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// The slicing-by-8 table implementation, callable on any CPU (tests check
// it against Crc32c).
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed = 0);

// The implementation Crc32c runs: "sse4.2" or "slicing-by-8".
const char* Crc32cBackendName();

// Masked CRC (RocksDB-style rotation+offset) so that a CRC stored next to
// the data it covers does not checksum to itself.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace costperf

#endif  // COSTPERF_COMMON_CRC32_H_
