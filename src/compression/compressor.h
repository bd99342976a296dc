#ifndef COSTPERF_COMPRESSION_COMPRESSOR_H_
#define COSTPERF_COMPRESSION_COMPRESSOR_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace costperf::compression {

// Byte-oriented LZ compressor for the compressed-secondary-storage (CSS)
// tier of §7.2 / Fig. 8. Format (all varints LEB128):
//
//   [varint raw_size]
//   repeat:
//     [varint literal_len][literal bytes]
//     [varint match_len][varint match_offset]   (match_len 0 ends stream)
//
// Compress finds matches through a hash of 4 input bytes over a 64 KiB
// window, extends each match 8 bytes per compare, and seeds the hash table
// every 7 bytes inside a match. The 2^14-entry table is per thread and
// reused across calls: each entry carries the base of the call that wrote
// it, so a call never clears it. The stream is the on-flash form of every
// CSS page; tests pin its bytes, so a faster encoder may not change them.
//
// Decompress sizes its output once, from raw_size, and fills it with
// memcpy: literals and non-overlapping matches directly, short ones as one
// fixed 16-byte copy where the room allows, and a self-overlapping match
// (offset < length) by copies that double in length and read only bytes
// already written. Every length is checked against the room left.
//
// Speed on a 3.3 KB leaf shaped like the tiered benchmark's (16 B keys,
// 256 B templated values, ratio 0.14), `micro_structures` pinned to one
// vCPU of a shared 4-vCPU Xeon: compress 2.0–2.2 µs/page (1.4–1.5 GB/s),
// decompress 0.80–0.86 µs/page (3.6–3.9 GB/s). Decompression cost is the
// model's `decompress_r` input.

// Raw/compressed byte counts from a single Compress call, so a tiered
// tree's flush can apply its ratio policy without compressing twice.
struct CompressInfo {
  uint64_t raw_size = 0;
  uint64_t compressed_size = 0;
  // compressed/raw; 1.0 for empty input (nothing saved, nothing lost).
  double ratio() const {
    return raw_size == 0 ? 1.0
                         : static_cast<double>(compressed_size) /
                               static_cast<double>(raw_size);
  }
};

class Compressor {
 public:
  // Appends the compressed form of `input` to *out (out is cleared first).
  static void Compress(const Slice& input, std::string* out);

  // Same, reporting raw/compressed sizes of this one call so callers that
  // gate on the ratio (a tiered tree's flush) never compress the input
  // twice.
  static void Compress(const Slice& input, std::string* out,
                       CompressInfo* info);

  // Decompresses into *out (cleared first). Fails with Corruption on
  // malformed input; refuses outputs larger than max_raw_size.
  static Status Decompress(const Slice& input, std::string* out,
                           size_t max_raw_size = 64 << 20);

  // Convenience: compressed_size / raw_size for this input (1.0 for empty).
  static double MeasureRatio(const Slice& input);

  static constexpr int kMinMatch = 4;
  static constexpr int kMaxOffset = 1 << 16;
  static constexpr int kHashBits = 14;
};

}  // namespace costperf::compression

#endif  // COSTPERF_COMPRESSION_COMPRESSOR_H_
