#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"

namespace costperf {
namespace {

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, DiffersOnSingleBitFlip) {
  std::string data(1024, 'a');
  uint32_t base = Crc32c(data.data(), data.size());
  data[512] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), base);
}

TEST(Crc32Test, SeedChaining) {
  // Chained CRC differs from unchained but is deterministic.
  uint32_t a = Crc32c("hello", 5);
  uint32_t chained = Crc32c("world", 5, a);
  EXPECT_EQ(chained, Crc32c("world", 5, Crc32c("hello", 5)));
  EXPECT_NE(chained, Crc32c("world", 5));
}

TEST(Crc32Test, BackendIsNamed) {
  const std::string name = Crc32cBackendName();
  EXPECT_TRUE(name == "sse4.2" || name == "slicing-by-8") << name;
#ifdef COSTPERF_NO_SIMD
  EXPECT_EQ(name, "slicing-by-8");
#endif
}

// Crc32c may run the SSE4.2 instruction; Crc32cPortable is the table
// code on every CPU. Records written by one must verify under the other.
TEST(Crc32Test, HardwareAndPortableAgreeOnCheckValue) {
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("123456789", 9), Crc32cPortable("123456789", 9));
  EXPECT_EQ(Crc32cPortable("", 0), 0u);
}

TEST(Crc32Test, HardwareAndPortableAgreeOnEveryLengthAndAlignment) {
  // Random bytes with 8 bytes of slack in front, so each length is also
  // checked starting at every offset within a word (0-7): the head and
  // tail loops of both implementations see every remainder.
  constexpr size_t kMaxLen = 4096;
  Random rng(7);
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, len), Crc32cPortable(p, len))
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32Test, HardwareAndPortableAgreeOnChainedSeeds) {
  Random rng(11);
  std::string data(3000, '\0');
  for (auto& c : data) c = static_cast<char>(rng.Next());
  for (uint32_t seed : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu,
                        static_cast<uint32_t>(rng.Next())}) {
    EXPECT_EQ(Crc32c(data.data(), data.size(), seed),
              Crc32cPortable(data.data(), data.size(), seed))
        << seed;
  }
  // Chaining over any split point equals one pass, in both.
  const uint32_t whole = Crc32cPortable(data.data(), data.size());
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{1500}, data.size()}) {
    const uint32_t hw_head = Crc32c(data.data(), cut);
    const uint32_t sw_head = Crc32cPortable(data.data(), cut);
    EXPECT_EQ(Crc32c(data.data() + cut, data.size() - cut, hw_head), whole)
        << cut;
    EXPECT_EQ(
        Crc32cPortable(data.data() + cut, data.size() - cut, sw_head), whole)
        << cut;
  }
}

TEST(Crc32Test, MaskRoundTrips) {
  for (uint32_t v : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu, 0xE3069283u}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(v)), v);
    EXPECT_NE(MaskCrc(v), v);
  }
}

}  // namespace
}  // namespace costperf
