#include "compression/compressor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bwtree/page_codec.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"

namespace costperf::compression {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed, output;
  Compressor::Compress(Slice(input), &compressed);
  Status s = Compressor::Decompress(Slice(compressed), &output);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

TEST(CompressorTest, EmptyInput) { EXPECT_EQ(RoundTrip(""), ""); }

TEST(CompressorTest, ShortInput) {
  EXPECT_EQ(RoundTrip("a"), "a");
  EXPECT_EQ(RoundTrip("abc"), "abc");
}

TEST(CompressorTest, RepetitiveInputCompressesWell) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "the quick brown fox ";
  std::string compressed;
  Compressor::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 5);
  std::string out;
  ASSERT_TRUE(Compressor::Decompress(Slice(compressed), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(CompressorTest, RunLengthSelfOverlap) {
  // Offset < match length exercises the overlapping-copy path.
  std::string input(10000, 'x');
  EXPECT_EQ(RoundTrip(input), input);
  std::string compressed;
  Compressor::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), 100u);
}

TEST(CompressorTest, RandomBytesRoundTrip) {
  Random rng(1234);
  for (size_t len : {1u, 5u, 64u, 1000u, 65536u}) {
    std::string input(len, '\0');
    rng.Fill(input.data(), len);
    EXPECT_EQ(RoundTrip(input), input) << "len=" << len;
  }
}

TEST(CompressorTest, IncompressibleDataExpandsOnlySlightly) {
  Random rng(555);
  std::string input(10000, '\0');
  rng.Fill(input.data(), input.size());
  std::string compressed;
  Compressor::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() + input.size() / 20 + 32);
}

TEST(CompressorTest, StructuredRecordsRoundTrip) {
  // Key-value page-like content: numbered keys with shared prefixes.
  std::string input;
  for (int i = 0; i < 500; ++i) {
    char buf[64];
    snprintf(buf, sizeof(buf), "user%08d|field_a=value_%d|", i, i % 7);
    input += buf;
  }
  EXPECT_EQ(RoundTrip(input), input);
  EXPECT_LT(Compressor::MeasureRatio(Slice(input)), 0.6);
}

TEST(CompressorTest, DecompressRejectsTruncation) {
  std::string input(1000, 'q');
  std::string compressed;
  Compressor::Compress(Slice(input), &compressed);
  std::string out;
  for (size_t cut : {compressed.size() - 1, compressed.size() / 2, size_t{1}}) {
    Status s =
        Compressor::Decompress(Slice(compressed.data(), cut), &out);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
    EXPECT_TRUE(s.IsCorruption());
  }
}

TEST(CompressorTest, DecompressRejectsGarbage) {
  Random rng(777);
  std::string garbage(256, '\0');
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    rng.Fill(garbage.data(), garbage.size());
    std::string out;
    if (!Compressor::Decompress(Slice(garbage), &out).ok()) ++failures;
  }
  // Random bytes should almost never parse as a valid stream of the right
  // declared size.
  EXPECT_GT(failures, 45);
}

TEST(CompressorTest, DecompressEnforcesSizeLimit) {
  std::string input(100000, 'z');
  std::string compressed;
  Compressor::Compress(Slice(input), &compressed);
  std::string out;
  Status s = Compressor::Decompress(Slice(compressed), &out, 1000);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(CompressorTest, MeasureRatioBounds) {
  EXPECT_DOUBLE_EQ(Compressor::MeasureRatio(Slice("")), 1.0);
  std::string repetitive(4096, 'a');
  EXPECT_LT(Compressor::MeasureRatio(Slice(repetitive)), 0.05);
}

// --- Golden streams ---------------------------------------------------------
// The encoder's output is the on-flash form of every CSS page, so its bytes
// are pinned: size and CRC32C of each compressed stream below. Each input's
// own size and CRC are pinned too, so a failure says whether the encoder or
// the input moved.

// A leaf as the CSS tier stores it: twelve records of 16-byte keys and
// 256-byte values, each value a 16-byte binary header then a repeated
// per-key text template (about 3.3 KB, one leaf page of the tiered store).
std::string WorkloadShapedLeaf() {
  bwtree::LeafBuilder leaf(Slice("key:000000004012"), 77);
  for (uint32_t k = 4000; k < 4012; ++k) {
    char key[17];
    snprintf(key, sizeof(key), "key:%012u", k);
    std::string value(256, '\0');
    EncodeFixed32(value.data(), k);
    EncodeFixed32(value.data() + 4, 3 + k % 5);
    EncodeFixed64(value.data() + 8, Hash64(k));
    char frag[48];
    const int n =
        snprintf(frag, sizeof(frag), "|key=%08x|status=active|region=2", k);
    for (size_t i = 16; i < value.size(); ++i) value[i] = frag[(i - 16) % n];
    leaf.Add(Slice(key, 16), value);
  }
  return leaf.Finish()->image().ToString();
}

// 100 KB of random bytes and runs, with copies of earlier stretches from
// both inside and beyond the 64 KiB match window.
std::string WindowCrossingMix() {
  Random rng(90210);
  std::string out;
  while (out.size() < 100'000) {
    const uint64_t pick = rng.Uniform(4);
    if (pick == 0) {
      out.append(8 + rng.Uniform(120), static_cast<char>(rng.Uniform(256)));
    } else if (pick == 1 && out.size() > 70'000) {
      const size_t len = 16 + rng.Uniform(200);
      const size_t back = 60'000 + rng.Uniform(10'000);  // straddles 65,536
      const std::string copy = out.substr(out.size() - back, len);
      out += copy;
    } else if (pick == 2 && out.size() > 4'000) {
      const size_t len = 8 + rng.Uniform(100);
      const std::string copy =
          out.substr(out.size() - 1 - rng.Uniform(4'000), len);
      out += copy;
    } else {
      for (uint64_t i = 1 + rng.Uniform(64); i > 0; --i) {
        out.push_back(static_cast<char>(rng.Uniform(256)));
      }
    }
  }
  out.resize(100'000);
  return out;
}

struct Golden {
  const char* name;
  std::string input;
  size_t input_size;
  uint32_t input_crc;
  size_t stream_size;
  uint32_t stream_crc;
};

TEST(CompressorTest, EncoderBytesArePinned) {
  const Golden cases[] = {
      {"leaf", WorkloadShapedLeaf(), 3327, 4046535096u, 461, 1251913834u},
      {"run", std::string(10'000, 'x'), 10000, 824289010u, 9, 4285819991u},
      {"window", WindowCrossingMix(), 100000, 98678171u, 36906, 2095458309u},
      {"empty", "", 0, 0u, 3, 1617208186u},
      {"one", "a", 1, 3251651376u, 4, 2740833904u},
      {"two", "ab", 2, 3802278198u, 5, 2928572087u},
      {"three", "abc", 3, 910901175u, 6, 1465270831u},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(g.input.size(), g.input_size);
    EXPECT_EQ(Crc32c(g.input.data(), g.input.size()), g.input_crc);
    std::string stream;
    Compressor::Compress(Slice(g.input), &stream);
    EXPECT_EQ(stream.size(), g.stream_size);
    EXPECT_EQ(Crc32c(stream.data(), stream.size()), g.stream_crc);
    // Again on the same thread: the previous call's table entries, at the
    // very positions this call probes, must read as empty.
    std::string again;
    Compressor::Compress(Slice(g.input), &again);
    EXPECT_EQ(again, stream);
    EXPECT_EQ(RoundTrip(g.input), g.input);
  }
}

// Property sweep over sizes: round trip always exact.
class CompressorSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressorSweepTest, MixedContentRoundTrip) {
  Random rng(GetParam());
  size_t len = 100 + rng.Uniform(20000);
  std::string input;
  input.reserve(len);
  while (input.size() < len) {
    if (rng.Bernoulli(0.5)) {
      // Compressible run.
      input.append(10 + rng.Uniform(50), static_cast<char>(rng.Uniform(256)));
    } else {
      std::string noise(1 + rng.Uniform(40), '\0');
      rng.Fill(noise.data(), noise.size());
      input += noise;
    }
  }
  EXPECT_EQ(RoundTrip(input), input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressorSweepTest,
                         ::testing::Range(1, 16));

}  // namespace
}  // namespace costperf::compression
