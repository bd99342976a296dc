#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "compression/compressor.h"

namespace costperf::compression {
namespace {

// Robustness contract of Decompress (the CSS tier's read path): any byte
// string — truncated, bit-flipped, or pure noise — either round-trips or
// fails with a clean Corruption. It must never crash, hang, or allocate
// past max_raw_size, because a torn or corrupted log record reaches this
// code before the CRC layer has vouched for it during recovery scans.

std::string StructuredPayload(size_t records) {
  std::string out;
  for (size_t i = 0; i < records; ++i) {
    char buf[96];
    snprintf(buf, sizeof(buf), "name=customer_%04zu|city=city_%03zu|tier=%s|",
             i % 1000, i % 250, i % 3 ? "gold" : "basic");
    out += buf;
  }
  return out;
}

// Reference decoder: the format decoded one byte at a time, with every
// check Decompress makes. Its match loop reads each byte after the one
// before it was written, so self-overlapping matches are right by
// construction; its bounds compare each length with the room left, so it
// too fails cleanly on any stream. Decompress must agree with it.
Status ReferenceDecompress(const Slice& input, std::string* out,
                           size_t max_raw_size) {
  out->clear();
  const char* p = input.data();
  const char* limit = p + input.size();
  uint64_t raw_size = 0;
  p = GetVarint64(p, limit, &raw_size);
  if (p == nullptr) return Status::Corruption("bad raw size");
  if (raw_size > max_raw_size) return Status::Corruption("size over limit");
  for (;;) {
    uint64_t lit_len = 0;
    p = GetVarint64(p, limit, &lit_len);
    if (p == nullptr) return Status::Corruption("truncated literal length");
    if (static_cast<uint64_t>(limit - p) < lit_len) {
      return Status::Corruption("truncated literals");
    }
    if (lit_len > raw_size - out->size()) {
      return Status::Corruption("output overruns declared size");
    }
    out->append(p, lit_len);
    p += lit_len;
    uint64_t match_len = 0;
    p = GetVarint64(p, limit, &match_len);
    if (p == nullptr) return Status::Corruption("truncated match length");
    if (match_len == 0) break;
    uint64_t offset = 0;
    p = GetVarint64(p, limit, &offset);
    if (p == nullptr) return Status::Corruption("truncated match offset");
    if (offset == 0 || offset > out->size()) {
      return Status::Corruption("match offset out of range");
    }
    if (match_len > raw_size - out->size()) {
      return Status::Corruption("output overruns declared size");
    }
    const size_t from = out->size() - offset;
    for (uint64_t i = 0; i < match_len; ++i) out->push_back((*out)[from + i]);
  }
  if (out->size() != raw_size) {
    return Status::Corruption("decompressed size mismatch");
  }
  return Status::Ok();
}

// Decompress either succeeds within max_raw with the reference's bytes, or
// fails with Corruption where the reference fails too.
void ExpectDecompressIsTotal(const Slice& input, size_t max_raw) {
  std::string out, want;
  Status s = Compressor::Decompress(input, &out, max_raw);
  Status ref = ReferenceDecompress(input, &want, max_raw);
  EXPECT_EQ(s.code(), ref.code()) << s.ToString() << " vs " << ref.ToString();
  if (s.ok()) {
    EXPECT_LE(out.size(), max_raw);
    EXPECT_EQ(out, want);
  } else {
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

// Builds a stream by hand: raw_size, then (literals, match) pairs. A pair
// with match_len 0 ends the stream.
struct StreamBuilder {
  std::string bytes;
  explicit StreamBuilder(uint64_t raw_size) { PutVarint64(&bytes, raw_size); }
  StreamBuilder& Step(const std::string& literals, uint64_t match_len,
                      uint64_t offset = 0) {
    PutVarint64(&bytes, literals.size());
    bytes += literals;
    PutVarint64(&bytes, match_len);
    if (match_len > 0) PutVarint64(&bytes, offset);
    return *this;
  }
  Slice slice() const { return Slice(bytes); }
};

TEST(CompressorRobustnessTest, TruncationAtEveryLengthIsClean) {
  std::string compressed;
  Compressor::Compress(Slice(StructuredPayload(200)), &compressed);
  ASSERT_GT(compressed.size(), 8u);
  for (size_t len = 0; len < compressed.size(); ++len) {
    ExpectDecompressIsTotal(Slice(compressed.data(), len), 1 << 20);
  }
}

TEST(CompressorRobustnessTest, SingleBitFlipsAreCleanOrRoundTrip) {
  const std::string raw = StructuredPayload(120);
  std::string compressed;
  Compressor::Compress(Slice(raw), &compressed);
  // Every bit of the stream flipped once. A flip the format cannot detect
  // may "succeed" with different bytes — that is the CRC layer's job —
  // but it must stay within max_raw_size and never crash.
  for (size_t byte = 0; byte < compressed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = compressed;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      ExpectDecompressIsTotal(Slice(mutated), raw.size() * 4);
    }
  }
}

TEST(CompressorRobustnessTest, RandomNoiseBuffersAreClean) {
  Random rng(20260808);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = rng.Uniform(512);
    std::string noise(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      noise[i] = static_cast<char>(rng.Uniform(256));
    }
    ExpectDecompressIsTotal(Slice(noise), 1 << 16);
  }
}

TEST(CompressorRobustnessTest, ClaimedRawSizePastLimitIsRefused) {
  // A stream whose raw_size varint claims far more than the caller's
  // bound must be refused up front, not after allocating the claim.
  std::string compressed;
  Compressor::Compress(Slice(StructuredPayload(300)), &compressed);
  std::string out;
  Status s = Compressor::Decompress(Slice(compressed), &out,
                                    /*max_raw_size=*/16);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CompressorRobustnessTest, RoundTripRepetitive) {
  const std::string raw(256 << 10, 'z');
  std::string compressed, back;
  CompressInfo info;
  Compressor::Compress(Slice(raw), &compressed, &info);
  EXPECT_EQ(info.raw_size, raw.size());
  EXPECT_EQ(info.compressed_size, compressed.size());
  EXPECT_LT(info.ratio(), 0.05);
  ASSERT_TRUE(Compressor::Decompress(Slice(compressed), &back).ok());
  EXPECT_EQ(back, raw);
}

TEST(CompressorRobustnessTest, RoundTripIncompressible) {
  Random rng(42);
  std::string raw(64 << 10, '\0');
  for (auto& c : raw) c = static_cast<char>(rng.Uniform(256));
  std::string compressed, back;
  CompressInfo info;
  Compressor::Compress(Slice(raw), &compressed, &info);
  // Noise cannot shrink; the format's literal framing keeps the
  // expansion bounded rather than letting it run away.
  EXPECT_LT(info.ratio(), 1.1);
  ASSERT_TRUE(Compressor::Decompress(Slice(compressed), &back).ok());
  EXPECT_EQ(back, raw);
}

TEST(CompressorRobustnessTest, RoundTripEmpty) {
  std::string compressed, back;
  CompressInfo info;
  Compressor::Compress(Slice(), &compressed, &info);
  EXPECT_EQ(info.raw_size, 0u);
  EXPECT_EQ(info.ratio(), 1.0);
  ASSERT_TRUE(Compressor::Decompress(Slice(compressed), &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(CompressorRobustnessTest, RoundTripRandomLengthsRandomContent) {
  Random rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.Uniform(8192);
    std::string raw(len, '\0');
    // Mix of compressible runs and noise, stressing match emission.
    for (size_t i = 0; i < len; ++i) {
      raw[i] = rng.Bernoulli(0.3) ? static_cast<char>(rng.Uniform(256))
                                  : static_cast<char>('a' + (i / 7) % 4);
    }
    std::string compressed, back;
    Compressor::Compress(Slice(raw), &compressed);
    ASSERT_TRUE(Compressor::Decompress(Slice(compressed), &back).ok())
        << "trial " << trial;
    ASSERT_EQ(back, raw) << "trial " << trial;
  }
}

TEST(CompressorRobustnessTest, MatchLengthNearWrapIsRefused) {
  // raw_size 100, five literals, then a match of 2^64 - 1 bytes at offset
  // 1: produced + match_len wraps, so only a room-left check refuses it.
  constexpr uint64_t kHuge = std::numeric_limits<uint64_t>::max();
  StreamBuilder stream(100);
  stream.Step("abcde", kHuge, 1).Step("", 0);
  ASSERT_EQ(stream.bytes.size(), 20u);
  std::string out;
  Status s = Compressor::Decompress(stream.slice(), &out, 1 << 20);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_LE(out.size(), 100u);
  ExpectDecompressIsTotal(stream.slice(), 1 << 20);
}

TEST(CompressorRobustnessTest, LiteralLengthNearWrapIsRefused) {
  constexpr uint64_t kHuge = std::numeric_limits<uint64_t>::max();
  StreamBuilder stream(100);
  stream.Step("abcde", 3, 1);
  PutVarint64(&stream.bytes, kHuge);  // a literal run of 2^64 - 1 bytes
  stream.bytes += "xyz";
  std::string out;
  Status s = Compressor::Decompress(stream.slice(), &out, 1 << 20);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_LE(out.size(), 100u);
  ExpectDecompressIsTotal(stream.slice(), 1 << 20);
}

TEST(CompressorRobustnessTest, OverlappingMatchesAgreeWithReference) {
  // Every offset from 1 to 40 against lengths 1..300: offsets below the
  // length make the match copy its own output. Literals before the match
  // are longer than the offset for some lengths, so the match source is
  // not always the stream's first byte; a literal tail follows it.
  for (uint64_t offset = 1; offset <= 40; ++offset) {
    for (uint64_t len = 1; len <= 300; ++len) {
      std::string head;
      for (uint64_t i = 0; i < offset + len % 3; ++i) {
        head.push_back(static_cast<char>('A' + (i * 7 + len) % 26));
      }
      const std::string tail = "tail";
      StreamBuilder stream(head.size() + len + tail.size());
      stream.Step(head, len, offset).Step(tail, 0);
      SCOPED_TRACE("offset " + std::to_string(offset) + " len " +
                   std::to_string(len));
      std::string out;
      ASSERT_TRUE(Compressor::Decompress(stream.slice(), &out).ok());
      ExpectDecompressIsTotal(stream.slice(), 1 << 20);
    }
  }
}

TEST(CompressorRobustnessTest, OutputEndingExactlyAtRawSize) {
  // The last literal, and the last match, fill the output exactly.
  StreamBuilder literal_end(8);
  literal_end.Step("abcdefgh", 0);
  StreamBuilder match_end(13);
  match_end.Step("abc", 10, 3).Step("", 0);
  StreamBuilder both(9);
  both.Step("ab", 5, 1).Step("xy", 0);
  for (const StreamBuilder* s : {&literal_end, &match_end, &both}) {
    std::string out;
    ASSERT_TRUE(Compressor::Decompress(s->slice(), &out).ok());
    ExpectDecompressIsTotal(s->slice(), 1 << 20);
  }
}

TEST(CompressorRobustnessTest, OffByOneStreamsAreRefusedLikeReference) {
  StreamBuilder offset_past_output(10);  // offset = produced + 1
  offset_past_output.Step("abcd", 6, 5).Step("", 0);
  StreamBuilder match_past_raw(10);  // one byte past raw_size
  match_past_raw.Step("abcd", 7, 2).Step("", 0);
  StreamBuilder literal_past_raw(4);
  literal_past_raw.Step("abcde", 0);
  StreamBuilder early_end(11);  // end marker one byte early
  early_end.Step("abcd", 6, 2).Step("", 0);
  for (const StreamBuilder* s : {&offset_past_output, &match_past_raw,
                                 &literal_past_raw, &early_end}) {
    std::string out;
    EXPECT_TRUE(Compressor::Decompress(s->slice(), &out).IsCorruption());
    ExpectDecompressIsTotal(s->slice(), 1 << 20);
  }
}

}  // namespace
}  // namespace costperf::compression
