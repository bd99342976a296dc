#include "bwtree/page_codec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"

namespace costperf::bwtree {
namespace {

// Builds a leaf from parallel key/value lists, in the given order.
std::unique_ptr<LeafBase> BuildLeaf(const std::vector<std::string>& keys,
                                    const std::vector<std::string>& values,
                                    const Slice& high_key = Slice(),
                                    PageId right_sibling = kInvalidPageId) {
  LeafBuilder b(high_key, right_sibling);
  for (size_t i = 0; i < keys.size(); ++i) b.Add(keys[i], values[i]);
  return b.Finish();
}

std::vector<std::string> Keys(const LeafBase& leaf) {
  std::vector<std::string> out;
  for (size_t i = 0; i < leaf.size(); ++i) {
    out.push_back(leaf.key(i).ToString());
  }
  return out;
}

std::vector<std::string> Values(const LeafBase& leaf) {
  std::vector<std::string> out;
  for (size_t i = 0; i < leaf.size(); ++i) {
    out.push_back(leaf.value(i).ToString());
  }
  return out;
}

TEST(PageCodecTest, LeafRoundTrip) {
  const std::vector<std::string> keys = {"apple", "banana", "cherry"};
  const std::vector<std::string> values = {"1", "22", "333"};
  auto leaf = BuildLeaf(keys, values, "d", 42);
  std::string image = leaf->image().ToString();

  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(std::move(image), &out).ok());
  EXPECT_EQ(Keys(out), keys);
  EXPECT_EQ(Values(out), values);
  EXPECT_EQ(out.high_key(), Slice("d"));
  EXPECT_EQ(out.right_sibling(), 42u);
  EXPECT_EQ(out.image(), leaf->image());
  // Adopted, not copied: every record is a view into the leaf's image.
  const Slice img = out.image();
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out.key(i).data(), img.data());
    EXPECT_LE(out.value(i).data() + out.value(i).size(),
              img.data() + img.size());
  }
}

TEST(PageCodecTest, EmptyLeafRoundTrip) {
  auto leaf = BuildLeaf({}, {});
  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(leaf->image().ToString(), &out).ok());
  EXPECT_EQ(out.size(), 0u);
  EXPECT_TRUE(out.high_key().empty());
  EXPECT_EQ(out.right_sibling(), kInvalidPageId);
}

// The bytes a builder writes are the bytes the vector-of-strings encoder
// wrote before leaves became images: size and CRC32C of each image below
// were recorded from that encoder, so pages on flash stay readable and a
// change to the format shows up here.
TEST(PageCodecTest, BuilderImagesArePinned) {
  std::vector<std::string> wide_keys, wide_values;
  for (int i = 0; i < 3; ++i) {
    char key[17];
    snprintf(key, sizeof(key), "key:%012d", i);
    std::string v(256, '\0');  // 2-byte length varints
    for (size_t j = 0; j < v.size(); ++j) {
      v[j] = static_cast<char>('a' + (i * 7 + j) % 26);
    }
    wide_keys.emplace_back(key, 16);
    wide_values.push_back(v);
  }
  struct Golden {
    const char* name;
    std::unique_ptr<LeafBase> leaf;
    size_t size;
    uint32_t crc;
  };
  const Golden cases[] = {
      {"empty", BuildLeaf({}, {}), 11, 1855868853u},
      {"one", BuildLeaf({"apple"}, {"red"}), 21, 2228099990u},
      {"wide", BuildLeaf(wide_keys, wide_values), 836, 590719523u},
      {"binary",
       BuildLeaf({std::string("\0", 1), std::string("\0\0x", 3),
                  std::string("a\0b", 3), std::string("a\0c", 3)},
                 {std::string("\0v", 2), std::string(),
                  std::string("x\0\0", 3), std::string("\0", 1)}),
       35, 888360796u},
      {"fenced", BuildLeaf({"apple", "banana", "cherry"}, {"1", "22", "333"},
                           "d", 42),
       41, 3658014059u},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.name);
    const Slice img = g.leaf->image();
    EXPECT_EQ(img.size(), g.size);
    EXPECT_EQ(Crc32c(img.data(), img.size()), g.crc);
  }
  EXPECT_EQ(cases[3].leaf->key(2), Slice("a\0b", 3));
  EXPECT_EQ(cases[3].leaf->value(2), Slice("x\0\0", 3));
}

TEST(PageCodecTest, AddRangeCopiesRecordsAsAdded) {
  std::vector<std::string> keys, values;
  for (int i = 0; i < 10; ++i) {
    keys.push_back("key" + std::to_string(i));
    values.push_back(std::string(i * 30, static_cast<char>('a' + i)));
  }
  auto src = BuildLeaf(keys, values, "key9~", 7);
  // Ranges at the front, middle and back, mixed with single records.
  LeafBuilder b("zzz", 9);
  b.AddRange(*src, 0, 3);
  b.Add("key3", "replaced");
  b.AddRange(*src, 4, 4);  // empty
  b.AddRange(*src, 5, 10);
  auto got = b.Finish();
  keys.erase(keys.begin() + 4);
  values.erase(values.begin() + 4);
  values[3] = "replaced";
  auto want = BuildLeaf(keys, values, "zzz", 9);
  EXPECT_EQ(got->image(), want->image());
  EXPECT_EQ(Keys(*got), keys);
  EXPECT_EQ(Values(*got), values);
}

TEST(PageCodecTest, LargeRecordCountTakesAMultiByteVarint) {
  std::vector<std::string> keys, values;
  for (int i = 0; i < 300; ++i) {
    char key[8];
    snprintf(key, sizeof(key), "k%04d", i);
    keys.push_back(key);
    values.push_back(std::to_string(i));
  }
  auto leaf = BuildLeaf(keys, values, "l", 3);
  EXPECT_EQ(static_cast<uint8_t>(leaf->image()[1]), 0x80 | (300 & 0x7f));
  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(leaf->image().ToString(), &out).ok());
  EXPECT_EQ(Keys(out), keys);
  EXPECT_EQ(Values(out), values);
  EXPECT_EQ(out.high_key(), Slice("l"));
}

// The modeled footprint the cache budget and the cost model count is the
// packed record bytes plus the same per-page header term as before leaves
// became images, which held two string vectors.
TEST(PageCodecTest, ApproxBytesKeepsTheModeledFootprint) {
  struct VectorLeafLayout : Node {
    VectorLeafLayout() : Node(NodeType::kLeafBase) {}
    std::vector<std::string> keys, values;
    std::string high_key;
    PageId right_sibling = kInvalidPageId;
    NodeSearchIndex search;
  };
  EXPECT_EQ(sizeof(LeafBase), sizeof(VectorLeafLayout));
  auto leaf = BuildLeaf({"apple", "banana"}, {"1", "22"}, "d", 42);
  EXPECT_EQ(leaf->PayloadBytes(), 5u + 6u + 1u + 2u);
  EXPECT_EQ(leaf->ApproxBytes(),
            sizeof(VectorLeafLayout) + leaf->PayloadBytes() + 2 * 10 + 1);
}

// A full leaf image, kind 0, is the one page form: any other kind byte
// is corruption.
TEST(PageCodecTest, PeekKindDistinguishes) {
  const std::string leaf_img = BuildLeaf({}, {})->image().ToString();
  uint8_t kind = 99;
  ASSERT_TRUE(PageCodec::PeekKind(Slice(leaf_img), &kind).ok());
  EXPECT_EQ(kind, PageCodec::kFullLeaf);
  std::string kind_one = leaf_img;
  kind_one[0] = 1;
  EXPECT_TRUE(PageCodec::PeekKind(Slice(kind_one), &kind).IsCorruption());
  EXPECT_FALSE(PageCodec::PeekKind(Slice(""), &kind).ok());
  std::string junk = "\x7fjunk";
  EXPECT_FALSE(PageCodec::PeekKind(Slice(junk), &kind).ok());
}

TEST(PageCodecTest, DecodeLeafRejectsWrongKind) {
  std::string image = BuildLeaf({"k"}, {"v"})->image().ToString();
  image[0] = 1;
  LeafBase out;
  EXPECT_TRUE(PageCodec::DecodeLeaf(std::move(image), &out).IsCorruption());
}

TEST(PageCodecTest, DecodeRejectsTruncation) {
  const std::string image = BuildLeaf({"k"}, {"v"})->image().ToString();
  LeafBase out;
  for (size_t cut = 1; cut < image.size(); ++cut) {
    EXPECT_FALSE(PageCodec::DecodeLeaf(image.substr(0, cut), &out).ok())
        << cut;
  }
}

// A refused image leaves both the leaf and the caller's string as they
// were: nothing half-decoded can be installed.
TEST(PageCodecTest, RefusedImageIsNotAdopted) {
  auto good = BuildLeaf({"a", "b"}, {"1", "2"}, "c", 5);
  LeafBase leaf;
  ASSERT_TRUE(PageCodec::DecodeLeaf(good->image().ToString(), &leaf).ok());
  std::string bad = BuildLeaf({"x"}, {"y"})->image().ToString();
  bad.pop_back();  // truncated value
  const std::string before = bad;
  EXPECT_TRUE(PageCodec::DecodeLeaf(std::move(bad), &leaf).IsCorruption());
  EXPECT_EQ(bad, before);  // NOLINT(bugprone-use-after-move): not moved
  EXPECT_EQ(leaf.image(), good->image());
  EXPECT_EQ(Keys(leaf), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(leaf.high_key(), Slice("c"));
}

TEST(PageCodecTest, DecodeRejectsTrailingBytes) {
  std::string image = BuildLeaf({}, {})->image().ToString();
  image += "extra";
  LeafBase out;
  EXPECT_TRUE(PageCodec::DecodeLeaf(std::move(image), &out).IsCorruption());
}

TEST(PageCodecTest, DecodeRejectsRecordCountPastImage) {
  // A 16-byte leaf image claiming 2^40 records: the count must be refused
  // before anything is sized by it.
  std::string leaf_img;
  leaf_img.push_back(static_cast<char>(PageCodec::kFullLeaf));
  PutVarint64(&leaf_img, uint64_t{1} << 40);
  PutLengthPrefixedSlice(&leaf_img, Slice());
  PutFixed64(&leaf_img, kInvalidPageId);
  ASSERT_EQ(leaf_img.size(), 16u);
  LeafBase leaf;
  EXPECT_TRUE(
      PageCodec::DecodeLeaf(std::move(leaf_img), &leaf).IsCorruption());
}

TEST(PageCodecTest, BinaryKeysAndValues) {
  Random rng(31);
  std::vector<std::string> keys, values;
  for (int i = 0; i < 100; ++i) {
    std::string k(1 + rng.Uniform(40), '\0');
    std::string v(rng.Uniform(200), '\0');
    rng.Fill(k.data(), k.size());
    rng.Fill(v.data(), v.size());
    keys.push_back(k);
    values.push_back(v);
  }
  auto leaf = BuildLeaf(keys, values);
  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(leaf->image().ToString(), &out).ok());
  EXPECT_EQ(Keys(out), keys);
  EXPECT_EQ(Values(out), values);
}

TEST(PageCodecTest, VariableImageSizeTracksContent) {
  // §6.1: variable-size pages — the image is proportional to content.
  auto small = BuildLeaf({"k"}, {"v"});
  LeafBuilder large(Slice(), kInvalidPageId);
  for (int i = 0; i < 100; ++i) {
    large.Add("key" + std::to_string(i), std::string(30, 'v'));
  }
  EXPECT_LT(small->image().size(), 32u);
  EXPECT_GT(large.Finish()->image().size(), 3000u);
}

}  // namespace
}  // namespace costperf::bwtree
