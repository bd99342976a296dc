#include "bwtree/page_codec.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"

namespace costperf::bwtree {
namespace {

TEST(PageCodecTest, LeafRoundTrip) {
  LeafBase leaf;
  leaf.keys = {"apple", "banana", "cherry"};
  leaf.values = {"1", "22", "333"};
  leaf.high_key = "d";
  leaf.right_sibling = 42;
  std::string image;
  PageCodec::EncodeLeaf(leaf, &image);

  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(Slice(image), &out).ok());
  EXPECT_EQ(out.keys, leaf.keys);
  EXPECT_EQ(out.values, leaf.values);
  EXPECT_EQ(out.high_key, "d");
  EXPECT_EQ(out.right_sibling, 42u);
}

TEST(PageCodecTest, EmptyLeafRoundTrip) {
  LeafBase leaf;
  std::string image;
  PageCodec::EncodeLeaf(leaf, &image);
  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(Slice(image), &out).ok());
  EXPECT_TRUE(out.keys.empty());
  EXPECT_TRUE(out.high_key.empty());
  EXPECT_EQ(out.right_sibling, kInvalidPageId);
}

TEST(PageCodecTest, DeltaPageRoundTrip) {
  std::vector<DeltaOp> ops;
  ops.push_back({DeltaOp::kInsert, "k1", "v1", 5});
  ops.push_back({DeltaOp::kDelete, "k2", "", 7});
  ops.push_back({DeltaOp::kInsert, "k3", "", 0});  // empty value legal
  FlashAddress prev(12345, 678);
  std::string image;
  PageCodec::EncodeDeltaPage(prev, ops, &image);

  FlashAddress got_prev;
  std::vector<DeltaOp> got;
  ASSERT_TRUE(PageCodec::DecodeDeltaPage(Slice(image), &got_prev, &got).ok());
  EXPECT_EQ(got_prev, prev);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].kind, DeltaOp::kInsert);
  EXPECT_EQ(got[0].key, "k1");
  EXPECT_EQ(got[0].value, "v1");
  EXPECT_EQ(got[0].timestamp, 5u);
  EXPECT_EQ(got[1].kind, DeltaOp::kDelete);
  EXPECT_EQ(got[1].key, "k2");
  EXPECT_EQ(got[2].value, "");
}

TEST(PageCodecTest, PeekKindDistinguishes) {
  LeafBase leaf;
  std::string leaf_img;
  PageCodec::EncodeLeaf(leaf, &leaf_img);
  std::string delta_img;
  PageCodec::EncodeDeltaPage(FlashAddress(), {}, &delta_img);
  uint8_t kind = 99;
  ASSERT_TRUE(PageCodec::PeekKind(Slice(leaf_img), &kind).ok());
  EXPECT_EQ(kind, PageCodec::kFullLeaf);
  ASSERT_TRUE(PageCodec::PeekKind(Slice(delta_img), &kind).ok());
  EXPECT_EQ(kind, PageCodec::kDeltaPage);
  EXPECT_FALSE(PageCodec::PeekKind(Slice(""), &kind).ok());
  std::string junk = "\x7fjunk";
  EXPECT_FALSE(PageCodec::PeekKind(Slice(junk), &kind).ok());
}

TEST(PageCodecTest, DecodeLeafRejectsWrongKind) {
  std::string delta_img;
  PageCodec::EncodeDeltaPage(FlashAddress(), {}, &delta_img);
  LeafBase out;
  EXPECT_TRUE(PageCodec::DecodeLeaf(Slice(delta_img), &out).IsCorruption());
}

TEST(PageCodecTest, DecodeRejectsTruncation) {
  LeafBase leaf;
  leaf.keys = {"k"};
  leaf.values = {"v"};
  std::string image;
  PageCodec::EncodeLeaf(leaf, &image);
  LeafBase out;
  for (size_t cut = 1; cut < image.size(); ++cut) {
    EXPECT_FALSE(
        PageCodec::DecodeLeaf(Slice(image.data(), cut), &out).ok())
        << cut;
  }
}

TEST(PageCodecTest, DecodeRejectsTrailingBytes) {
  LeafBase leaf;
  std::string image;
  PageCodec::EncodeLeaf(leaf, &image);
  image += "extra";
  LeafBase out;
  EXPECT_TRUE(PageCodec::DecodeLeaf(Slice(image), &out).IsCorruption());
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
  EXPECT_TRUE(PageCodec::DecodeLeaf(Slice(leaf_img), &leaf).IsCorruption());

  // A 15-byte delta image claiming 2^40 ops.
  std::string delta_img;
  delta_img.push_back(static_cast<char>(PageCodec::kDeltaPage));
  PutFixed64(&delta_img, FlashAddress().packed());
  PutVarint64(&delta_img, uint64_t{1} << 40);
  ASSERT_EQ(delta_img.size(), 15u);
  FlashAddress prev;
  std::vector<DeltaOp> ops;
  EXPECT_TRUE(
      PageCodec::DecodeDeltaPage(Slice(delta_img), &prev, &ops).IsCorruption());
}

TEST(PageCodecTest, BinaryKeysAndValues) {
  Random rng(31);
  LeafBase leaf;
  for (int i = 0; i < 100; ++i) {
    std::string k(1 + rng.Uniform(40), '\0');
    std::string v(rng.Uniform(200), '\0');
    rng.Fill(k.data(), k.size());
    rng.Fill(v.data(), v.size());
    leaf.keys.push_back(k);
    leaf.values.push_back(v);
  }
  std::string image;
  PageCodec::EncodeLeaf(leaf, &image);
  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeLeaf(Slice(image), &out).ok());
  EXPECT_EQ(out.keys, leaf.keys);
  EXPECT_EQ(out.values, leaf.values);
}

TEST(PageCodecTest, VariableImageSizeTracksContent) {
  // §6.1: variable-size pages — the image is proportional to content.
  LeafBase small, large;
  small.keys = {"k"};
  small.values = {"v"};
  for (int i = 0; i < 100; ++i) {
    large.keys.push_back("key" + std::to_string(i));
    large.values.push_back(std::string(30, 'v'));
  }
  std::string si, li;
  PageCodec::EncodeLeaf(small, &si);
  PageCodec::EncodeLeaf(large, &li);
  EXPECT_LT(si.size(), 32u);
  EXPECT_GT(li.size(), 3000u);
}

}  // namespace
}  // namespace costperf::bwtree
