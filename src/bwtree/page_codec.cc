#include "bwtree/page_codec.h"

#include <cassert>
#include <cstdint>

#include "common/coding.h"

namespace costperf::bwtree {

Status PageCodec::DecodeLeaf(std::string&& image, LeafBase* leaf) {
  // Record offsets are 32-bit.
  if (image.size() > UINT32_MAX) return Status::Corruption("leaf too large");
  const char* const start = image.data();
  const char* p = start;
  const char* limit = p + image.size();
  if (p >= limit || static_cast<uint8_t>(*p) != kFullLeaf) {
    return Status::Corruption("not a full leaf image");
  }
  ++p;
  uint64_t n = 0;
  p = GetVarint64(p, limit, &n);
  if (p == nullptr) return Status::Corruption("bad record count");
  Slice high_key;
  p = GetLengthPrefixedSlice(p, limit, &high_key);
  if (p == nullptr) return Status::Corruption("bad high key");
  if (static_cast<uint64_t>(limit - p) < sizeof(uint64_t)) {
    return Status::Corruption("missing sibling pointer");
  }
  const PageId right_sibling = DecodeFixed64(p);
  p += sizeof(uint64_t);
  // Each record takes at least its two length bytes: a larger count cannot
  // be honest, and reserving it could throw instead of failing.
  if (n > static_cast<uint64_t>(limit - p) / 2) {
    return Status::Corruption("record count exceeds image");
  }
  std::vector<LeafBase::Record> records;
  records.reserve(n);
  uint64_t payload = 0;
  for (uint64_t i = 0; i < n; ++i) {
    Slice k, v;
    p = GetLengthPrefixedSlice(p, limit, &k);
    if (p == nullptr) return Status::Corruption("bad key");
    p = GetLengthPrefixedSlice(p, limit, &v);
    if (p == nullptr) return Status::Corruption("bad value");
    records.push_back(LeafBase::Record{
        static_cast<uint32_t>(k.data() - start),
        static_cast<uint32_t>(k.size()),
        static_cast<uint32_t>(v.data() - start),
        static_cast<uint32_t>(v.size())});
    payload += k.size() + v.size();
  }
  if (p != limit) return Status::Corruption("trailing bytes in leaf image");

  // Valid: adopt. Offsets survive the move; the high key is re-pointed
  // into the leaf's own copy (a short image moves by copy).
  const size_t high_key_off = high_key.data() - start;
  leaf->image_ = std::move(image);
  leaf->records_ = std::move(records);
  leaf->high_key_ = Slice(leaf->image_.data() + high_key_off, high_key.size());
  leaf->right_sibling_ = right_sibling;
  leaf->payload_bytes_ = payload;
  leaf->search_.Build(*leaf);
  return Status::Ok();
}

LeafBuilder::LeafBuilder(const Slice& high_key, PageId right_sibling) {
  image_.push_back(static_cast<char>(PageCodec::kFullLeaf));
  // The count's varint is written by Finish; one byte holds any count
  // below 128, so only a larger page pays a shift.
  image_.push_back('\0');
  PutLengthPrefixedSlice(&image_, high_key);
  PutFixed64(&image_, right_sibling);
}

void LeafBuilder::Add(const Slice& key, const Slice& value) {
  PutLengthPrefixedSlice(&image_, key);
  PutLengthPrefixedSlice(&image_, value);
  ++count_;
}

void LeafBuilder::AddRange(const LeafBase& leaf, size_t begin, size_t end) {
  if (begin >= end) return;
  // Records are contiguous in the image: record begin starts where the
  // one before it (or the header, which ends with the sibling pointer
  // after the high key) ends.
  const Slice before =
      begin == 0 ? leaf.high_key() : leaf.value(begin - 1);
  const char* from = before.data() + before.size() +
                     (begin == 0 ? sizeof(uint64_t) : 0);
  const Slice last = leaf.value(end - 1);
  image_.append(from, last.data() + last.size() - from);
  count_ += end - begin;
}

std::unique_ptr<LeafBase> LeafBuilder::Finish() {
  char count[10];
  const size_t len = EncodeVarint64(count, count_);
  image_.replace(1, 1, count, len);
  auto leaf = std::make_unique<LeafBase>();
  Status s = PageCodec::DecodeLeaf(std::move(image_), leaf.get());
  assert(s.ok());
  (void)s;
  return leaf;
}

Status PageCodec::PeekKind(const Slice& image, uint8_t* kind) {
  if (image.empty()) return Status::Corruption("empty page image");
  *kind = static_cast<uint8_t>(image[0]);
  if (*kind != kFullLeaf) return Status::Corruption("unknown page kind");
  return Status::Ok();
}

}  // namespace costperf::bwtree
