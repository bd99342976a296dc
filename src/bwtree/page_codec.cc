#include "bwtree/page_codec.h"

#include "common/coding.h"

namespace costperf::bwtree {

void PageCodec::EncodeLeaf(const LeafBase& leaf, std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(kFullLeaf));
  PutVarint64(out, leaf.keys.size());
  PutLengthPrefixedSlice(out, Slice(leaf.high_key));
  PutFixed64(out, leaf.right_sibling);
  for (size_t i = 0; i < leaf.keys.size(); ++i) {
    PutLengthPrefixedSlice(out, Slice(leaf.keys[i]));
    PutLengthPrefixedSlice(out, Slice(leaf.values[i]));
  }
}

Status PageCodec::DecodeLeaf(const Slice& image, LeafBase* leaf) {
  const char* p = image.data();
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
  leaf->high_key = high_key.ToString();
  leaf->right_sibling = DecodeFixed64(p);
  p += sizeof(uint64_t);
  // Each record takes at least its two length bytes: a larger count cannot
  // be honest, and reserving it could throw instead of failing.
  if (n > static_cast<uint64_t>(limit - p) / 2) {
    return Status::Corruption("record count exceeds image");
  }
  leaf->keys.clear();
  leaf->values.clear();
  leaf->keys.reserve(n);
  leaf->values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Slice k, v;
    p = GetLengthPrefixedSlice(p, limit, &k);
    if (p == nullptr) return Status::Corruption("bad key");
    p = GetLengthPrefixedSlice(p, limit, &v);
    if (p == nullptr) return Status::Corruption("bad value");
    leaf->keys.push_back(k.ToString());
    leaf->values.push_back(v.ToString());
  }
  if (p != limit) return Status::Corruption("trailing bytes in leaf image");
  return Status::Ok();
}

void PageCodec::EncodeDeltaPage(FlashAddress prev,
                                const std::vector<DeltaOp>& ops,
                                std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(kDeltaPage));
  PutFixed64(out, prev.packed());
  PutVarint64(out, ops.size());
  for (const auto& op : ops) {
    out->push_back(static_cast<char>(op.kind));
    PutLengthPrefixedSlice(out, Slice(op.key));
    if (op.kind == DeltaOp::kInsert) {
      PutLengthPrefixedSlice(out, Slice(op.value));
    }
    PutVarint64(out, op.timestamp);
  }
}

Status PageCodec::DecodeDeltaPage(const Slice& image, FlashAddress* prev,
                                  std::vector<DeltaOp>* ops) {
  const char* p = image.data();
  const char* limit = p + image.size();
  if (p >= limit || static_cast<uint8_t>(*p) != kDeltaPage) {
    return Status::Corruption("not a delta page image");
  }
  ++p;
  if (static_cast<uint64_t>(limit - p) < sizeof(uint64_t)) {
    return Status::Corruption("missing prev pointer");
  }
  *prev = FlashAddress::FromPacked(DecodeFixed64(p));
  p += sizeof(uint64_t);
  uint64_t n = 0;
  p = GetVarint64(p, limit, &n);
  if (p == nullptr) return Status::Corruption("bad op count");
  // Each op takes at least a kind byte, a key length and a timestamp.
  if (n > static_cast<uint64_t>(limit - p) / 3) {
    return Status::Corruption("op count exceeds image");
  }
  ops->clear();
  ops->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (p >= limit) return Status::Corruption("truncated op");
    DeltaOp op;
    uint8_t kind = static_cast<uint8_t>(*p++);
    if (kind > DeltaOp::kDelete) return Status::Corruption("bad op kind");
    op.kind = static_cast<DeltaOp::Kind>(kind);
    Slice k;
    p = GetLengthPrefixedSlice(p, limit, &k);
    if (p == nullptr) return Status::Corruption("bad op key");
    op.key = k.ToString();
    if (op.kind == DeltaOp::kInsert) {
      Slice v;
      p = GetLengthPrefixedSlice(p, limit, &v);
      if (p == nullptr) return Status::Corruption("bad op value");
      op.value = v.ToString();
    }
    p = GetVarint64(p, limit, &op.timestamp);
    if (p == nullptr) return Status::Corruption("bad op timestamp");
    ops->push_back(std::move(op));
  }
  if (p != limit) {
    return Status::Corruption("trailing bytes in delta page image");
  }
  return Status::Ok();
}

Status PageCodec::PeekKind(const Slice& image, uint8_t* kind) {
  if (image.empty()) return Status::Corruption("empty page image");
  *kind = static_cast<uint8_t>(image[0]);
  if (*kind > kDeltaPage) return Status::Corruption("unknown page kind");
  return Status::Ok();
}

}  // namespace costperf::bwtree
