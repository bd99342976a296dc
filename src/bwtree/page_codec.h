#ifndef COSTPERF_BWTREE_PAGE_CODEC_H_
#define COSTPERF_BWTREE_PAGE_CODEC_H_

#include <memory>
#include <string>

#include "bwtree/node.h"
#include "common/slice.h"
#include "common/status.h"

namespace costperf::bwtree {

// Serialization of leaf pages for the log-structured store (paper Fig. 5:
// variable-size pages). A page is one full leaf image on flash, and that
// image is also the in-memory form of a leaf (see LeafBase): flushes
// append LeafBase::image() as it is.
class PageCodec {
 public:
  static constexpr uint8_t kFullLeaf = 0;

  // Makes `image`, a full leaf image, the storage of `leaf` and indexes
  // its records in place. Every length is checked against the image
  // before `leaf` changes; on Corruption neither `leaf` nor `image` is
  // touched. The only way a leaf is filled.
  static Status DecodeLeaf(std::string&& image, LeafBase* leaf);

  // Peeks at the image kind without a full parse: Corruption for any
  // kind but kFullLeaf.
  static Status PeekKind(const Slice& image, uint8_t* kind);
};

// Writes a full leaf image record by record and indexes it into a new
// LeafBase: how every leaf that is not a plain page load gets its
// records. The image layout is
//   kind | varint count | varint len, high key | fixed64 sibling |
//   (varint len, key | varint len, value) * count
// Records go in the order added; the tree adds them in ascending key
// order (analysis::BwTreeValidator checks it).
class LeafBuilder {
 public:
  LeafBuilder(const Slice& high_key, PageId right_sibling);

  void Add(const Slice& key, const Slice& value);
  // Appends records [begin, end) of `leaf` with one copy of their bytes.
  void AddRange(const LeafBase& leaf, size_t begin, size_t end);

  // Seals the image and hands it to PageCodec::DecodeLeaf. The builder is
  // spent afterwards.
  std::unique_ptr<LeafBase> Finish();

 private:
  std::string image_;
  uint64_t count_ = 0;
};

}  // namespace costperf::bwtree

#endif  // COSTPERF_BWTREE_PAGE_CODEC_H_
