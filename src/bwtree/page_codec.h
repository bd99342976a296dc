#ifndef COSTPERF_BWTREE_PAGE_CODEC_H_
#define COSTPERF_BWTREE_PAGE_CODEC_H_

#include <memory>
#include <string>
#include <vector>

#include "bwtree/node.h"
#include "common/slice.h"
#include "common/status.h"

namespace costperf::bwtree {

// One logical record operation inside a serialized delta page.
struct DeltaOp {
  enum Kind : uint8_t { kInsert = 0, kDelete = 1 };
  Kind kind = kInsert;
  std::string key;
  std::string value;  // empty for deletes
  uint64_t timestamp = 0;
};

// Serialization of leaf pages for the log-structured store (paper Fig. 5:
// variable-size pages; delta pages carry only the updates since the base
// was last written, with a back-pointer to the previous image).
class PageCodec {
 public:
  static constexpr uint8_t kFullLeaf = 0;
  static constexpr uint8_t kDeltaPage = 1;

  // Full consolidated leaf image.
  static void EncodeLeaf(const LeafBase& leaf, std::string* out);
  static Status DecodeLeaf(const Slice& image, LeafBase* leaf);

  // Incremental delta page: ops since `prev` was written.
  static void EncodeDeltaPage(FlashAddress prev,
                              const std::vector<DeltaOp>& ops,
                              std::string* out);
  static Status DecodeDeltaPage(const Slice& image, FlashAddress* prev,
                                std::vector<DeltaOp>* ops);

  // Peeks at the image kind without a full parse.
  static Status PeekKind(const Slice& image, uint8_t* kind);
};

}  // namespace costperf::bwtree

#endif  // COSTPERF_BWTREE_PAGE_CODEC_H_
