#include "common/coding.h"

namespace costperf {

void PutVarint32(std::string* dst, uint32_t v) { PutVarint64(dst, v); }

void PutVarint64(std::string* dst, uint64_t v) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, v));
}

const char* GetVarint64(const char* p, const char* limit, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p);
    ++p;
    if (byte & 128) {
      result |= (byte & 127) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;
}

const char* GetVarint32(const char* p, const char* limit, uint32_t* value) {
  uint64_t v64;
  const char* q = GetVarint64(p, limit, &v64);
  if (q == nullptr || v64 > UINT32_MAX) return nullptr;
  *value = static_cast<uint32_t>(v64);
  return q;
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

const char* GetLengthPrefixedSlice(const char* p, const char* limit,
                                   Slice* result) {
  uint64_t len;
  p = GetVarint64(p, limit, &len);
  if (p == nullptr || static_cast<uint64_t>(limit - p) < len) return nullptr;
  *result = Slice(p, len);
  return p + len;
}

}  // namespace costperf
