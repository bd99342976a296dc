#ifndef COSTPERF_COMMON_CODING_H_
#define COSTPERF_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace costperf {

// Little-endian fixed and varint encoders for page/log serialization.

inline void PutFixed32(std::string* dst, uint32_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutFixed64(std::string* dst, uint64_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
// Raw-buffer variants for callers that pre-reserved space (e.g. the log
// store's group-append path encodes into a reserved buffer slice without
// growing the string).
inline void EncodeFixed32(char* dst, uint32_t v) {
  memcpy(dst, &v, sizeof(v));
}
inline void EncodeFixed64(char* dst, uint64_t v) {
  memcpy(dst, &v, sizeof(v));
}
inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}
inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

// Varint32/64 in the protobuf wire format.
// Writes v at dst, which has room for 10 bytes; returns the bytes written.
inline size_t EncodeVarint64(char* dst, uint64_t v) {
  size_t i = 0;
  while (v >= 128) {
    dst[i++] = static_cast<char>(v | 128);
    v >>= 7;
  }
  dst[i++] = static_cast<char>(v);
  return i;
}
void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

// Parses a varint from [p, limit); returns the position after it, or
// nullptr on malformed/truncated input.
const char* GetVarint32(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64(const char* p, const char* limit, uint64_t* value);

// Length-prefixed slice.
void PutLengthPrefixedSlice(std::string* dst, const Slice& s);
const char* GetLengthPrefixedSlice(const char* p, const char* limit,
                                   Slice* result);

inline int VarintLength(uint64_t v) {
  int len = 1;
  while (v >= 128) {
    v >>= 7;
    ++len;
  }
  return len;
}

}  // namespace costperf

#endif  // COSTPERF_COMMON_CODING_H_
