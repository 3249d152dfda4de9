#ifndef LOGLOG_COMMON_CODING_H_
#define LOGLOG_COMMON_CODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace loglog {

/// Little-endian fixed-width and varint encoders/decoders used by the log
/// record and page formats. Decoders consume from a Slice and fail with
/// Status::Corruption on truncated input, which is how torn log tails are
/// detected during recovery.

void PutFixed32(std::vector<uint8_t>* dst, uint32_t v);
void PutFixed64(std::vector<uint8_t>* dst, uint64_t v);
void PutVarint32(std::vector<uint8_t>* dst, uint32_t v);
void PutVarint64(std::vector<uint8_t>* dst, uint64_t v);
/// Length-prefixed byte string (varint length + raw bytes).
void PutLengthPrefixed(std::vector<uint8_t>* dst, Slice value);

Status GetFixed32(Slice* src, uint32_t* v);
Status GetFixed64(Slice* src, uint64_t* v);
Status GetVarint32(Slice* src, uint32_t* v);
Status GetVarint64(Slice* src, uint64_t* v);
/// Returns a view into `src`'s buffer; valid while the buffer lives.
Status GetLengthPrefixed(Slice* src, Slice* value);

/// Number of bytes PutVarint64 would emit for v.
size_t VarintLength(uint64_t v);

/// Encodes v into buf (must have >= 4/8 bytes); for in-place page fields.
void EncodeFixed32(uint8_t* buf, uint32_t v);
void EncodeFixed64(uint8_t* buf, uint64_t v);

/// Raw-buffer varint / length-prefixed encoders for the zero-copy WAL
/// append path: the caller reserves an exactly-sized span (via
/// VarintLength et al.) and these fill it, returning the advanced cursor.
uint8_t* EncodeVarint64(uint8_t* dst, uint64_t v);
uint8_t* EncodeLengthPrefixed(uint8_t* dst, Slice value);
uint32_t DecodeFixed32(const uint8_t* buf);
uint64_t DecodeFixed64(const uint8_t* buf);

/// Raw-buffer varint decoder, the one GetVarint64 and the in-place B-tree
/// page code share: decodes the varint at p (never reading at or past
/// `limit`) into *v and returns the advanced cursor, or nullptr when it
/// is truncated or longer than ten bytes (*v untouched).
inline const uint8_t* DecodeVarint64(const uint8_t* p, const uint8_t* limit,
                                     uint64_t* v) {
  if (p < limit && *p < 0x80) {
    *v = *p;
    return p + 1;
  }
  uint64_t result = 0;
  if (limit - p >= 10) {
    // All ten bytes a varint may take are in bounds: no per-byte check.
    for (uint32_t shift = 0; shift <= 63; shift += 7) {
      const uint64_t byte = *p++;
      result |= (byte & 0x7f) << shift;
      if (byte < 0x80) {
        *v = result;
        return p;
      }
    }
    return nullptr;
  }
  for (uint32_t shift = 0; shift <= 63 && p < limit; shift += 7) {
    const uint64_t byte = *p++;
    result |= (byte & 0x7f) << shift;
    if (byte < 0x80) {
      *v = result;
      return p;
    }
  }
  return nullptr;
}

}  // namespace loglog

#endif  // LOGLOG_COMMON_CODING_H_
