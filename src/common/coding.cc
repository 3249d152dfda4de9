#include "common/coding.h"

#include <cstring>

namespace loglog {

void EncodeFixed32(uint8_t* buf, uint32_t v) {
  buf[0] = static_cast<uint8_t>(v);
  buf[1] = static_cast<uint8_t>(v >> 8);
  buf[2] = static_cast<uint8_t>(v >> 16);
  buf[3] = static_cast<uint8_t>(v >> 24);
}

void EncodeFixed64(uint8_t* buf, uint64_t v) {
  EncodeFixed32(buf, static_cast<uint32_t>(v));
  EncodeFixed32(buf + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t DecodeFixed32(const uint8_t* buf) {
  return static_cast<uint32_t>(buf[0]) | (static_cast<uint32_t>(buf[1]) << 8) |
         (static_cast<uint32_t>(buf[2]) << 16) |
         (static_cast<uint32_t>(buf[3]) << 24);
}

uint64_t DecodeFixed64(const uint8_t* buf) {
  return static_cast<uint64_t>(DecodeFixed32(buf)) |
         (static_cast<uint64_t>(DecodeFixed32(buf + 4)) << 32);
}

void PutFixed32(std::vector<uint8_t>* dst, uint32_t v) {
  uint8_t buf[4];
  EncodeFixed32(buf, v);
  dst->insert(dst->end(), buf, buf + 4);
}

void PutFixed64(std::vector<uint8_t>* dst, uint64_t v) {
  uint8_t buf[8];
  EncodeFixed64(buf, v);
  dst->insert(dst->end(), buf, buf + 8);
}

void PutVarint64(std::vector<uint8_t>* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

void PutVarint32(std::vector<uint8_t>* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutLengthPrefixed(std::vector<uint8_t>* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->insert(dst->end(), value.data(), value.data() + value.size());
}

Status GetFixed32(Slice* src, uint32_t* v) {
  if (src->size() < 4) return Status::Corruption("truncated fixed32");
  *v = DecodeFixed32(src->data());
  src->RemovePrefix(4);
  return Status::OK();
}

Status GetFixed64(Slice* src, uint64_t* v) {
  if (src->size() < 8) return Status::Corruption("truncated fixed64");
  *v = DecodeFixed64(src->data());
  src->RemovePrefix(8);
  return Status::OK();
}

Status GetVarint64(Slice* src, uint64_t* v) {
  const uint8_t* end =
      DecodeVarint64(src->data(), src->data() + src->size(), v);
  if (end == nullptr) {
    return Status::Corruption("truncated or overlong varint64");
  }
  src->RemovePrefix(static_cast<size_t>(end - src->data()));
  return Status::OK();
}

Status GetVarint32(Slice* src, uint32_t* v) {
  uint64_t wide = 0;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &wide));
  if (wide > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *v = static_cast<uint32_t>(wide);
  return Status::OK();
}

Status GetLengthPrefixed(Slice* src, Slice* value) {
  uint64_t len = 0;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &len));
  if (src->size() < len) {
    return Status::Corruption("truncated length-prefixed value");
  }
  *value = Slice(src->data(), len);
  src->RemovePrefix(len);
  return Status::OK();
}

uint8_t* EncodeVarint64(uint8_t* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<uint8_t>(v);
  return dst;
}

uint8_t* EncodeLengthPrefixed(uint8_t* dst, Slice value) {
  dst = EncodeVarint64(dst, value.size());
  if (!value.empty()) std::memcpy(dst, value.data(), value.size());
  return dst + value.size();
}

size_t VarintLength(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

}  // namespace loglog
