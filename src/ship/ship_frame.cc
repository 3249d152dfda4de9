#include "ship/ship_frame.h"

#include <utility>

#include "common/coding.h"
#include "common/crc32.h"

namespace loglog {

namespace {

/// "SHIP", little-endian.
constexpr uint32_t kShipFrameMagic = 0x50494853;

/// Every framed record carries at least its length and CRC words.
constexpr size_t kMinFramedRecordBytes = 8;

}  // namespace

void EncodeShipFrame(const ShipBatch& batch, std::vector<uint8_t>* dst) {
  std::vector<uint8_t> payload;
  for (const LogRecord& rec : batch.records) {
    FrameRecord(rec, &payload);
  }
  PutFixed32(dst, kShipFrameMagic);
  PutFixed64(dst, batch.start_lsn);
  PutFixed64(dst, batch.end_lsn);
  PutFixed32(dst, static_cast<uint32_t>(batch.records.size()));
  PutFixed32(dst, Crc32c(Slice(payload)));
  PutLengthPrefixed(dst, Slice(payload));
}

Status DecodeShipFrame(Slice frame, ShipBatch* out) {
  *out = ShipBatch{};
  uint32_t magic = 0;
  uint32_t count = 0;
  uint32_t crc = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  LOGLOG_RETURN_IF_ERROR(GetFixed32(&frame, &magic));
  if (magic != kShipFrameMagic) {
    return Status::Corruption("ship frame: bad magic");
  }
  LOGLOG_RETURN_IF_ERROR(GetFixed64(&frame, &start));
  LOGLOG_RETURN_IF_ERROR(GetFixed64(&frame, &end));
  LOGLOG_RETURN_IF_ERROR(GetFixed32(&frame, &count));
  LOGLOG_RETURN_IF_ERROR(GetFixed32(&frame, &crc));
  Slice payload;
  LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(&frame, &payload));
  if (!frame.empty()) {
    return Status::Corruption("ship frame: trailing bytes");
  }
  if (Crc32c(payload) != crc) {
    return Status::Corruption("ship frame: payload checksum mismatch");
  }
  // The CRC covers the payload, not the header: bound the header's record
  // count by what the payload can hold before reserving for it.
  if (count > payload.size() / kMinFramedRecordBytes) {
    return Status::Corruption("ship frame: record count exceeds payload");
  }
  out->start_lsn = start;
  out->end_lsn = end;
  out->records.reserve(count);
  while (!payload.empty()) {
    LogRecord rec;
    Status st = ReadFramedRecord(&payload, &rec);
    if (st.IsNotFound()) break;
    LOGLOG_RETURN_IF_ERROR(st);
    out->records.push_back(std::move(rec));
  }
  if (out->records.size() != count) {
    return Status::Corruption("ship frame: record count mismatch");
  }
  if (count > 0 && (out->records.front().lsn != start ||
                    out->records.back().lsn != end)) {
    return Status::Corruption("ship frame: LSN range mismatch");
  }
  return Status::OK();
}

}  // namespace loglog
