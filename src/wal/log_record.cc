#include "wal/log_record.h"

#include <algorithm>

#include "adapt/log_choice.h"
#include "common/coding.h"
#include "common/crc32.h"

namespace loglog {

namespace {

void PutInstallEntries(std::vector<uint8_t>* dst,
                       const std::vector<InstallEntry>& entries) {
  PutVarint64(dst, entries.size());
  for (const InstallEntry& e : entries) {
    PutVarint64(dst, e.id);
    PutVarint64(dst, e.rsi);
  }
}

Status GetInstallEntries(Slice* src, std::vector<InstallEntry>* out) {
  uint64_t n;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
  // Two varints per entry: at least two bytes each (count bound guards
  // reserve() against garbage input).
  if (n > src->size()) return Status::Corruption("install count too large");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    InstallEntry e;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.id));
    LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.rsi));
    out->push_back(e);
  }
  return Status::OK();
}

void PutUndoImages(std::vector<uint8_t>* dst,
                   const std::vector<UndoImage>& images) {
  PutVarint64(dst, images.size());
  for (const UndoImage& img : images) {
    dst->push_back(img.exists ? 1 : 0);
    PutLengthPrefixed(dst, Slice(img.value));
  }
}

Status GetUndoImages(Slice* src, std::vector<UndoImage>* out) {
  uint64_t n;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
  // At least two bytes per image (exists flag + length varint).
  if (n > src->size()) return Status::Corruption("undo image count too large");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    UndoImage img;
    if (src->empty()) return Status::Corruption("truncated undo image");
    img.exists = (*src)[0] != 0;
    src->RemovePrefix(1);
    Slice value;
    LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(src, &value));
    img.value = value.ToBytes();
    out->push_back(std::move(img));
  }
  return Status::OK();
}

}  // namespace

void LogRecord::EncodeTo(std::vector<uint8_t>* dst) const {
  dst->push_back(static_cast<uint8_t>(type));
  PutVarint64(dst, lsn);
  switch (type) {
    case RecordType::kOperation:
      op.EncodeTo(dst);
      // The transactional trailer exists only inside a transaction, so
      // non-transactional operation records stay byte-identical to the
      // pre-transaction format (old logs decode unchanged).
      if (txn_id != 0) {
        PutVarint64(dst, txn_id);
        PutVarint64(dst, prev_lsn);
        PutUndoImages(dst, undo_images);
      }
      break;
    case RecordType::kTxnBegin:
    case RecordType::kTxnCommit:
    case RecordType::kTxnAbort:
      PutVarint64(dst, txn_id);
      PutVarint64(dst, prev_lsn);
      break;
    case RecordType::kCompensation:
      PutVarint64(dst, txn_id);
      PutVarint64(dst, prev_lsn);
      PutVarint64(dst, undo_next_lsn);
      PutVarint64(dst, undo_skip);
      op.EncodeTo(dst);
      break;
    case RecordType::kCheckpoint:
      PutVarint64(dst, dot.size());
      for (const DotEntry& e : dot) {
        PutVarint64(dst, e.id);
        PutVarint64(dst, e.rsi);
        dst->push_back(e.dead ? 1 : 0);
      }
      // Txn-id high-water mark (master-record style): truncation discards
      // the txn records that analysis would otherwise derive it from, so
      // the checkpoint must carry it or a post-truncation crash would
      // re-issue ids of completed transactions. Trailing and omitted when
      // zero, so pre-transaction checkpoints stay byte-identical.
      if (txn_id != 0) PutVarint64(dst, txn_id);
      break;
    case RecordType::kInstall:
      PutInstallEntries(dst, installed_vars);
      PutInstallEntries(dst, installed_notx);
      break;
    case RecordType::kFlushTxnBegin:
      PutVarint64(dst, flush_values.size());
      for (const FlushValue& fv : flush_values) {
        PutVarint64(dst, fv.id);
        PutVarint64(dst, fv.vsi);
        dst->push_back(fv.erase ? 1 : 0);
        PutLengthPrefixed(dst, Slice(fv.value));
      }
      break;
    case RecordType::kFlushTxnCommit:
      PutVarint64(dst, ref_lsn);
      break;
    case RecordType::kPolicyDecision:
      PutVarint64(dst, policy.object);
      dst->push_back(policy.new_class);
      dst->push_back(policy.prev_class);
      dst->push_back(policy.reason);
      PutVarint64(dst, policy.chain_depth);
      PutVarint64(dst, policy.ewma_size);
      break;
    case RecordType::kIndexCheckpoint:
      PutVarint64(dst, index_entries.size());
      for (const IndexCheckpointEntry& e : index_entries) {
        PutVarint64(dst, e.id);
        PutVarint64(dst, e.lsn);
        PutVarint64(dst, e.offset);
        PutVarint64(dst, e.size);
      }
      // A delta's base LSN, trailing and omitted on a base (as the
      // checkpoint's txn watermark), so logs from before deltas existed
      // decode as bases.
      if (ref_lsn != kInvalidLsn) PutVarint64(dst, ref_lsn);
      break;
  }
}

Status LogRecord::DecodeFrom(Slice* src, LogRecord* out) {
  if (src->empty()) return Status::Corruption("empty record");
  uint8_t type_byte = (*src)[0];
  src->RemovePrefix(1);
  if (type_byte < 1 ||
      type_byte > static_cast<uint8_t>(RecordType::kIndexCheckpoint)) {
    return Status::Corruption("bad record type");
  }
  out->type = static_cast<RecordType>(type_byte);
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->lsn));
  switch (out->type) {
    case RecordType::kOperation:
      LOGLOG_RETURN_IF_ERROR(OperationDesc::DecodeFrom(src, &out->op));
      // Remaining bytes are the transactional trailer (framing hands the
      // decoder exactly one payload, so presence is unambiguous). Without
      // one the record is non-transactional: clear what a reused `out`
      // may still hold from an earlier transactional record.
      out->txn_id = 0;
      out->prev_lsn = kInvalidLsn;
      out->undo_images.clear();
      if (!src->empty()) {
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
        if (out->txn_id == 0) {
          return Status::Corruption("txn trailer with zero txn id");
        }
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->prev_lsn));
        LOGLOG_RETURN_IF_ERROR(GetUndoImages(src, &out->undo_images));
        if (!out->undo_images.empty() &&
            out->undo_images.size() != out->op.writes.size()) {
          return Status::Corruption("undo image count != write count");
        }
      }
      break;
    case RecordType::kTxnBegin:
    case RecordType::kTxnCommit:
    case RecordType::kTxnAbort:
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
      if (out->txn_id == 0) return Status::Corruption("zero txn id");
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->prev_lsn));
      break;
    case RecordType::kCompensation:
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
      if (out->txn_id == 0) return Status::Corruption("zero txn id");
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->prev_lsn));
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->undo_next_lsn));
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->undo_skip));
      LOGLOG_RETURN_IF_ERROR(OperationDesc::DecodeFrom(src, &out->op));
      break;
    case RecordType::kCheckpoint: {
      uint64_t n;
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
      if (n > src->size()) return Status::Corruption("dot count too large");
      out->dot.clear();
      out->dot.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        DotEntry e;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.id));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.rsi));
        if (src->empty()) return Status::Corruption("truncated dot entry");
        e.dead = (*src)[0] != 0;
        src->RemovePrefix(1);
        out->dot.push_back(e);
      }
      // Optional trailing txn-id high-water mark (absent on logs written
      // before transactions existed).
      out->txn_id = 0;
      if (!src->empty()) {
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
        if (out->txn_id == 0) {
          return Status::Corruption("zero checkpoint txn watermark");
        }
      }
      break;
    }
    case RecordType::kInstall:
      LOGLOG_RETURN_IF_ERROR(GetInstallEntries(src, &out->installed_vars));
      LOGLOG_RETURN_IF_ERROR(GetInstallEntries(src, &out->installed_notx));
      break;
    case RecordType::kFlushTxnBegin: {
      uint64_t n;
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
      if (n > src->size()) {
        return Status::Corruption("flush value count too large");
      }
      out->flush_values.clear();
      out->flush_values.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        FlushValue fv;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &fv.id));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &fv.vsi));
        if (src->empty()) return Status::Corruption("truncated flush value");
        fv.erase = (*src)[0] != 0;
        src->RemovePrefix(1);
        Slice value;
        LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(src, &value));
        fv.value = value.ToBytes();
        out->flush_values.push_back(std::move(fv));
      }
      break;
    }
    case RecordType::kFlushTxnCommit:
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->ref_lsn));
      break;
    case RecordType::kPolicyDecision: {
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->policy.object));
      if (src->size() < 3) {
        return Status::Corruption("truncated policy decision");
      }
      out->policy.new_class = (*src)[0];
      out->policy.prev_class = (*src)[1];
      out->policy.reason = (*src)[2];
      src->RemovePrefix(3);
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->policy.chain_depth));
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->policy.ewma_size));
      break;
    }
    case RecordType::kIndexCheckpoint: {
      uint64_t n;
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
      // Four varints per entry: at least four bytes each (count bound
      // guards reserve() against garbage input).
      if (n > src->size()) {
        return Status::Corruption("index entry count too large");
      }
      out->index_entries.clear();
      out->index_entries.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        IndexCheckpointEntry e;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.id));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.lsn));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.offset));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.size));
        out->index_entries.push_back(e);
      }
      out->ref_lsn = kInvalidLsn;
      if (!src->empty()) {
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->ref_lsn));
        if (out->ref_lsn == kInvalidLsn || out->ref_lsn >= out->lsn) {
          return Status::Corruption("index delta names a bad base lsn");
        }
      } else {
        for (const IndexCheckpointEntry& e : out->index_entries) {
          if (e.erased()) {
            return Status::Corruption("erased entry in an index base");
          }
        }
      }
      break;
    }
  }
  return Status::OK();
}

size_t LogRecord::EncodedSize() const {
  std::vector<uint8_t> buf;
  EncodeTo(&buf);
  return buf.size();
}

namespace {

size_t UndoImagesSize(const std::vector<UndoImage>& images) {
  size_t size = VarintLength(images.size());
  for (const UndoImage& img : images) {
    size += 1 + VarintLength(img.value.size()) + img.value.size();
  }
  return size;
}

uint8_t* EncodeUndoImages(uint8_t* dst, const std::vector<UndoImage>& images) {
  dst = EncodeVarint64(dst, images.size());
  for (const UndoImage& img : images) {
    *dst++ = img.exists ? 1 : 0;
    dst = EncodeLengthPrefixed(dst, Slice(img.value));
  }
  return dst;
}

}  // namespace

size_t EncodedOperationBodySize(const OperationDesc& op, uint64_t txn_id,
                                Lsn prev_lsn,
                                const std::vector<UndoImage>& undo_images) {
  size_t size = op.EncodedSize();
  if (txn_id != 0) {
    size += VarintLength(txn_id) + VarintLength(prev_lsn) +
            UndoImagesSize(undo_images);
  }
  return size;
}

uint8_t* EncodeOperationBody(uint8_t* dst, const OperationDesc& op,
                             uint64_t txn_id, Lsn prev_lsn,
                             const std::vector<UndoImage>& undo_images) {
  dst = op.EncodeToBuf(dst);
  if (txn_id != 0) {
    dst = EncodeVarint64(dst, txn_id);
    dst = EncodeVarint64(dst, prev_lsn);
    dst = EncodeUndoImages(dst, undo_images);
  }
  return dst;
}

size_t EncodedTxnMarkerBodySize(uint64_t txn_id, Lsn prev_lsn) {
  return VarintLength(txn_id) + VarintLength(prev_lsn);
}

uint8_t* EncodeTxnMarkerBody(uint8_t* dst, uint64_t txn_id, Lsn prev_lsn) {
  dst = EncodeVarint64(dst, txn_id);
  return EncodeVarint64(dst, prev_lsn);
}

size_t EncodedCompensationBodySize(const OperationDesc& op, uint64_t txn_id,
                                   Lsn prev_lsn, Lsn undo_next_lsn,
                                   uint64_t undo_skip) {
  return VarintLength(txn_id) + VarintLength(prev_lsn) +
         VarintLength(undo_next_lsn) + VarintLength(undo_skip) +
         op.EncodedSize();
}

uint8_t* EncodeCompensationBody(uint8_t* dst, const OperationDesc& op,
                                uint64_t txn_id, Lsn prev_lsn,
                                Lsn undo_next_lsn, uint64_t undo_skip) {
  dst = EncodeVarint64(dst, txn_id);
  dst = EncodeVarint64(dst, prev_lsn);
  dst = EncodeVarint64(dst, undo_next_lsn);
  dst = EncodeVarint64(dst, undo_skip);
  return op.EncodeToBuf(dst);
}

std::string LogRecord::DebugString() const {
  std::string out = "Rec{lsn=" + std::to_string(lsn) + " type=";
  switch (type) {
    case RecordType::kOperation:
      out += "op " + op.DebugString();
      if (txn_id != 0) {
        out += " txn=" + std::to_string(txn_id) +
               " prev=" + std::to_string(prev_lsn) +
               " images=" + std::to_string(undo_images.size());
      }
      break;
    case RecordType::kTxnBegin:
      out += "txn-begin txn=" + std::to_string(txn_id);
      break;
    case RecordType::kTxnCommit:
      out += "txn-commit txn=" + std::to_string(txn_id) +
             " prev=" + std::to_string(prev_lsn);
      break;
    case RecordType::kTxnAbort:
      out += "txn-abort txn=" + std::to_string(txn_id) +
             " prev=" + std::to_string(prev_lsn);
      break;
    case RecordType::kCompensation:
      out += "clr " + op.DebugString() + " txn=" + std::to_string(txn_id) +
             " prev=" + std::to_string(prev_lsn) +
             " undo-next=" + std::to_string(undo_next_lsn) +
             " skip=" + std::to_string(undo_skip);
      break;
    case RecordType::kCheckpoint:
      out += "checkpoint dot=" + std::to_string(dot.size());
      if (txn_id != 0) out += " txn-max=" + std::to_string(txn_id);
      break;
    case RecordType::kInstall:
      out += "install vars=" + std::to_string(installed_vars.size()) +
             " notx=" + std::to_string(installed_notx.size());
      break;
    case RecordType::kFlushTxnBegin:
      out += "ftxn-begin n=" + std::to_string(flush_values.size());
      break;
    case RecordType::kFlushTxnCommit:
      out += "ftxn-commit ref=" + std::to_string(ref_lsn);
      break;
    case RecordType::kPolicyDecision:
      out += "policy obj=" + std::to_string(policy.object) + " class=" +
             LogChoiceName(static_cast<LogChoice>(policy.new_class)) +
             "<-" +
             LogChoiceName(static_cast<LogChoice>(policy.prev_class)) +
             " reason=" +
             PolicyReasonName(static_cast<PolicyReason>(policy.reason)) +
             " depth=" + std::to_string(policy.chain_depth) +
             " ewma=" + std::to_string(policy.ewma_size);
      break;
    case RecordType::kIndexCheckpoint: {
      if (ref_lsn == kInvalidLsn) {
        out += "index-checkpoint base n=" +
               std::to_string(index_entries.size());
        break;
      }
      const size_t erased = static_cast<size_t>(std::ranges::count_if(
          index_entries, &IndexCheckpointEntry::erased));
      out += "index-checkpoint delta n=" +
             std::to_string(index_entries.size() - erased) +
             " erased=" + std::to_string(erased) +
             " base=" + std::to_string(ref_lsn);
      break;
    }
  }
  out += "}";
  return out;
}

void FrameRecord(const LogRecord& rec, std::vector<uint8_t>* dst) {
  std::vector<uint8_t> payload;
  rec.EncodeTo(&payload);
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, Crc32c(Slice(payload)));
  dst->insert(dst->end(), payload.begin(), payload.end());
}

Status ReadFramedRecord(Slice* src, LogRecord* out) {
  if (src->empty()) return Status::NotFound("end of log");
  Slice probe = *src;
  uint32_t len, crc;
  if (!GetFixed32(&probe, &len).ok() || !GetFixed32(&probe, &crc).ok() ||
      probe.size() < len) {
    return Status::Corruption("torn record header");
  }
  Slice payload(probe.data(), len);
  if (Crc32c(payload) != crc) {
    return Status::Corruption("record checksum mismatch");
  }
  Slice cursor = payload;
  LOGLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(&cursor, out));
  if (!cursor.empty()) {
    return Status::Corruption("trailing bytes in record payload");
  }
  src->RemovePrefix(8 + len);
  return Status::OK();
}

}  // namespace loglog
