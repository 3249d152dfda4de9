#include "logstore/logstore_target.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/retry.h"
#include "logstore/logstore.h"
#include "obs/metrics.h"

namespace loglog {

LogStoreTarget::LogStoreTarget(SimulatedDisk* disk, LogManager* log,
                               bool cold_retention_full)
    : disk_(disk),
      log_(log),
      cold_retention_full_(cold_retention_full),
      reads_log_(
          MetricsRegistry::Global().GetCounter(metric::kLogstoreReadsLog)) {}

Status LogStoreTarget::Load(ObjectId id, int io_budget, StoredObject* out) {
  IndexCheckpointEntry entry;
  if (!index_.Lookup(id, &entry)) {
    // The index maps every existing object: a miss IS nonexistence.
    return Status::NotFound("object not in log index");
  }
  std::vector<uint8_t> frame;
  LOGLOG_RETURN_IF_ERROR(RetryTransientIo(
      io_budget, &disk_->stats().io_retries, [&] {
        return disk_->log().ReadStable(entry.offset, entry.size, &frame);
      }));
  Slice cursor(frame);
  LogRecord rec;
  LOGLOG_RETURN_IF_ERROR(ReadFramedRecord(&cursor, &rec));
  if (rec.lsn != entry.lsn || !IsFullImageOp(rec.op) ||
      rec.op.op_class == OpClass::kDelete || rec.op.writes.size() != 1 ||
      rec.op.writes[0] != id) {
    return Status::Corruption("log index entry points at a non-image record");
  }
  reads_log_->Inc();
  out->value = std::move(rec.op.params);
  out->vsi = entry.lsn;
  return Status::OK();
}

Status LogStoreTarget::InstallSet(const std::vector<ObjectWrite>& writes,
                                  CacheStats*) {
  // The forced records ARE the stable images: publishing is installing.
  for (const ObjectWrite& w : writes) {
    LOGLOG_RETURN_IF_ERROR(Publish(w));
  }
  return Status::OK();
}

Status LogStoreTarget::Publish(const ObjectWrite& w) {
  if (w.erase) {
    index_.Erase(w.id);
    return Status::OK();
  }
  uint64_t off = 0;
  uint64_t sz = 0;
  if (!log_->StableExtentOf(w.vsi, &off, &sz)) {
    return Status::Corruption("published image has no stable extent");
  }
  index_.Publish(w.id, w.vsi, off, sz);
  return Status::OK();
}

Lsn LogStoreTarget::BeginCheckpoint() {
  // A delta costs what changed since the last index checkpoint. A base
  // is due first in a run, and then whenever the deltas since the last
  // one would carry more entries than a base: restart never applies
  // more than one base's worth of deltas.
  LogRecord idx;
  idx.type = RecordType::kIndexCheckpoint;
  const bool base = base_lsn_ == kInvalidLsn ||
                    delta_entries_ + index_.changed_count() > index_.size();
  if (base) {
    idx.index_entries = index_.Snapshot();
    index_.ForgetChanges();
  } else {
    idx.index_entries = index_.TakeDelta();
    idx.ref_lsn = base_lsn_;
    delta_entries_ += idx.index_entries.size();
  }
  MetricsRegistry::Global()
      .GetCounter(metric::kLogstoreIndexCheckpoints)
      ->Inc();
  Lsn lsn = log_->Append(std::move(idx));
  if (base) {
    base_lsn_ = lsn;
    delta_entries_ = 0;
  }
  // Recovery's rebuild starts from the base, so the checkpoint's
  // truncation must keep it (and with it every delta that extends it).
  return base_lsn_;
}

void LogStoreTarget::EndCheckpoint() {
  // The truncation ignored LogIndex::MinLsn: live images below it stay
  // readable in the cold tier. Archive GC (opt-in) releases cold segments
  // wholly below the oldest live image; compaction advances that bound.
  if (cold_retention_full_) return;
  uint64_t min_live = disk_->log().start_offset();
  if (const IndexCheckpointEntry* oldest = index_.OldestEntry()) {
    min_live = std::min(min_live, oldest->offset);  // offsets grow with LSN
  }
  disk_->log().ReclaimColdBelow(min_live);
}

LogScanFn LogStoreTarget::BeginLogScan() {
  // Start from the newest base kIndexCheckpoint and apply the deltas
  // that extend it, then apply only publishes a later kInstall record
  // evidences, pairing each installed object with its last full-image
  // record (the install path guarantees that is its last writer). The
  // redo tests assume the rebuilt index is an installed state, so an
  // unevidenced publish (a lost lazy install record) is not applied: it
  // only costs extra redo. The evidence alone cannot replace the deltas:
  // an image logged before the base but installed after it is cut away
  // with the truncated prefix, so no pairing would find it.
  struct Image {
    IndexCheckpointEntry entry;
    bool tombstone = false;
  };
  index_.Clear();
  // The next checkpoint (of the recovered run) writes a fresh base.
  base_lsn_ = kInvalidLsn;
  delta_entries_ = 0;
  return [this, images = std::unordered_map<ObjectId, Image>(),
          first_lsn = kInvalidLsn, base = kInvalidLsn](
             const LogRecord& rec, uint64_t offset,
             uint64_t size) mutable -> Status {
    if (first_lsn == kInvalidLsn) first_lsn = rec.lsn;
    if (rec.type == RecordType::kIndexCheckpoint) {
      if (rec.ref_lsn == kInvalidLsn) {
        index_.Reset(rec.index_entries);
        base = rec.lsn;
      } else if (rec.ref_lsn == base) {
        index_.ApplyDelta(rec.index_entries);
      } else if (base != kInvalidLsn || rec.ref_lsn >= first_lsn) {
        return Status::Corruption(
            "index delta at lsn " + std::to_string(rec.lsn) +
            " extends base " + std::to_string(rec.ref_lsn) +
            ", not the last base on the log");
      }
      // Otherwise the delta's base was truncated away, which only a
      // checkpoint that wrote a newer base does: that base follows on
      // the retained log and supersedes the delta.
    } else if ((rec.type == RecordType::kOperation ||
                rec.type == RecordType::kCompensation) &&
               IsFullImageOp(rec.op) && !rec.op.writes.empty()) {
      ObjectId id = rec.op.writes[0];
      images[id] = Image{IndexCheckpointEntry{id, rec.lsn, offset, size},
                         rec.op.op_class == OpClass::kDelete};
    } else if (rec.type == RecordType::kInstall) {
      for (const InstallEntry& ie : rec.installed_vars) {
        auto it = images.find(ie.id);
        if (it == images.end()) continue;
        const IndexCheckpointEntry& e = it->second.entry;
        if (it->second.tombstone) {
          index_.Erase(ie.id);
        } else {
          index_.Publish(ie.id, e.lsn, e.offset, e.size);
        }
      }
    }
    return Status::OK();
  };
}

}  // namespace loglog
