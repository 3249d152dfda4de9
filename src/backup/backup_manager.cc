#include "backup/backup_manager.h"

#include <algorithm>

#include "wal/log_record.h"

namespace loglog {

Lsn BackupImage::ScanStart() const {
  Lsn min_vsi = kMaxLsn;
  for (const auto& [id, entry] : entries) {
    min_vsi = std::min(min_vsi, entry.vsi);
  }
  return min_vsi == kMaxLsn ? 1 : min_vsi + 1;
}

uint64_t BackupImage::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [id, entry] : entries) total += entry.value.size();
  return total;
}

BackupManager::BackupManager(SimulatedDisk* disk, bool repair_order)
    : disk_(disk), repair_order_(repair_order) {}

Status BackupManager::Begin() {
  image_ = BackupImage();
  stats_ = BackupStats();
  plan_.clear();
  cursor_ = 0;
  disk_->store().ForEach([this](ObjectId id, const StoredObject&) {
    plan_.push_back(id);
  });
  std::sort(plan_.begin(), plan_.end());
  return RefreshLogIndex();
}

Status BackupManager::RefreshLogIndex() {
  Slice archive = disk_->log().ArchiveContents();
  if (archive.size() < indexed_archive_bytes_) {
    readers_.clear();
    indexed_archive_bytes_ = 0;
  }
  if (archive.size() == indexed_archive_bytes_) return Status::OK();
  Slice fresh(archive.data() + indexed_archive_bytes_,
              archive.size() - indexed_archive_bytes_);
  while (true) {
    LogRecord rec;
    Status st = ReadFramedRecord(&fresh, &rec);
    if (st.IsNotFound()) break;
    // A torn tail cannot appear mid-archive during normal operation; be
    // tolerant anyway and stop indexing at the first undecodable point.
    if (st.IsCorruption()) break;
    LOGLOG_RETURN_IF_ERROR(st);
    if (rec.type == RecordType::kOperation && !rec.op.reads.empty()) {
      for (ObjectId r : rec.op.reads) {
        readers_[r].push_back(ReaderOp{rec.lsn, rec.op.writes});
      }
    }
  }
  const uint64_t end = archive.size() - fresh.size();
  stats_.log_bytes_indexed += end - indexed_archive_bytes_;
  indexed_archive_bytes_ = end;
  return Status::OK();
}

Status BackupManager::CopyObject(ObjectId id, bool is_repair) {
  StoredObject stored;
  Status st = disk_->store().Read(id, &stored);
  if (st.IsNotFound()) {
    // Deleted meanwhile: it must not linger in the image either.
    image_.entries.erase(id);
    return Status::OK();
  }
  LOGLOG_RETURN_IF_ERROR(st);
  BackupEntry& entry = image_.entries[id];
  entry.value = stored.value;
  entry.vsi = stored.vsi;
  if (is_repair) {
    ++stats_.repair_recopies;
    stats_.repair_bytes += stored.value.size();
  } else {
    ++stats_.objects_copied;
    stats_.bytes_copied += stored.value.size();
  }
  if (repair_order_) {
    LOGLOG_RETURN_IF_ERROR(RepairAfterCopy(id, stored.vsi));
  }
  return Status::OK();
}

Status BackupManager::RepairAfterCopy(ObjectId x, Lsn v) {
  LOGLOG_RETURN_IF_ERROR(RefreshLogIndex());
  auto it = readers_.find(x);
  if (it == readers_.end()) return Status::OK();
  // Work list: outputs that must be re-copied (re-copies can cascade —
  // the re-copied output is itself a newer input for earlier readers).
  std::vector<ObjectId> recopy;
  for (const ReaderOp& reader : it->second) {
    if (reader.lsn >= v) continue;  // read this value or newer: fine
    for (ObjectId out : reader.writes) {
      auto img = image_.entries.find(out);
      if (img != image_.entries.end() && img->second.vsi < reader.lsn) {
        recopy.push_back(out);
      }
    }
  }
  for (ObjectId out : recopy) {
    LOGLOG_RETURN_IF_ERROR(CopyObject(out, /*is_repair=*/true));
  }
  return Status::OK();
}

Status BackupManager::Step(size_t n) {
  LOGLOG_RETURN_IF_ERROR(RefreshLogIndex());
  for (size_t i = 0; i < n && cursor_ < plan_.size(); ++i, ++cursor_) {
    LOGLOG_RETURN_IF_ERROR(CopyObject(plan_[cursor_], /*is_repair=*/false));
  }
  return Status::OK();
}

}  // namespace loglog
