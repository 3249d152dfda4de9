#ifndef LOGLOG_BACKUP_BACKUP_MANAGER_H_
#define LOGLOG_BACKUP_BACKUP_MANAGER_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/simulated_disk.h"

namespace loglog {

/// One object captured in a backup image: its value and the vSI it
/// carried in the stable store at copy time.
struct BackupEntry {
  ObjectValue value;
  Lsn vsi = kInvalidLsn;
};

/// \brief A (possibly fuzzy) backup image of the stable database.
struct BackupImage {
  std::map<ObjectId, BackupEntry> entries;

  /// Media-recovery scan start: every operation whose lSI is below the
  /// minimum backed-up vSI is installed in the image.
  Lsn ScanStart() const;
  uint64_t TotalBytes() const;
};

/// Counters for the backup experiments (E10).
struct BackupStats {
  uint64_t objects_copied = 0;
  uint64_t bytes_copied = 0;
  /// Objects re-copied by the order-repair rule.
  uint64_t repair_recopies = 0;
  uint64_t repair_bytes = 0;
  /// Log archive bytes this backup decoded into the reader index.
  uint64_t log_bytes_indexed = 0;
};

/// \brief Fuzzy online backup that stays recoverable under logical log
/// operations.
///
/// Section 1 of the paper: "Copying the database to the backup can
/// introduce flush order violations for the backup even when cache
/// management honors flush order for the stable database" (the fix is
/// the subject of the companion paper [10], which we reconstruct here).
///
/// The hazard: a logical operation O reads X and writes Y. The main
/// database installs O (flushing Y) and may then flush a *newer* X. A
/// fuzzy backup that copied Y before O installed but copies X after the
/// newer flush holds {old Y, new X}: replaying O against the image is
/// impossible — its input is from the future.
///
/// Repair rule (enforced when `repair_order` is on): after copying X
/// with stable vSI v, every logged operation O with lSI < v that read X
/// must be installed *in the image*: if some output of O sits in the
/// image with vSI < O's lSI, that output is re-copied from the current
/// stable store. Main-database flush order guarantees the stable output
/// is new enough (O installed before the newer X was flushed), so the
/// re-copy closes the inversion; vSIs only grow, so the repair
/// terminates. The result: media recovery never meets a
/// newer-than-needed input, i.e. the image is explainable.
///
/// Drive it incrementally: Begin(), then Step(n) interleaved with normal
/// execution until done(). One manager can take successive backups of
/// its disk: each Begin() starts a new image, and the reader index of the
/// archive is kept, so a backup decodes only the log appended since the
/// previous one.
class BackupManager {
 public:
  /// `disk` is the live database's disk. With repair_order == false the
  /// backup is the naive fuzzy copy (used as the failing baseline).
  BackupManager(SimulatedDisk* disk, bool repair_order);

  /// Starts a new image and snapshots the object list to copy. Objects
  /// created after Begin are not part of this image (their operations
  /// replay from the log).
  Status Begin();

  /// Copies up to `n` not-yet-copied objects from the stable store.
  Status Step(size_t n);

  bool done() const { return cursor_ >= plan_.size(); }

  const BackupImage& image() const { return image_; }
  const BackupStats& stats() const { return stats_; }

 private:
  /// Applies the repair rule after copying `x` at stable vSI `v`.
  Status RepairAfterCopy(ObjectId x, Lsn v);
  /// Extends the reader index with any log records not yet indexed; an
  /// archive shorter than what was indexed is re-indexed from its start.
  Status RefreshLogIndex();
  Status CopyObject(ObjectId id, bool is_repair);

  struct ReaderOp {
    Lsn lsn = kInvalidLsn;
    std::vector<ObjectId> writes;
  };

  SimulatedDisk* disk_;
  bool repair_order_;
  std::vector<ObjectId> plan_;
  size_t cursor_ = 0;
  BackupImage image_;
  BackupStats stats_;
  /// Per object: logged operations that read it (from the log archive).
  std::unordered_map<ObjectId, std::vector<ReaderOp>> readers_;
  uint64_t indexed_archive_bytes_ = 0;
};

}  // namespace loglog

#endif  // LOGLOG_BACKUP_BACKUP_MANAGER_H_
