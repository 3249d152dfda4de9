#ifndef LOGLOG_RECOVERY_RECOVERY_DRIVER_H_
#define LOGLOG_RECOVERY_RECOVERY_DRIVER_H_

#include <string>

#include "cache/cache_manager.h"
#include "cache/policies.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"

namespace loglog {

struct BackupImage;
class AdaptiveLogPolicy;

/// A store write issued by recovery itself, verified by read-back through
/// the checksum and re-issued a bounded number of times on damage (shared
/// by the serial driver, media repair, and parallel-REDO workers —
/// `retry_counter` may be a worker-local counter merged later).
Status VerifiedStableWrite(StableStore* store, uint64_t* retry_counter,
                           ObjectId id, Slice value, Lsn vsi);

/// Re-executes one logged operation against the current state through the
/// normal cache path — the "expanded REDO" trial execution of Section 5.
/// An inapplicable replay (missing or newer-than-lSI read state, failing
/// transform) is voided (*voided = true, OK returned) without touching
/// exposed objects. Shared by the serial redo scan and the standby
/// applier's continuous-redo path; `value_bytes` accumulates the bytes of
/// recomputed write values.
Status RedoApplyOperation(CacheManager* cm, const OperationDesc& op,
                          Lsn lsn, bool* voided, uint64_t* value_bytes);

/// Outcome counters of a recovery run — the quantities the Section 5
/// experiments report.
struct RecoveryStats {
  uint64_t log_records_total = 0;
  uint64_t records_scanned = 0;   // records at or after the redo start
  uint64_t ops_considered = 0;
  uint64_t ops_redone = 0;
  uint64_t ops_skipped_installed = 0;  // vSI test
  uint64_t ops_skipped_unexposed = 0;  // generalized rSI test
  uint64_t ops_voided = 0;             // trial execution aborted
  uint64_t flush_txns_completed = 0;
  uint64_t redo_value_bytes = 0;  // bytes of object values recomputed
  /// Re-executions of expensive logical transforms (application execute/
  /// read/write, file copy/sort) — what the rSI optimization avoids.
  uint64_t expensive_redos = 0;
  Lsn redo_start = kInvalidLsn;
  bool torn_tail = false;
  /// Stable objects that failed the checksum sweep at recovery start.
  uint64_t corrupt_objects = 0;
  /// Stable objects rewritten by the media-repair pass.
  uint64_t media_repairs = 0;
  /// True when corruption forced recovery through the media path
  /// (backup + full archive replay) instead of ordinary redo.
  bool media_recovery = false;
  /// Highest transaction id on the retained log (0 if none). The engine
  /// hands it to the TxnManager so ids are never reused across a crash.
  uint64_t max_txn_id = 0;
  /// Transactions found in flight at the end of the log and rolled back
  /// by the loser pass before the system opened.
  uint64_t loser_txns = 0;
  /// Compensation records appended by the loser pass (resumed rollbacks
  /// log only the steps their crash left unstable).
  uint64_t loser_clrs = 0;
  /// Compensation records the redo scan considered (history repeats
  /// straight through earlier rollbacks).
  uint64_t compensations_redone = 0;

  std::string ToString() const;
  /// One flat JSON object, keys matching the ToString() fields.
  std::string ToJson() const;
};

/// \brief Drives crash recovery: read the stable log (tolerating a torn
/// tail), run the analysis pass, then the redo pass (Figure 2's
/// Recover(D, I) with the Section 5 REDO tests), repeating history
/// through the same cache-manager path used during normal execution.
///
/// After Run() the cache holds the recovered state with a rebuilt write
/// graph; the caller may resume normal execution immediately (and flush
/// lazily, in write-graph order) — recovery is idempotent under crashes
/// because redone operations are installed through PurgeCache like any
/// others.
/// Before any of that, the stable store is swept for checksum failures.
/// A corrupt object is a media failure, not a crash artifact — ordinary
/// redo cannot fix it (the damaged object may be an input of operations
/// that redo would replay, and under the rSI tests a per-object patch to
/// a newer value could be clobbered by a redone blind write). So on any
/// detected corruption the driver rebuilds the *whole* stable database:
/// media recovery from `repair_backup` (or an empty image — the archive
/// reaches back to the beginning of history) plus full archive replay,
/// then overwrites the live store with the rebuilt, fully-installed
/// state. Nothing is left to redo afterwards, so recovery returns early.
class RecoveryDriver {
 public:
  /// `redo_threads` > 1 replays independent components of the redo
  /// workload on that many workers (see parallel_redo.h); <= 1 keeps the
  /// serial scan. Either way the recovered state is identical.
  RecoveryDriver(SimulatedDisk* disk, LogManager* log, CacheManager* cm,
                 RedoTestKind redo_test,
                 const BackupImage* repair_backup = nullptr,
                 int redo_threads = 1)
      : disk_(disk),
        log_(log),
        cm_(cm),
        redo_test_(redo_test),
        repair_backup_(repair_backup),
        redo_threads_(redo_threads) {}

  Status Run(RecoveryStats* stats);

  /// Optional adaptive policy to reseed from the analysis pass's
  /// kPolicyDecision reconstruction (nullptr: no reseeding). Must
  /// outlive Run().
  void set_policy(AdaptiveLogPolicy* policy) { policy_ = policy; }

 private:
  /// The phases themselves; Run wraps this with the "recovery.run" trace
  /// span and the recovery.* metric updates.
  Status RunPhases(RecoveryStats* stats);
  /// Wholesale media resync of the live stable store (see class comment).
  Status RepairFromMedia(Lsn max_valid_lsn, RecoveryStats* stats);

  SimulatedDisk* disk_;
  LogManager* log_;
  CacheManager* cm_;
  RedoTestKind redo_test_;
  const BackupImage* repair_backup_;
  int redo_threads_;
  AdaptiveLogPolicy* policy_ = nullptr;
};

}  // namespace loglog

#endif  // LOGLOG_RECOVERY_RECOVERY_DRIVER_H_
