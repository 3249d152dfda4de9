#ifndef LOGLOG_SIM_CRASH_HARNESS_H_
#define LOGLOG_SIM_CRASH_HARNESS_H_

#include <memory>

#include "backup/backup_manager.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/options.h"
#include "engine/recovery_engine.h"
#include "ship/standby_applier.h"
#include "sim/recoverability_oracle.h"
#include "storage/simulated_disk.h"

namespace loglog {

/// \brief Crash-injection harness around a RecoveryEngine.
///
/// Owns the disk and the engine; Crash() destroys the engine (all
/// volatile state dies, optionally tearing the final log force) and
/// builds a fresh one over the surviving disk. VerifyAgainstReference()
/// flushes and compares the installed state against the sequential
/// replay of the stable history — the recoverability invariant of
/// Theorem 2. One pair of oracles lives as long as the harness and only
/// ever decodes the archive bytes appended since the previous check.
class CrashHarness {
 public:
  explicit CrashHarness(const EngineOptions& options, uint64_t seed = 42);

  RecoveryEngine& engine() { return *engine_; }
  SimulatedDisk& disk() { return *disk_; }
  Random& rng() { return rng_; }

  /// Executes one operation through the engine.
  Status Execute(const OperationDesc& op) { return engine_->Execute(op); }

  /// Simulates a crash: drops all volatile state. With `tear_tail`, also
  /// tears a random number of bytes off the final log force (a torn
  /// write), bounded so earlier forces stay intact. The torn force is one
  /// Crash() issues itself, so it only ever holds records no check has
  /// consumed yet.
  void Crash(bool tear_tail = false);

  /// Runs recovery on the post-crash engine.
  Status Recover(RecoveryStats* stats = nullptr);

  /// FlushAll, then compare the installed state (the stable store, or the
  /// engine's reads under kLogStore) against the repeat-history oracle:
  /// values and the live object set in both directions, and every vSI
  /// within [last writer, stable log end] — media repair labels what it
  /// rewrites with the stable log end — or, right after Adopt(), exactly
  /// the last writer. Call after Recover() (or any quiesced point).
  Status VerifyAgainstReference();

  /// The transactional invariant, values only: the installed state equals
  /// the committed-only replay (baseline plus committed transactions in
  /// commit order; losers leave no trace). Call at a quiesced point.
  /// Meaningful under kNativeAtomic installation only: an identity write
  /// logs a cache value that may embed an uncommitted effect.
  Status VerifyCommitted();

  /// Takes an order-repaired fuzzy backup of the current stable state and
  /// installs it as the engine's media-repair image (it survives crashes;
  /// every rebuilt engine gets the pointer again). Later calls replace
  /// the image; one BackupManager per disk takes them all, so each backup
  /// decodes only the log appended since the previous one.
  Status TakeBackup();
  bool has_backup() const { return has_backup_; }
  const BackupImage& backup() const { return backup_; }
  const BackupManager& backup_manager() const { return *backup_manager_; }

  /// Failover: the primary dies and `promo`'s node becomes the harness's
  /// disk and engine. The oracles first consume the dead primary's
  /// archive through the promoted watermark — exactly the history the
  /// promoted node claims — then follow the promoted node's archive. The
  /// repair image belonged to the old history and is dropped.
  Status Adopt(PromotionResult promo);

 private:
  /// Hooks the stable store with a WAL auditor bound to the current
  /// engine's log (re-installed after every crash).
  void InstallWalAuditor();

  /// FlushAll and feed both oracles every new stable record.
  Status CatchUp();

  /// Compares the installed state against `oracle`.
  Status CompareWith(const RecoverabilityOracle& oracle, Lsn vsi_ceiling);

  EngineOptions options_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<RecoveryEngine> engine_;
  Random rng_;
  BackupImage backup_;
  bool has_backup_ = false;
  /// Takes the current disk's backups (rebuilt when Adopt() switches
  /// disks).
  std::unique_ptr<BackupManager> backup_manager_;
  RecoverabilityOracle history_{OracleFeed::kHistory};
  RecoverabilityOracle committed_{OracleFeed::kCommitted};
  /// True from Adopt() to the next Crash(): no media repair has run on
  /// the promoted node, so its vSIs must match exactly.
  bool exact_vsi_ = false;
};

}  // namespace loglog

#endif  // LOGLOG_SIM_CRASH_HARNESS_H_
