#include "sim/crash_harness.h"

#include <utility>

#include "obs/blackbox.h"
#include "obs/flight_recorder.h"

namespace loglog {

CrashHarness::CrashHarness(const EngineOptions& options, uint64_t seed)
    : options_(options), rng_(seed) {
  disk_ = std::make_unique<SimulatedDisk>();
  engine_ = std::make_unique<RecoveryEngine>(options_, disk_.get());
  backup_manager_ =
      std::make_unique<BackupManager>(disk_.get(), /*repair_order=*/true);
  InstallWalAuditor();
}

void CrashHarness::InstallWalAuditor() {
  // Every object write must be covered by a stable log prefix (WAL).
  LogManager* log = &engine_->log();
  disk_->store().set_write_validator([log](ObjectId id, Lsn vsi) {
    if (vsi > log->last_stable_lsn()) {
      return Status::Corruption(
          "WAL violation: object " + std::to_string(id) + " flushed at vSI " +
          std::to_string(vsi) + " but stable log ends at " +
          std::to_string(log->last_stable_lsn()));
    }
    return Status::OK();
  });
}

void CrashHarness::Crash(bool tear_tail) {
  // A torn write can only affect a force that was still in flight — an
  // acknowledged force may already have object flushes depending on it
  // (WAL). Model "crash during the final force": push the volatile
  // buffer to the device as that in-flight force, then tear within it.
  // If the force itself fails (an armed fault), nothing new reached the
  // device, so there is no in-flight force to tear — tearing anyway
  // would damage previously acknowledged bytes and break WAL.
  bool can_tear =
      tear_tail && engine_->log().volatile_record_count() > 0;
  if (can_tear) {
    can_tear = engine_->log().ForceAll().ok();
  }
  FlightRecorder::Global().Record(FlightEventType::kCrash, 0,
                                  can_tear ? 1 : 0);
  BlackBoxAutoDump(can_tear ? "crash-torn" : "crash");
  disk_->store().set_write_validator(nullptr);  // engine is going away
  engine_.reset();  // cache, write graph and volatile log buffer die
  if (can_tear) {
    uint64_t last = disk_->log().last_append_size();
    if (last > 0) {
      disk_->log().TearTail(rng_.Range(1, last));
    }
  }
  engine_ = std::make_unique<RecoveryEngine>(options_, disk_.get());
  InstallWalAuditor();
  if (has_backup_) engine_->set_repair_backup(&backup_);
  exact_vsi_ = false;
}

Status CrashHarness::Recover(RecoveryStats* stats) {
  return engine_->Recover(stats);
}

Status CrashHarness::CatchUp() {
  LOGLOG_RETURN_IF_ERROR(engine_->FlushAll());
  LOGLOG_RETURN_IF_ERROR(disk_->store().audit_status());
  Slice archive = disk_->log().ArchiveContents();
  for (RecoverabilityOracle* oracle : {&history_, &committed_}) {
    LOGLOG_RETURN_IF_ERROR(oracle->Advance(archive, kMaxLsn));
    if (oracle->consumed() != archive.size()) {
      return Status::Corruption(
          "stable archive is undecodable from offset " +
          std::to_string(oracle->consumed()) + " of " +
          std::to_string(archive.size()));
    }
  }
  return Status::OK();
}

Status CrashHarness::CompareWith(const RecoverabilityOracle& oracle,
                                 Lsn vsi_ceiling) {
  DivergenceReport report;
  // The store never sees object writes under the log-as-database
  // backend, so equivalence is asserted through the read path.
  if (options_.backend == StorageBackend::kLogStore) {
    return oracle.CompareEngineReads(engine_.get(), &report, vsi_ceiling);
  }
  return oracle.Compare(disk_->store(), &report, vsi_ceiling);
}

Status CrashHarness::VerifyAgainstReference() {
  LOGLOG_RETURN_IF_ERROR(CatchUp());
  return CompareWith(history_, exact_vsi_ ? kInvalidLsn
                                          : engine_->log().last_stable_lsn());
}

Status CrashHarness::VerifyCommitted() {
  LOGLOG_RETURN_IF_ERROR(CatchUp());
  return CompareWith(committed_, kInvalidLsn);
}

Status CrashHarness::TakeBackup() {
  LOGLOG_RETURN_IF_ERROR(backup_manager_->Begin());
  while (!backup_manager_->done()) {
    LOGLOG_RETURN_IF_ERROR(backup_manager_->Step(16));
  }
  backup_ = backup_manager_->image();
  has_backup_ = true;
  engine_->set_repair_backup(&backup_);
  return Status::OK();
}

Status CrashHarness::Adopt(PromotionResult promo) {
  disk_->store().set_write_validator(nullptr);
  engine_.reset();
  Slice archive = disk_->log().ArchiveContents();
  for (RecoverabilityOracle* oracle : {&history_, &committed_}) {
    LOGLOG_RETURN_IF_ERROR(oracle->Advance(archive, promo.applied_lsn));
    oracle->FollowNewArchive();
  }
  disk_ = std::move(promo.disk);
  engine_ = std::move(promo.engine);
  InstallWalAuditor();
  backup_manager_ =
      std::make_unique<BackupManager>(disk_.get(), /*repair_order=*/true);
  has_backup_ = false;
  exact_vsi_ = true;
  return Status::OK();
}

}  // namespace loglog
