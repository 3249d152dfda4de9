#include "sim/crash_harness.h"

#include "obs/blackbox.h"
#include "obs/flight_recorder.h"

namespace loglog {

CrashHarness::CrashHarness(const EngineOptions& options, uint64_t seed)
    : options_(options), rng_(seed) {
  disk_ = std::make_unique<SimulatedDisk>();
  engine_ = std::make_unique<RecoveryEngine>(options_, disk_.get());
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
}

Status CrashHarness::Recover(RecoveryStats* stats) {
  return engine_->Recover(stats);
}

Status CrashHarness::VerifyAgainstReference() {
  LOGLOG_RETURN_IF_ERROR(engine_->FlushAll());
  LOGLOG_RETURN_IF_ERROR(disk_->store().audit_status());
  ReferenceExecutor ref;
  LOGLOG_RETURN_IF_ERROR(ref.ReplayLog(disk_->log().ArchiveContents()));
  if (options_.backend == StorageBackend::kLogStore) {
    // The store never sees object writes under the log-as-database
    // backend, so equivalence is asserted through the read path: every
    // reference object must come back from the log/cold tier with the
    // reference value, and the index must not claim anything beyond the
    // reference's live set. (Compaction's W_IP rewrites are identity
    // operations, so the reference replay is unaffected by them.)
    for (const auto& [id, want] : ref.objects()) {
      ObjectValue got;
      Status st = engine_->Read(id, &got);
      if (!st.ok()) {
        return Status::Corruption("logstore read of object " +
                                  std::to_string(id) +
                                  " failed: " + st.ToString());
      }
      if (got != want) {
        return Status::Corruption("logstore object " + std::to_string(id) +
                                  " diverges from reference");
      }
    }
    for (const IndexCheckpointEntry& e : engine_->log_index()->Snapshot()) {
      if (!ref.Exists(e.id)) {
        return Status::Corruption("log index holds deleted/unknown object " +
                                  std::to_string(e.id));
      }
    }
    return Status::OK();
  }
  return CompareWithReference(ref, disk_->store());
}

Status CrashHarness::TakeBackup() {
  BackupManager bm(disk_.get(), /*repair_order=*/true);
  LOGLOG_RETURN_IF_ERROR(bm.Begin());
  while (!bm.done()) {
    LOGLOG_RETURN_IF_ERROR(bm.Step(16));
  }
  backup_ = bm.image();
  has_backup_ = true;
  engine_->set_repair_backup(&backup_);
  return Status::OK();
}

}  // namespace loglog
