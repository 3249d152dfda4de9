#include "ship/standby_applier.h"

#include <chrono>
#include <utility>

#include "obs/blackbox.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "recovery/parallel_redo.h"
#include "recovery/recovery_driver.h"
#include "recovery/redo_test.h"
#include "storage/disk_image.h"

namespace loglog {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

StandbyApplier::StandbyApplier(ReplicationChannel* channel,
                               StandbyOptions options)
    : channel_(channel), options_(options) {
  disk_ = std::make_unique<SimulatedDisk>();
  log_ = std::make_unique<LogManager>(&disk_->log());
  // Native atomic installs without install logging: the standby appends
  // nothing of its own, so its log stays exactly the replicated primary
  // prefix (see the class comment).
  cm_ = std::make_unique<CacheManager>(disk_.get(), log_.get(),
                                       GraphKind::kRefined,
                                       FlushPolicy::kNativeAtomic,
                                       /*log_installs=*/false);
  MetricsRegistry& reg = MetricsRegistry::Global();
  records_applied_metric_ = reg.GetCounter(metric::kShipStandbyRecordsApplied);
  batches_duplicate_metric_ = reg.GetCounter(metric::kShipBatchesDuplicate);
  batches_gap_metric_ = reg.GetCounter(metric::kShipBatchesGap);
  frames_corrupt_metric_ = reg.GetCounter(metric::kShipFramesCorrupt);
  promotions_metric_ = reg.GetCounter(metric::kShipPromotions);
  applied_lsn_gauge_ = reg.GetGauge(metric::kShipStandbyAppliedLsn);
  apply_latency_hist_ = reg.GetHistogram(metric::kShipApplyLatencyUs);
  promote_rto_hist_ = reg.GetHistogram(metric::kShipPromoteRtoUs);
  Ack(/*resync=*/false);  // handshake: tell the shipper where we start
}

void StandbyApplier::Ack(bool resync) {
  ShipAck ack;
  ack.applied_lsn = applied_lsn_;
  ack.applied_records = applied_records_;
  ack.applied_bytes = applied_bytes_;
  ack.resync = resync;
  channel_->SendAck(ack);
  ++stats_.acks_sent;
  applied_lsn_gauge_->Set(static_cast<int64_t>(applied_lsn_));
}

Status StandbyApplier::SeedFromBackup(const BackupImage& image,
                                      Lsn installed_upto) {
  if (seeded_ || applied_lsn_ != 0) {
    return Status::FailedPrecondition(
        "standby: seeding must precede any applied frame");
  }
  for (const auto& [id, entry] : image.entries) {
    LOGLOG_RETURN_IF_ERROR(
        disk_->store().Write(id, Slice(entry.value), entry.vsi));
  }
  // Every operation below the image's scan start is installed in the
  // image; the delta stream begins right after. A caller-asserted
  // installed_upto (quiesced backup) may push the watermark further.
  applied_lsn_ = image.ScanStart() - 1;
  if (installed_upto != kInvalidLsn && installed_upto > applied_lsn_) {
    applied_lsn_ = installed_upto;
  }
  log_->RaiseNextLsn(applied_lsn_ + 1);
  seeded_ = true;
  Ack(/*resync=*/false);
  return Status::OK();
}

Status StandbyApplier::SeedFromDiskImage(Slice image) {
  if (seeded_ || applied_lsn_ != 0) {
    return Status::FailedPrecondition(
        "standby: seeding must precede any applied frame");
  }
  // Replace the blank node wholesale with the imaged one, then run
  // ordinary recovery over its log so the cache-side state (write graph,
  // vSIs) is rebuilt exactly as a restarted primary would have it.
  cm_.reset();
  log_.reset();
  disk_ = std::make_unique<SimulatedDisk>();
  LOGLOG_RETURN_IF_ERROR(LoadDiskImage(image, disk_.get()));
  log_ = std::make_unique<LogManager>(&disk_->log());
  cm_ = std::make_unique<CacheManager>(disk_.get(), log_.get(),
                                       GraphKind::kRefined,
                                       FlushPolicy::kNativeAtomic,
                                       /*log_installs=*/false);
  RecoveryDriver driver(disk_.get(), log_.get(), cm_.get(),
                        RedoTestKind::kRsiGeneralized);
  RecoveryStats rs;
  LOGLOG_RETURN_IF_ERROR(driver.Run(&rs));
  applied_lsn_ = log_->last_assigned_lsn();
  seeded_ = true;
  Ack(/*resync=*/false);
  return Status::OK();
}

Status StandbyApplier::ApplyOps(std::vector<LogRecord> run) {
  if (run.empty()) return Status::OK();
  if (options_.redo_threads > 1 &&
      run.size() >= options_.parallel_apply_threshold) {
    // Burst catch-up through the partitioned worker pool. The workers'
    // component views read the *stable store only*, so everything cached
    // must be installed first.
    LOGLOG_RETURN_IF_ERROR(cm_->FlushAll());
    ParallelRedoResult pr;
    LOGLOG_RETURN_IF_ERROR(ParallelRedo(disk_.get(), cm_.get(),
                                        RedoTestKind::kAlways,
                                        empty_analysis_, run,
                                        options_.redo_threads, &pr));
    stats_.ops_redone += pr.ops_redone;
    stats_.ops_skipped += pr.ops_skipped_installed + pr.ops_skipped_unexposed;
    stats_.ops_voided += pr.ops_voided;
    ++stats_.parallel_bursts;
  } else {
    for (const LogRecord& rec : run) {
      RedoDecision decision = TestRedo(RedoTestKind::kAlways, rec.op, rec.lsn,
                                       empty_analysis_, *cm_);
      if (decision != RedoDecision::kRedo) {
        ++stats_.ops_skipped;
        continue;
      }
      bool voided = false;
      uint64_t value_bytes = 0;
      LOGLOG_RETURN_IF_ERROR(RedoApplyOperation(cm_.get(), rec.op, rec.lsn,
                                                &voided, &value_bytes));
      if (voided) {
        ++stats_.ops_voided;
      } else {
        ++stats_.ops_redone;
      }
    }
  }
  applied_lsn_ = run.back().lsn;
  return Status::OK();
}

Status StandbyApplier::HonorCheckpoint(const LogRecord& rec) {
  // The primary checkpointed at rec.lsn and truncated its live log there;
  // mirror it — install everything so nothing below the truncation point
  // is still needed, then drop the prefix.
  LOGLOG_RETURN_IF_ERROR(cm_->FlushAll());
  LOGLOG_RETURN_IF_ERROR(log_->ForceAll());
  log_->TruncateBefore(rec.lsn);
  ++stats_.checkpoints_honored;
  return Status::OK();
}

Status StandbyApplier::ApplyBatch(ShipBatch batch) {
  std::vector<LogRecord> run;
  for (LogRecord& rec : batch.records) {
    if (rec.lsn <= applied_lsn_) continue;  // overlap with the watermark
    ++applied_records_;
    applied_bytes_ += rec.EncodedSize();
    ++stats_.records_applied;
    records_applied_metric_->Inc();
    if (rec.type == RecordType::kOperation ||
        rec.type == RecordType::kCompensation) {
      // Keep the primary LSN; the run replays it below. Compensation
      // records replay like any operation — the standby repeats the
      // primary's history straight through rollbacks, so compensated
      // regions converge byte-identically.
      log_->AppendReplicated(rec);
      run.push_back(std::move(rec));
      continue;
    }
    // Control record: finish the run before it, then honor it. Control
    // records are processed, not appended — the standby's own FlushAll /
    // checkpoint bookkeeping regenerates whatever it needs. Transaction
    // markers are the exception: they carry no data effect but must land
    // on the standby's log, or a promoted standby's recovery could not
    // re-derive the primary's transaction table (and would either miss a
    // loser or roll back a committed transaction).
    LOGLOG_RETURN_IF_ERROR(ApplyOps(std::move(run)));
    run.clear();
    if (rec.type == RecordType::kCheckpoint) {
      LOGLOG_RETURN_IF_ERROR(HonorCheckpoint(rec));
    } else if (rec.type == RecordType::kTxnBegin ||
               rec.type == RecordType::kTxnCommit ||
               rec.type == RecordType::kTxnAbort) {
      log_->AppendReplicated(rec);
    }
    applied_lsn_ = rec.lsn;
    log_->RaiseNextLsn(applied_lsn_ + 1);
  }
  LOGLOG_RETURN_IF_ERROR(ApplyOps(std::move(run)));
  return log_->ForceAll();
}

Status StandbyApplier::Pump() {
  ScopedThreadName thread_name("standby-applier");
  if (promoted_) {
    return Status::FailedPrecondition("standby: already promoted");
  }
  while (auto frame = channel_->Receive()) {
    ShipBatch batch;
    Status decode = DecodeShipFrame(Slice(*frame), &batch);
    if (!decode.ok()) {
      ++stats_.frames_corrupt;
      frames_corrupt_metric_->Inc();
      HealthRegistry::Global().Set(health::kReplicationChannel,
                                   HealthState::kDegraded,
                                   "corrupt ship frame; resyncing");
      Ack(/*resync=*/true);
      continue;
    }
    if (batch.end_lsn <= applied_lsn_) {
      ++stats_.batches_duplicate;
      batches_duplicate_metric_->Inc();
      Ack(/*resync=*/false);  // refresh the shipper's watermark
      continue;
    }
    if (batch.start_lsn > applied_lsn_ + 1) {
      // A frame ahead of this one was dropped: NAK back to the watermark.
      ++stats_.batches_gap;
      batches_gap_metric_->Inc();
      HealthRegistry::Global().Set(health::kReplicationChannel,
                                   HealthState::kDegraded,
                                   "batch gap; NAK to watermark");
      Ack(/*resync=*/true);
      continue;
    }
    const auto apply_start = std::chrono::steady_clock::now();
    TraceSpan span("ship.apply_batch", "ship");
    span.AddArg("start_lsn", batch.start_lsn);
    span.AddArg("end_lsn", batch.end_lsn);
    LOGLOG_RETURN_IF_ERROR(ApplyBatch(std::move(batch)));
    ++stats_.batches_applied;
    apply_latency_hist_->Observe(ElapsedUs(apply_start));
    HealthRegistry::Global().Set(health::kReplicationChannel,
                                 HealthState::kOk);
    Ack(/*resync=*/false);
  }
  return Status::OK();
}

Status StandbyApplier::Promote(const EngineOptions& engine_options,
                               PromotionResult* out) {
  if (promoted_) {
    return Status::FailedPrecondition("standby: already promoted");
  }
  const auto t0 = std::chrono::steady_clock::now();
  TraceSpan span("ship.promote", "ship");
  // Finish whatever the channel still holds, then install the whole
  // replicated prefix: promotion must serve exactly the applied state,
  // and flushing here (native atomic, nothing logged) makes the stable
  // store's vSIs match the primary's for the divergence audit.
  LOGLOG_RETURN_IF_ERROR(Pump());
  LOGLOG_RETURN_IF_ERROR(cm_->FlushAll());
  LOGLOG_RETURN_IF_ERROR(log_->ForceAll());
  out->applied_lsn = applied_lsn_;
  span.AddArg("applied_lsn", applied_lsn_);
  cm_.reset();
  log_.reset();
  out->disk = std::move(disk_);
  out->engine =
      std::make_unique<RecoveryEngine>(engine_options, out->disk.get());
  // The standby's device ends at the last *operation* record, but the
  // watermark may sit further along (trailing control records are
  // processed without being appended). Pin the promoted node's LSN
  // counter past the watermark before its recovery appends the loser
  // rollback, so it never re-issues a primary LSN.
  out->engine->log().RaiseNextLsn(applied_lsn_ + 1);
  LOGLOG_RETURN_IF_ERROR(out->engine->Recover(&out->recovery));
  out->rto_us = ElapsedUs(t0);
  span.AddArg("rto_us", out->rto_us);
  promote_rto_hist_->Observe(out->rto_us);
  promotions_metric_->Inc();
  promoted_ = true;
  FlightRecorder::Global().Record(FlightEventType::kPromote, applied_lsn_,
                                  out->rto_us);
  BlackBoxAutoDump("promote");
  return Status::OK();
}

}  // namespace loglog
