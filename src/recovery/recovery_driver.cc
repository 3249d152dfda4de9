#include "recovery/recovery_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "adapt/adaptive_policy.h"
#include "backup/media_recovery.h"
#include "common/retry.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/function_registry.h"
#include "recovery/analysis.h"
#include "recovery/parallel_redo.h"
#include "recovery/redo_test.h"
#include "recovery/txn_undo.h"
#include "wal/log_cursor.h"

namespace loglog {

namespace {

const char* RedoTestLabel(RedoTestKind kind) {
  switch (kind) {
    case RedoTestKind::kAlways:
      return "always";
    case RedoTestKind::kVsi:
      return "vsi";
    case RedoTestKind::kRsiGeneralized:
      return "rsi_generalized";
    case RedoTestKind::kRsiFixpoint:
      return "rsi_fixpoint";
  }
  return "unknown";
}

}  // namespace

std::string RecoveryStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "records=%llu scanned=%llu considered=%llu redone=%llu "
      "skip_installed=%llu skip_unexposed=%llu voided=%llu "
      "expensive_redos=%llu redo_bytes=%llu redo_start=%llu torn=%d "
      "corrupt=%llu media_repairs=%llu media_recovery=%d "
      "max_txn_id=%llu losers=%llu loser_clrs=%llu comp_redone=%llu",
      static_cast<unsigned long long>(log_records_total),
      static_cast<unsigned long long>(records_scanned),
      static_cast<unsigned long long>(ops_considered),
      static_cast<unsigned long long>(ops_redone),
      static_cast<unsigned long long>(ops_skipped_installed),
      static_cast<unsigned long long>(ops_skipped_unexposed),
      static_cast<unsigned long long>(ops_voided),
      static_cast<unsigned long long>(expensive_redos),
      static_cast<unsigned long long>(redo_value_bytes),
      static_cast<unsigned long long>(redo_start), torn_tail ? 1 : 0,
      static_cast<unsigned long long>(corrupt_objects),
      static_cast<unsigned long long>(media_repairs),
      media_recovery ? 1 : 0,
      static_cast<unsigned long long>(max_txn_id),
      static_cast<unsigned long long>(loser_txns),
      static_cast<unsigned long long>(loser_clrs),
      static_cast<unsigned long long>(compensations_redone));
  return buf;
}

std::string RecoveryStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("records").Uint(log_records_total);
  w.Key("scanned").Uint(records_scanned);
  w.Key("considered").Uint(ops_considered);
  w.Key("redone").Uint(ops_redone);
  w.Key("skip_installed").Uint(ops_skipped_installed);
  w.Key("skip_unexposed").Uint(ops_skipped_unexposed);
  w.Key("voided").Uint(ops_voided);
  w.Key("flush_txns_completed").Uint(flush_txns_completed);
  w.Key("expensive_redos").Uint(expensive_redos);
  w.Key("redo_bytes").Uint(redo_value_bytes);
  w.Key("redo_start").Uint(redo_start);
  w.Key("torn").Bool(torn_tail);
  w.Key("corrupt").Uint(corrupt_objects);
  w.Key("media_repairs").Uint(media_repairs);
  w.Key("media_recovery").Bool(media_recovery);
  w.Key("max_txn_id").Uint(max_txn_id);
  w.Key("loser_txns").Uint(loser_txns);
  w.Key("loser_clrs").Uint(loser_clrs);
  w.Key("compensations_redone").Uint(compensations_redone);
  w.EndObject();
  return w.Take();
}

/// Recovery is the last line of defense: a write silently damaged on the
/// way down (bit rot in flight) would otherwise be labeled with a fresh
/// vSI and survive as an installed-but-rotten object until the *next*
/// scrub. Re-reading through the checksum catches that immediately; the
/// write is re-issued a bounded number of times before the damage is
/// surfaced as Corruption.
Status VerifiedStableWrite(StableStore* store, uint64_t* retry_counter,
                           ObjectId id, Slice value, Lsn vsi) {
  Status st;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    st = RetryTransientIo(retry_counter,
                          [&] { return store->Write(id, value, vsi); });
    if (!st.ok()) return st;
    StoredObject check;
    st = RetryTransientIo(retry_counter,
                          [&] { return store->Read(id, &check); });
    if (st.ok()) return Status::OK();
    if (!st.IsCorruption()) return st;
  }
  return st;
}

/// Implements the "expanded REDO" trial execution of Section 5 (see the
/// header): shared by the serial redo scan below and the log-shipping
/// standby applier, which runs the same replay continuously.
Status RedoApplyOperation(CacheManager* cm, const OperationDesc& op,
                          Lsn lsn, bool* voided, uint64_t* value_bytes) {
  *voided = false;
  if (op.op_class == OpClass::kDelete) {
    return cm->ApplyResults(op, lsn, {});
  }
  std::vector<ObjectValue> read_values;
  read_values.reserve(op.reads.size());
  for (ObjectId r : op.reads) {
    if (cm->CurrentVsi(r) >= lsn) {
      // The read object is newer than this operation: the operation is
      // installed in every explanation; re-execution would be erroneous.
      *voided = true;
      return Status::OK();
    }
    ObjectValue v;
    Status st = cm->GetValue(r, &v);
    if (st.IsNotFound()) {
      *voided = true;  // input no longer exists (deleted/never recreated)
      return Status::OK();
    }
    LOGLOG_RETURN_IF_ERROR(st);
    read_values.push_back(std::move(v));
  }
  std::vector<ObjectValue> write_values(op.writes.size());
  for (size_t i = 0; i < op.writes.size(); ++i) {
    ObjectValue v;
    if (cm->GetValue(op.writes[i], &v).ok()) write_values[i] = std::move(v);
  }
  Status st =
      FunctionRegistry::Global().Apply(op, read_values, &write_values);
  if (!st.ok()) {
    // Case (c) of Section 5: execution against inapplicable state raised
    // an error — void the replay.
    *voided = true;
    return Status::OK();
  }
  for (const ObjectValue& v : write_values) *value_bytes += v.size();
  return cm->ApplyResults(op, lsn, std::move(write_values));
}

Status RecoveryDriver::Run(RecoveryStats* stats) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter(metric::kRecoveryRuns)->Inc();
  // Fresh progress gauges per run: a dashboard polling mid-recovery sees
  // this run's advance, not a residue of the previous one.
  reg.GetGauge(metric::kRecoveryProgressRecordsTotal)->Set(0);
  reg.GetGauge(metric::kRecoveryProgressRecordsDone)->Set(0);
  reg.GetGauge(metric::kRecoveryProgressRecordsRedone)->Set(0);
  reg.GetGauge(metric::kRecoveryProgressComponentsTotal)->Set(0);
  reg.GetGauge(metric::kRecoveryProgressComponentsDone)->Set(0);
  reg.GetGauge(metric::kRecoveryProgressBytes)->Set(0);
  FlightRecorder::Global().Record(FlightEventType::kRecoveryStart);
  const auto run_start = std::chrono::steady_clock::now();
  Status st;
  {
    TraceSpan run_span("recovery.run", "recovery",
                       {{"redo_test", RedoTestLabel(redo_test_)},
                        {"threads", std::to_string(redo_threads_)}});
    st = RunPhases(stats);
    run_span.AddArg("redone", stats->ops_redone);
    run_span.AddArg("voided", stats->ops_voided);
    if (!st.ok()) run_span.AddArg("error", st.ToString());
  }
  reg.GetHistogram(metric::kRecoveryDurationUs)
      ->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - run_start)
              .count()));
  reg.GetCounter(metric::kRecoveryOpsRedone)->Inc(stats->ops_redone);
  reg.GetCounter(metric::kRecoveryOpsSkipped)
      ->Inc(stats->ops_skipped_installed + stats->ops_skipped_unexposed);
  reg.GetCounter(metric::kRecoveryOpsVoided)->Inc(stats->ops_voided);
  if (stats->media_recovery) {
    reg.GetCounter(metric::kMediaRecoveries)->Inc();
  }
  if (stats->media_repairs > 0) {
    reg.GetCounter(metric::kMediaRepairs)->Inc(stats->media_repairs);
  }
  FlightRecorder::Global().Record(
      FlightEventType::kRecoveryDone,
      stats->redo_start == kInvalidLsn ? 0 : stats->redo_start,
      stats->ops_redone, stats->loser_txns);
  if (st.ok()) {
    HealthRegistry::Global().Set(health::kRecovery, HealthState::kOk);
    // A completed recovery re-establishes trust in the device the redo
    // pass just read, and its loser pass finished any rollback a crash
    // fault cut short — both subsystems start the new epoch clean.
    HealthRegistry::Global().Set(health::kWalDevice, HealthState::kOk);
    HealthRegistry::Global().Set(health::kTxnManager, HealthState::kOk);
  } else {
    HealthRegistry::Global().Set(health::kRecovery, HealthState::kFailing,
                                 st.ToString());
  }
  return st;
}

Status RecoveryDriver::RunPhases(RecoveryStats* stats) {
  // Pass 1 — streaming analysis: one cursor walk feeds the analysis
  // builder record by record. Nothing is materialized, so recovery memory
  // is bounded by the analysis tables (the dirty set and the retained
  // readers/writesets), not the log length.
  AnalysisBuilder builder;
  Lsn next_lsn = 1;
  {
    TraceSpan span("recovery.log_scan", "recovery");
    // The install target's volatile state (the log store's index) is
    // rebuilt from the same streaming walk.
    LogScanFn rebuild = cm_->target().BeginLogScan();
    LogCursor cursor(disk_->log());
    LogRecord rec;
    while (cursor.Next(&rec)) {
      ++stats->log_records_total;
      builder.Add(rec);
      if (rebuild) {
        LOGLOG_RETURN_IF_ERROR(
            rebuild(rec, cursor.record_offset(),
                    cursor.valid_end() - cursor.record_offset()));
      }
    }
    LOGLOG_RETURN_IF_ERROR(cursor.status());
    stats->torn_tail = cursor.torn();
    next_lsn = cursor.next_lsn();
    if (cursor.torn()) {
      // Discard the torn suffix so future appends resume at a clean
      // point.
      disk_->log().TearTail(disk_->log().end_offset() - cursor.valid_end());
    }
    span.AddArg("records", stats->log_records_total);
    span.AddArg("torn", cursor.torn() ? "true" : "false");
  }

  AnalysisResult analysis;
  Lsn start = kInvalidLsn;
  {
    TraceSpan span("recovery.analysis", "recovery");
    analysis = builder.Finish();
    // Scan start: the generalized test uses the minimum generalized rSI,
    // the classic vSI test its classic recLSN minimum; the repeat-all
    // baseline replays the full retained log.
    if (redo_test_ == RedoTestKind::kRsiGeneralized ||
        redo_test_ == RedoTestKind::kRsiFixpoint) {
      start = analysis.redo_start;
    } else if (redo_test_ == RedoTestKind::kVsi) {
      start = analysis.redo_start_classic;
    }
    if (redo_test_ == RedoTestKind::kRsiFixpoint) {
      analysis.fixpoint_redo = ComputeRedoFixpoint(analysis);
    }
    stats->redo_start = start == kMaxLsn ? next_lsn : start;
    span.AddArg("redo_start", stats->redo_start);
    // Reseed the adaptive policy (if the engine runs one) with the class
    // mix reconstructed from the logged decision records, so post-crash
    // writes resume under the classes they crashed with.
    if (policy_ != nullptr) {
      for (const auto& [id, cls] : analysis.policy_classes) {
        policy_->Restore(id, static_cast<LogChoice>(cls));
      }
    }
  }
  stats->max_txn_id = analysis.max_txn_id;

  // Media scrub: checksum-sweep the stable store before trusting it as
  // the redo base. Any corrupt object diverts recovery to the media path
  // (see the class comment) — ordinary redo would either read the
  // damaged value (Corruption on every access) or, worse, skip the
  // object as "installed" on the strength of a vSI attached to rotten
  // bytes.
  {
    TraceSpan span("recovery.media_scrub", "recovery");
    stats->corrupt_objects = disk_->store().CorruptObjects().size();
    span.AddArg("corrupt", stats->corrupt_objects);
  }
  if (stats->corrupt_objects > 0) {
    TraceSpan span("recovery.media_repair", "recovery",
                   {{"corrupt", std::to_string(stats->corrupt_objects)}});
    // Seed the counter first: the repair ships the rebuilt recovery's
    // loser-rollback tail onto the live log, advancing it past next_lsn.
    log_->RaiseNextLsn(next_lsn);
    LOGLOG_RETURN_IF_ERROR(RepairFromMedia(next_lsn - 1, stats));
    span.AddArg("repairs", stats->media_repairs);
    stats->media_recovery = true;
    // The rebuilt store is the fully-installed final state: every logged
    // operation's writes already carry their vSIs, so the redo pass
    // would skip everything, and the rebuilt recovery already rolled
    // back in-flight transactions. Resume execution directly.
    return Status::OK();
  }

  // The loser table: transactions still in flight at the end of the log.
  // Their forward operation records are stashed during the redo scan
  // below (which walks the whole retained log anyway — the checkpoint
  // truncation floor guarantees a loser's chain survives), then rolled
  // back after redo completes.
  std::unordered_map<uint64_t, std::vector<TxnChainRecord>> loser_chains;
  for (const auto& [tid, info] : analysis.txns) {
    if (info.state == AnalysisResult::TxnInfo::State::kInFlight) {
      loser_chains.try_emplace(tid);
    }
  }

  // Pass 2 — redo scan: a second cursor walk (the tail, if torn, was
  // already cut by pass 1). The serial path decides and replays in
  // place; the parallel path collects the workload — operations at or
  // after the start plus committed flush transactions — and hands it to
  // the partitioned worker pool. The scan-order counters are identical
  // either way because they are decided here, before dispatch.
  const bool parallel = redo_threads_ > 1;
  TraceSpan redo_span("recovery.redo", "recovery",
                      {{"mode", parallel ? "parallel" : "serial"}});
  // Live progress: total grows with the scan, done/redone/bytes advance
  // per decision (here in serial mode, from the workers in parallel).
  MetricsRegistry& progress_reg = MetricsRegistry::Global();
  Gauge* progress_total =
      progress_reg.GetGauge(metric::kRecoveryProgressRecordsTotal);
  Gauge* progress_done =
      progress_reg.GetGauge(metric::kRecoveryProgressRecordsDone);
  Gauge* progress_redone =
      progress_reg.GetGauge(metric::kRecoveryProgressRecordsRedone);
  Gauge* progress_bytes =
      progress_reg.GetGauge(metric::kRecoveryProgressBytes);
  std::vector<LogRecord> parallel_work;
  LogCursor cursor(disk_->log());
  LogRecord rec;
  while (cursor.Next(&rec)) {
    switch (rec.type) {
      // Compensation records redo exactly like forward operations: REDO
      // repeats history straight through earlier rollbacks, and the
      // analysis accumulators already cover CLR writesets.
      case RecordType::kCompensation:
      case RecordType::kOperation: {
        if (rec.type == RecordType::kOperation && rec.txn_id != 0) {
          auto loser = loser_chains.find(rec.txn_id);
          if (loser != loser_chains.end()) {
            loser->second.push_back({rec.lsn, rec.op, rec.undo_images});
          }
        }
        if (rec.lsn < start) break;
        ++stats->records_scanned;
        ++stats->ops_considered;
        progress_total->Add(1);
        if (rec.type == RecordType::kCompensation) {
          ++stats->compensations_redone;
        }
        if (parallel) {
          parallel_work.push_back(rec);
          break;
        }
        RedoDecision decision =
            TestRedo(redo_test_, rec.op, rec.lsn, analysis, *cm_);
        if (decision == RedoDecision::kSkipInstalled) {
          ++stats->ops_skipped_installed;
          progress_done->Add(1);
          break;
        }
        if (decision == RedoDecision::kSkipUnexposed) {
          ++stats->ops_skipped_unexposed;
          progress_done->Add(1);
          break;
        }
        bool voided = false;
        const uint64_t bytes_before = stats->redo_value_bytes;
        LOGLOG_RETURN_IF_ERROR(RedoApplyOperation(
            cm_, rec.op, rec.lsn, &voided, &stats->redo_value_bytes));
        progress_done->Add(1);
        progress_bytes->Add(
            static_cast<int64_t>(stats->redo_value_bytes - bytes_before));
        if (voided) {
          ++stats->ops_voided;
        } else {
          ++stats->ops_redone;
          progress_redone->Add(1);
          if (rec.op.op_class == OpClass::kLogical) {
            ++stats->expensive_redos;
          }
        }
        break;
      }
      case RecordType::kFlushTxnBegin: {
        ++stats->records_scanned;
        // Complete a committed flush transaction whose in-place writes
        // may have been interrupted: re-apply the frozen values to the
        // stable store wherever it is behind, and let the cache adopt
        // them over any older version redo rebuilt before this point.
        // Uncommitted transactions never touched the stable store and
        // are ignored.
        if (!analysis.committed_flush_txns.contains(rec.lsn)) break;
        if (parallel) {
          parallel_work.push_back(rec);
          break;
        }
        bool applied = false;
        for (const FlushValue& fv : rec.flush_values) {
          if (fv.erase) {
            if (disk_->store().Exists(fv.id)) {
              LOGLOG_RETURN_IF_ERROR(
                  RetryTransientIo(&disk_->stats().io_retries, [&] {
                    return disk_->store().Erase(fv.id);
                  }));
              applied = true;
            }
          } else if (disk_->store().StableVsi(fv.id) < fv.vsi) {
            LOGLOG_RETURN_IF_ERROR(VerifiedStableWrite(
                &disk_->store(), &disk_->stats().io_retries, fv.id,
                Slice(fv.value), fv.vsi));
            applied = true;
          }
          cm_->AdoptCompletedFlush(fv.id, Slice(fv.value), fv.vsi, !fv.erase);
        }
        if (applied) ++stats->flush_txns_completed;
        break;
      }
      case RecordType::kCheckpoint:
      case RecordType::kInstall:
      case RecordType::kIndexCheckpoint:
      case RecordType::kFlushTxnCommit:
      case RecordType::kPolicyDecision:
      case RecordType::kTxnBegin:
      case RecordType::kTxnCommit:
      case RecordType::kTxnAbort:
        break;  // consumed by analysis (and the target rebuild in pass 1)
    }
  }
  LOGLOG_RETURN_IF_ERROR(cursor.status());

  if (parallel) {
    ParallelRedoResult pr;
    LOGLOG_RETURN_IF_ERROR(ParallelRedo(disk_, cm_, redo_test_, analysis,
                                        parallel_work, redo_threads_, &pr));
    stats->ops_redone += pr.ops_redone;
    stats->ops_skipped_installed += pr.ops_skipped_installed;
    stats->ops_skipped_unexposed += pr.ops_skipped_unexposed;
    stats->ops_voided += pr.ops_voided;
    stats->flush_txns_completed += pr.flush_txns_completed;
    stats->redo_value_bytes += pr.redo_value_bytes;
    stats->expensive_redos += pr.expensive_redos;
  }
  redo_span.AddArg("redone", stats->ops_redone);
  redo_span.End();

  // Re-seed the LSN counter before the loser pass: its compensation
  // records are new appends past the scanned history.
  log_->RaiseNextLsn(next_lsn);

  // Pass 3 — loser rollback: roll back every transaction the crash left
  // in flight before the system opens. Redo repeated history first, so
  // the state each inverse sees is exactly what the crashed rollback (if
  // one had started) saw; the latest stable CLR's undo-next cursor makes
  // resumption exact — nothing is ever compensated twice. Ascending txn
  // id keeps the pass deterministic. Loser locks need no reacquisition:
  // nothing else runs until recovery returns.
  if (!loser_chains.empty()) {
    TraceSpan span("recovery.loser_undo", "recovery",
                   {{"losers", std::to_string(loser_chains.size())}});
    std::vector<uint64_t> ids;
    ids.reserve(loser_chains.size());
    for (const auto& [tid, chain] : loser_chains) ids.push_back(tid);
    std::sort(ids.begin(), ids.end());
    TxnUndoStats undo;
    for (uint64_t tid : ids) {
      const AnalysisResult::TxnInfo& info = analysis.txns.at(tid);
      TxnRollbackPlan plan;
      plan.txn_id = tid;
      plan.last_lsn = info.last_lsn;
      plan.forward = std::move(loser_chains[tid]);
      plan.resume_lsn = info.undo_next;
      plan.resume_skip = info.undo_skip;
      LOGLOG_RETURN_IF_ERROR(RollbackTxn(cm_, log_,
                                         &disk_->fault_injector(), plan,
                                         kRollbackIoRetries, &undo));
    }
    stats->loser_txns = undo.txns_rolled_back;
    stats->loser_clrs = undo.clrs_logged;
    span.AddArg("clrs", stats->loser_clrs);
  }
  return Status::OK();
}

Status RecoveryDriver::RepairFromMedia(Lsn max_valid_lsn,
                                       RecoveryStats* stats) {
  // Rebuild the database wholesale on a scratch disk: backup image (or
  // an empty one — the verification archive reaches back to the
  // beginning of history) plus full archive replay under the vSI-guarded
  // repeat-all test, then flush everything. The result is the
  // fully-installed final state of the logged history.
  BackupImage empty;
  const BackupImage* image =
      repair_backup_ != nullptr ? repair_backup_ : &empty;
  SimulatedDisk rebuilt_disk;
  std::unique_ptr<RecoveryEngine> rebuilt;
  RecoveryStats media_stats;
  LOGLOG_RETURN_IF_ERROR(MediaRecover(*image,
                                      disk_->log().ArchiveContents(),
                                      &rebuilt_disk, &rebuilt,
                                      &media_stats));
  LOGLOG_RETURN_IF_ERROR(rebuilt->FlushAll());

  // The rebuilt recovery rolled back any transactions the crash left in
  // flight, logging their compensation and abort records on the rebuilt
  // log. Ship that tail onto the live log so the live history tells the
  // same story as the resynced state — the next recovery's analysis must
  // see those losers resolved, not roll them back a second time.
  Lsn max_valid = max_valid_lsn;
  if (media_stats.loser_txns > 0) {
    LOGLOG_RETURN_IF_ERROR(rebuilt->log().ForceAll());
    LogCursor tail(rebuilt_disk.log());
    LogRecord rec;
    while (tail.Next(&rec)) {
      if (rec.lsn <= max_valid_lsn) continue;
      log_->AppendReplicated(rec);
      max_valid = std::max(max_valid, rec.lsn);
    }
    LOGLOG_RETURN_IF_ERROR(tail.status());
    LOGLOG_RETURN_IF_ERROR(log_->ForceAll());
    stats->loser_txns += media_stats.loser_txns;
    stats->loser_clrs += media_stats.loser_clrs;
  }

  // Resync the live store to the rebuilt state. A per-object patch of
  // only the corrupt objects would be unsound under the rSI redo tests:
  // patching to a final-history value regresses nothing, but a later
  // redone blind write (tested redo-worthy against the *old* vSI) could
  // clobber it, and a voided reader could leave stale outputs. The
  // wholesale copy sidesteps the hazard — afterwards nothing needs redo.
  StableStore& live = disk_->store();
  const StableStore& fresh = rebuilt_disk.store();

  std::vector<ObjectId> to_erase;
  live.ForEach([&](ObjectId id, const StoredObject&) {
    if (!fresh.Exists(id)) to_erase.push_back(id);
  });
  for (ObjectId id : to_erase) {
    LOGLOG_RETURN_IF_ERROR(RetryTransientIo(
        &disk_->stats().io_retries, [&] { return live.Erase(id); }));
  }

  std::vector<ObjectId> corrupt_list = live.CorruptObjects();
  std::unordered_set<ObjectId> corrupt(corrupt_list.begin(),
                                       corrupt_list.end());
  Status out = Status::OK();
  fresh.ForEach([&](ObjectId id, const StoredObject& obj) {
    if (!out.ok()) return;
    // The rebuilt engine re-logged its own installation traffic (identity
    // writes, install records), so rebuilt vSIs can exceed the live log's
    // end. The repaired value is exactly the replay of the live archive
    // (plus the shipped loser-rollback tail, included in `max_valid`), so
    // the live log's last valid LSN is the honest label: it keeps the
    // WAL invariant (vSI <= stable log end) and still makes every redo
    // test skip operations whose effects the replay already contains.
    Lsn vsi = std::min(obj.vsi, max_valid);
    // An intact live object at the rebuilt vSI already holds the same
    // value (vSI identifies the operation that produced it).
    if (!corrupt.contains(id) && live.StableVsi(id) == vsi) return;
    out = VerifiedStableWrite(&live, &disk_->stats().io_retries, id,
                              Slice(obj.value), vsi);
    if (out.ok()) ++stats->media_repairs;
  });
  return out;
}

}  // namespace loglog
