#include "sim/abort_storm.h"

#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/txn_manager.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "ship/divergence_audit.h"
#include "ship/log_shipper.h"
#include "sim/storm_observability.h"
#include "ship/replication_channel.h"
#include "ship/standby_applier.h"
#include "sim/crash_harness.h"
#include "sim/reference_executor.h"
#include "storage/disk_image.h"
#include "wal/log_record.h"

namespace loglog {

std::string AbortStormStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "iters=%llu txns=%llu(committed=%llu rolled_back=%llu "
      "abandoned=%llu) aborts(injected=%llu conflict=%llu explicit=%llu) "
      "clrs=%llu rollback_crashes=%llu torn_commits=%llu "
      "crashes=%llu(torn=%llu) recoveries=%llu recovery_crashes=%llu "
      "losers=%llu loser_clrs=%llu comp_redone=%llu "
      "verify=%llu oracle=%llu standby_audits=%llu",
      static_cast<unsigned long long>(iterations),
      static_cast<unsigned long long>(txns_begun),
      static_cast<unsigned long long>(txns_committed),
      static_cast<unsigned long long>(txns_rolled_back),
      static_cast<unsigned long long>(txns_abandoned),
      static_cast<unsigned long long>(injected_aborts),
      static_cast<unsigned long long>(conflict_aborts),
      static_cast<unsigned long long>(explicit_aborts),
      static_cast<unsigned long long>(clrs_logged),
      static_cast<unsigned long long>(rollback_crashes),
      static_cast<unsigned long long>(torn_commits),
      static_cast<unsigned long long>(crashes),
      static_cast<unsigned long long>(torn_crashes),
      static_cast<unsigned long long>(recoveries),
      static_cast<unsigned long long>(recovery_crashes),
      static_cast<unsigned long long>(loser_txns),
      static_cast<unsigned long long>(loser_clrs),
      static_cast<unsigned long long>(compensations_redone),
      static_cast<unsigned long long>(verify_passes),
      static_cast<unsigned long long>(oracle_passes),
      static_cast<unsigned long long>(standby_audits));
  return buf;
}

Status VerifyCommittedOracle(const SimulatedDisk& disk) {
  // One archive pass: baseline operations schedule at their own LSN,
  // transactional forward operations are held back and schedule at their
  // transaction's commit LSN (or never, for losers). Compensation records
  // and transaction markers are skipped — the oracle is the history in
  // which losers simply do not happen.
  Slice archive = disk.log().ArchiveContents();
  std::map<uint64_t, std::vector<OperationDesc>> txn_forward;
  std::map<Lsn, std::vector<OperationDesc>> schedule;
  while (true) {
    LogRecord rec;
    Status st = ReadFramedRecord(&archive, &rec);
    if (st.IsNotFound()) break;
    LOGLOG_RETURN_IF_ERROR(st);
    switch (rec.type) {
      case RecordType::kOperation:
        if (rec.txn_id == 0) {
          schedule[rec.lsn].push_back(rec.op);
        } else {
          txn_forward[rec.txn_id].push_back(rec.op);
        }
        break;
      case RecordType::kTxnCommit: {
        // Commit is decided by the stable record alone: a torn commit
        // whose record happened to survive the tear *is* a commit
        // (recovery sees it the same way), one whose record was lost is
        // a loser. Commit LSNs are unique, so the slot is fresh.
        auto it = txn_forward.find(rec.txn_id);
        if (it != txn_forward.end()) {
          schedule[rec.lsn] = std::move(it->second);
          txn_forward.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  ReferenceExecutor oracle;
  for (auto& [lsn, ops] : schedule) {
    for (const OperationDesc& op : ops) {
      LOGLOG_RETURN_IF_ERROR(oracle.Apply(op));
    }
  }
  return CompareWithReference(oracle, disk.store());
}

namespace {

/// A transaction slot in the interleaved burst.
struct Slot {
  TxnId id = 0;
  int remaining = 0;
  bool explicit_abort = false;
};

bool Roll(Random* rng, int percent) {
  return static_cast<int>(rng->Uniform(100)) < percent;
}

/// Arms this burst's transaction faults. Counters reset on Arm, so fire
/// deltas are read per-burst against zero.
void ArmTxnFaults(FaultInjector* inj, Random* rng,
                  const AbortStormOptions& options) {
  if (Roll(rng, options.abort_inject_percent)) {
    // The action is irrelevant — TxnManager only asks whether the site
    // fired — but it must not be kCrashNow, which would double as a
    // crash signal elsewhere.
    inj->Arm(fault::kTxnAbortInject,
             FaultSpec::Probabilistic(FaultAction::kTransientIoError,
                                      static_cast<uint32_t>(
                                          options.abort_percent),
                                      rng->Next(), /*max_fires=*/3));
  }
  if (Roll(rng, options.rollback_crash_percent)) {
    // A depth beyond this burst's compensation count simply fires during
    // a later rollback — often the recovery loser pass, which is exactly
    // the crash-during-recovery-rollback case.
    inj->Arm(fault::kTxnRollbackCrash,
             FaultSpec::CrashOnHit(1 + rng->Uniform(6)));
  }
  if (Roll(rng, options.commit_torn_percent)) {
    inj->Arm(fault::kTxnCommitTorn,
             FaultSpec::CrashOnHit(1 + rng->Uniform(2)));
  }
  if (Roll(rng, options.io_fault_percent)) {
    inj->Arm(fault::kStoreWrite,
             FaultSpec::TransientTimes(1 + rng->Uniform(2)));
  }
}

/// One burst of interleaved transactions. Sets *crashed when an injected
/// crash wedged the engine (the caller must Crash() and recover).
/// `rb_fires_base` is the rollback-crash fire count snapshotted after this
/// burst's faults were armed: counters survive a Disarm, so only a delta
/// against the snapshot distinguishes a clean abort from a crashed one.
Status RunBurst(CrashHarness* harness, MixedWorkload* workload, Random* rng,
                const AbortStormOptions& options, uint64_t rb_fires_base,
                AbortStormStats* stats, bool* crashed) {
  *crashed = false;
  FaultInjector& inj = harness->disk().fault_injector();
  TxnManager tm(&harness->engine());

  std::vector<Slot> slots;
  uint64_t n_txns = rng->Range(static_cast<uint64_t>(options.min_txns),
                               static_cast<uint64_t>(options.max_txns));
  uint64_t budget = 0;
  for (uint64_t i = 0; i < n_txns; ++i) {
    Slot s;
    LOGLOG_RETURN_IF_ERROR(tm.Begin(&s.id));
    s.remaining =
        static_cast<int>(rng->Range(static_cast<uint64_t>(options.min_txn_ops),
                                    static_cast<uint64_t>(options.max_txn_ops)));
    s.explicit_abort = Roll(rng, options.explicit_abort_percent);
    budget += static_cast<uint64_t>(s.remaining) + 1;
    slots.push_back(s);
  }

  // Sometimes walk away mid-burst: whatever is still open crashes as an
  // in-flight loser for the recovery pass to roll back.
  uint64_t abandon_after = rng->OneIn(4) ? rng->Uniform(budget + 1) : ~0ull;

  uint64_t steps = 0;
  while (!slots.empty() && !*crashed) {
    if (steps++ >= abandon_after) {
      stats->txns_abandoned += slots.size();
      break;
    }
    size_t k = static_cast<size_t>(rng->Uniform(slots.size()));
    Slot& s = slots[k];
    Status st;
    bool finishing = s.remaining == 0;
    if (finishing) {
      st = s.explicit_abort ? tm.Rollback(s.id) : tm.Commit(s.id);
      if (st.ok() && s.explicit_abort) ++stats->explicit_aborts;
    } else {
      --s.remaining;
      st = tm.Execute(s.id, workload->Next());
    }
    if (st.ok() || st.IsNotFound()) {
      // NotFound is a clean workload artifact (a read of a temp that an
      // aborted transaction un-created); the transaction stays open.
      if (finishing && st.ok()) slots.erase(slots.begin() + k);
      continue;
    }
    if (st.IsAborted()) {
      if (finishing ||
          inj.site_stats(fault::kTxnRollbackCrash).fires > rb_fires_base) {
        // Rollback crashed between CLRs, or the commit force window tore:
        // the engine is wedged exactly as a real crash would leave it.
        *crashed = true;
        break;
      }
      // Clean injected or conflict abort: the transaction was rolled
      // back and is finished.
      slots.erase(slots.begin() + k);
      continue;
    }
    if (st.IsIoError() || st.IsCorruption()) {
      // Retries exhausted (or damaged data met a checksum). Go down; the
      // recovery loser pass finishes whatever this left half-done.
      *crashed = true;
      break;
    }
    return st;  // anything else is a bug in the storm or the engine
  }

  const TxnManagerStats& ts = tm.stats();
  stats->txns_begun += ts.begun;
  stats->txns_committed += ts.committed;
  stats->txns_rolled_back += ts.aborted;
  stats->injected_aborts += ts.injected_aborts;
  stats->conflict_aborts += ts.conflict_aborts;
  stats->clrs_logged += tm.undo_stats().clrs_logged;
  return Status::OK();
  // ~TxnManager leaves any still-open transaction on the log untouched —
  // the crash that follows turns it into a loser.
}

/// Ships a transactional tail to a freshly seeded standby, promotes it
/// with one transaction still in flight, and audits the promoted node.
Status RunStandbyAuditRound(CrashHarness* harness, MixedWorkload* workload,
                            Random* rng, const EngineOptions& engine_options,
                            AbortStormStats* stats) {
  RecoveryEngine& eng = harness->engine();
  LOGLOG_RETURN_IF_ERROR(eng.FlushAll());
  LOGLOG_RETURN_IF_ERROR(eng.log().ForceAll());
  std::vector<uint8_t> image;
  SaveDiskImage(harness->disk(), &image);

  ReplicationChannel channel;  // quiet link: this round is about txns
  StandbyApplier standby(&channel);
  LOGLOG_RETURN_IF_ERROR(standby.SeedFromDiskImage(Slice(image)));
  LogShipper shipper(&harness->disk().log(), &channel);

  TxnManager tm(&eng);
  uint64_t tail_txns = 2 + rng->Uniform(3);
  for (uint64_t i = 0; i < tail_txns; ++i) {
    TxnId id;
    LOGLOG_RETURN_IF_ERROR(tm.Begin(&id));
    uint64_t ops = 1 + rng->Uniform(4);
    for (uint64_t j = 0; j < ops; ++j) {
      Status st = tm.Execute(id, workload->Next());
      if (!st.ok() && !st.IsNotFound()) return st;
    }
    if (rng->OneIn(3)) {
      LOGLOG_RETURN_IF_ERROR(tm.Rollback(id));
      ++stats->explicit_aborts;
    } else {
      LOGLOG_RETURN_IF_ERROR(tm.Commit(id));
    }
  }
  // One transaction stays in flight across the failover: the promoted
  // standby's own recovery must roll it back as a loser.
  TxnId open_id;
  LOGLOG_RETURN_IF_ERROR(tm.Begin(&open_id));
  for (uint64_t j = 0; j < 2; ++j) {
    Status st = tm.Execute(open_id, workload->Next());
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  LOGLOG_RETURN_IF_ERROR(eng.log().ForceAll());

  for (int round = 0; round < 64; ++round) {
    LOGLOG_RETURN_IF_ERROR(shipper.Poll());
    LOGLOG_RETURN_IF_ERROR(standby.Pump());
    if (standby.applied_lsn() >= shipper.durable_lsn() &&
        channel.pending_frames() == 0) {
      break;
    }
  }
  if (standby.applied_lsn() < shipper.durable_lsn()) {
    return Status::FailedPrecondition("abort storm: standby never caught up");
  }

  PromotionResult promo;
  LOGLOG_RETURN_IF_ERROR(standby.Promote(engine_options, &promo));
  stats->loser_txns += promo.recovery.loser_txns;
  stats->loser_clrs += promo.recovery.loser_clrs;
  // Promote's internal flush runs before its recovery, so the loser
  // rollback's effects are still cached; install them for the audits.
  LOGLOG_RETURN_IF_ERROR(promo.engine->FlushAll());
  LOGLOG_RETURN_IF_ERROR(promo.engine->log().ForceAll());

  DivergenceAuditor auditor;
  LOGLOG_RETURN_IF_ERROR(
      auditor.Advance(promo.disk->log().ArchiveContents(),
                      promo.engine->log().last_stable_lsn()));
  DivergenceReport report;
  LOGLOG_RETURN_IF_ERROR(auditor.Compare(promo.disk->store(), &report));
  LOGLOG_RETURN_IF_ERROR(VerifyCommittedOracle(*promo.disk));

  // The primary keeps running: resolve its open transaction here, under
  // its own locks, so later committed writes can never interleave with a
  // deferred loser rollback of the same objects.
  LOGLOG_RETURN_IF_ERROR(tm.Rollback(open_id));
  ++stats->explicit_aborts;
  stats->txns_begun += tm.stats().begun;
  stats->txns_committed += tm.stats().committed;
  stats->txns_rolled_back += tm.stats().aborted;
  stats->clrs_logged += tm.undo_stats().clrs_logged;
  ++stats->standby_audits;
  return Status::OK();
}

Status RunAbortStormInner(const AbortStormOptions& options,
                          AbortStormStats* stats, StormObservability* obs) {
  *stats = AbortStormStats{};
  ScopedThreadName thread_name("abort-storm-driver");
  // See AbortStormOptions::engine: identity-write installs log cache
  // values that may embed uncommitted effects, which repeat-history
  // replay handles but the committed-only oracle must never see.
  if (options.engine.flush_policy != FlushPolicy::kNativeAtomic) {
    return Status::InvalidArgument(
        "abort storm requires flush_policy kNativeAtomic");
  }

  CrashHarness harness(options.engine, options.seed);
  Random rng(options.seed * 0x9e3779b97f4a7c15 + 2);
  MixedWorkloadOptions wl_opts = options.workload;
  wl_opts.seed = options.seed;
  MixedWorkload workload(wl_opts);
  FaultInjector& inj = harness.disk().fault_injector();

  for (const OperationDesc& op : workload.SetupOps()) {
    LOGLOG_RETURN_IF_ERROR(harness.Execute(op));
  }

  for (int iter = 0; iter < options.iterations; ++iter) {
    ++stats->iterations;
    // Quiesced maintenance before any fault is armed.
    if (options.checkpoint_every > 0 &&
        iter % options.checkpoint_every == options.checkpoint_every - 1) {
      LOGLOG_RETURN_IF_ERROR(harness.engine().Checkpoint());
    }
    if (options.standby_audit_every > 0 &&
        iter % options.standby_audit_every ==
            options.standby_audit_every - 1) {
      LOGLOG_RETURN_IF_ERROR(RunStandbyAuditRound(
          &harness, &workload, &rng, options.engine, stats));
    }

    if (options.faults) {
      ArmTxnFaults(&inj, &rng, options);
    }
    // Arm resets a site's counters but Disarm keeps them, so snapshot
    // *after* arming: armed sites restart at zero, unarmed sites keep a
    // stale total that must difference out to zero.
    uint64_t rb_base = inj.site_stats(fault::kTxnRollbackCrash).fires;
    uint64_t ct_base = inj.site_stats(fault::kTxnCommitTorn).fires;

    bool crashed = false;
    LOGLOG_RETURN_IF_ERROR(
        RunBurst(&harness, &workload, &rng, options, rb_base, stats,
                 &crashed));

    // Crash after every burst — wedged or not — so every iteration ends
    // in a full recovery with whatever losers the burst left open.
    bool tear = rng.OneIn(3);
    harness.Crash(tear);
    ++stats->crashes;
    if (tear) ++stats->torn_crashes;

    // Recovery under fire: an armed txn.rollback.crash whose depth was
    // never reached at runtime fires here, inside the loser pass, and
    // the re-attempt must resume compensation without doubling it.
    constexpr int kMaxRecoveryAttempts = 8;
    Status rec_status;
    RecoveryStats rec_stats;
    for (int attempt = 0; attempt < kMaxRecoveryAttempts; ++attempt) {
      if (attempt >= kMaxRecoveryAttempts / 2) inj.DisarmAll();
      rec_stats = RecoveryStats{};
      rec_status = harness.Recover(&rec_stats);
      if (rec_status.ok()) break;
      ++stats->recovery_crashes;
      harness.Crash(/*tear_tail=*/false);
      ++stats->crashes;
    }
    if (!rec_status.ok()) return rec_status;
    ++stats->recoveries;
    stats->loser_txns += rec_stats.loser_txns;
    stats->loser_clrs += rec_stats.loser_clrs;
    stats->compensations_redone += rec_stats.compensations_redone;
    stats->rollback_crashes +=
        inj.site_stats(fault::kTxnRollbackCrash).fires - rb_base;
    stats->torn_commits +=
        inj.site_stats(fault::kTxnCommitTorn).fires - ct_base;

    // Verify with a quiet device. First the recoverability invariant
    // (repeat-history replay, compensation included), then the stronger
    // transactional one: the state equals a serial run of only the
    // committed transactions.
    inj.DisarmAll();
    LOGLOG_RETURN_IF_ERROR(harness.VerifyAgainstReference());
    ++stats->verify_passes;
    LOGLOG_RETURN_IF_ERROR(VerifyCommittedOracle(harness.disk()));
    ++stats->oracle_passes;
    LOGLOG_RETURN_IF_ERROR(harness.engine().cache().CheckInvariants());
    if (options.assert_health) {
      LOGLOG_RETURN_IF_ERROR(obs->CheckHealth("abort", stats->iterations));
    }
    if (!options.telemetry_jsonl.empty()) {
      LOGLOG_RETURN_IF_ERROR(obs->SampleIteration());
    }
  }
  return Status::OK();
}

}  // namespace

Status RunAbortStorm(const AbortStormOptions& options,
                     AbortStormStats* stats) {
  StormObservability obs(options.telemetry_jsonl, options.blackbox_dir);
  return obs.Finish(RunAbortStormInner(options, stats, &obs), "abort",
                    options.blackbox_on_failure);
}

}  // namespace loglog
