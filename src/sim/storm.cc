#include "sim/storm.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/txn_manager.h"
#include "fault/fault_injector.h"
#include "obs/blackbox.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "ship/log_shipper.h"
#include "ship/replication_channel.h"
#include "sim/crash_harness.h"

namespace loglog {

std::string StormStats::ToString() const {
  std::string s;
  auto add = [&s](const char* name, uint64_t v) {
    if (!s.empty()) s += ' ';
    s += name;
    s += '=';
    s += std::to_string(v);
  };
  add("iters", iterations);
  add("ops", ops_executed);
  add("checkpoints", checkpoints);
  add("crashes", crashes);
  add("torn", torn_crashes);
  add("recoveries", recoveries);
  add("recovery_crashes", recovery_crashes);
  add("faults_armed", faults_armed);
  add("faults_fired", faults_fired);
  add("fault_aborts", fault_aborts);
  add("io_errors", io_errors);
  add("corrupt_detected", corrupt_detected);
  add("media_repairs", media_repairs);
  if (txns_begun > 0) {
    add("txns", txns_begun);
    add("committed", txns_committed);
    add("rolled_back", txns_rolled_back);
    add("abandoned", txns_abandoned);
    add("injected_aborts", injected_aborts);
    add("conflict_aborts", conflict_aborts);
    add("explicit_aborts", explicit_aborts);
    add("clrs", clrs_logged);
    add("rollback_crashes", rollback_crashes);
    add("torn_commits", torn_commits);
    add("losers", loser_txns);
    add("loser_clrs", loser_clrs);
    add("comp_redone", compensations_redone);
  }
  if (failovers > 0) {
    add("failovers", failovers);
    add("channel_faults", channel_faults_armed);
    add("resyncs", resyncs);
    add("reconnects", reconnects);
    add("dup_batches", duplicate_batches);
    add("gap_batches", gap_batches);
    add("corrupt_frames", corrupt_frames);
    add("parallel_bursts", parallel_bursts);
    add("rto_us_total", rto_us_total);
    add("rto_us_max", rto_us_max);
  }
  add("verify", verify_passes);
  add("oracle", oracle_passes);
  return s;
}

namespace {

/// Take an order-repaired backup every N iterations: the media-repair
/// image for checksum failures (until the first one, repair replays the
/// archive from the beginning of history).
constexpr int kBackupEvery = 10;
/// A failover's standby is shipped to every N burst steps.
constexpr int kPollEvery = 8;
/// Poll/pump rounds a failover's quiesce drain may take before the
/// iteration is declared stuck.
constexpr int kDrainLimit = 256;
/// Transactional bursts: at least this many transactions, each of
/// [kMinTxnOps, kMaxTxnOps] operations.
constexpr int kMinTxns = 2;
constexpr int kMinTxnOps = 1;
constexpr int kMaxTxnOps = 6;
/// Per-operation firing chance (percent) of an armed txn.abort.inject.
constexpr uint32_t kAbortPercent = 20;
/// Chance (percent) of a transient stable-store write error per
/// transactional burst, exercising the tight rollback retry budget.
constexpr int kTxnIoFaultPercent = 25;

bool Roll(Random* rng, int percent) {
  return static_cast<int>(rng->Uniform(100)) < percent;
}

/// Arms one randomly chosen fault from the survivable crash catalogue.
/// Under the log-store backend the catalogue grows a cold-tier read
/// fault — the only read path dual-write never exercises.
void ArmCrashFault(FaultInjector* inj, Random* rng, bool logstore) {
  switch (rng->Uniform(logstore ? 11 : 10)) {
    case 0:
      inj->Arm(fault::kCmAfterWalForce,
               FaultSpec::CrashOnHit(1 + rng->Uniform(3)));
      break;
    case 1:
      inj->Arm(fault::kCmAfterFlushTxnCommit, FaultSpec::CrashOnce());
      break;
    case 2:
      inj->Arm(fault::kCmAfterFirstFlushTxnWrite, FaultSpec::CrashOnce());
      break;
    case 3:
      inj->Arm(fault::kLogAppend, FaultSpec::TornOnce(rng->Next()));
      break;
    case 4:
      inj->Arm(fault::kLogForce,
               FaultSpec::TransientTimes(1 + rng->Uniform(2)));
      break;
    case 5:
      inj->Arm(fault::kStoreWrite,
               FaultSpec::TransientTimes(1 + rng->Uniform(2)));
      break;
    case 6:
      // Silent media rot under a stale checksum: the recovery sweep must
      // catch it and repair from backup + archive replay.
      inj->Arm(fault::kStoreWrite, FaultSpec::BitFlipOnce(rng->Next()));
      break;
    case 7:
      inj->Arm(fault::kStoreRead,
               FaultSpec::TransientTimes(1 + rng->Uniform(2)));
      break;
    case 8:
      inj->Arm(fault::kStoreWriteAtomic,
               rng->OneIn(2) ? FaultSpec::TransientTimes(1)
                             : FaultSpec::BitFlipOnce(rng->Next()));
      break;
    case 9:
      if (rng->OneIn(2)) {
        // A permanent device error: retries exhaust, the workload sees a
        // clean IoError, the storm disarms ("replaces the device") and
        // crash-recovers.
        inj->Arm(fault::kStoreWrite, FaultSpec::Permanent());
      } else {
        // In-flight read corruption: the checksum turns it into a clean
        // Corruption status (the media itself is intact).
        inj->Arm(fault::kStoreRead, FaultSpec::BitFlipOnce(rng->Next()));
      }
      break;
    case 10:
      // Cold-tier segment read stalls: log-index reads below the
      // truncation point must retry through them.
      inj->Arm(fault::kColdTierRead,
               FaultSpec::TransientTimes(1 + rng->Uniform(2)));
      break;
  }
}

/// Arms this burst's transaction faults; returns how many.
uint64_t ArmTxnFaults(FaultInjector* inj, Random* rng,
                      const StormOptions& options) {
  uint64_t armed = 0;
  if (Roll(rng, options.abort_inject_percent)) {
    // The action is irrelevant — TxnManager only asks whether the site
    // fired — but it must not be kCrashNow, which would double as a
    // crash signal elsewhere.
    inj->Arm(fault::kTxnAbortInject,
             FaultSpec::Probabilistic(FaultAction::kTransientIoError,
                                      kAbortPercent, rng->Next(),
                                      /*max_fires=*/3));
    ++armed;
  }
  if (Roll(rng, options.rollback_crash_percent)) {
    // A depth beyond this burst's compensation count simply fires during
    // a later rollback — often the recovery loser pass, which is exactly
    // the crash-during-recovery-rollback case.
    inj->Arm(fault::kTxnRollbackCrash,
             FaultSpec::CrashOnHit(1 + rng->Uniform(6)));
    ++armed;
  }
  if (Roll(rng, options.commit_torn_percent)) {
    inj->Arm(fault::kTxnCommitTorn,
             FaultSpec::CrashOnHit(1 + rng->Uniform(2)));
    ++armed;
  }
  if (Roll(rng, kTxnIoFaultPercent)) {
    inj->Arm(fault::kStoreWrite,
             FaultSpec::TransientTimes(1 + rng->Uniform(2)));
    ++armed;
  }
  return armed;
}

/// Arms one randomized fault at the replication-channel sites. Every
/// entry is survivable by protocol design: visible errors and silent
/// drops resync from the acked watermark, damage is caught by the frame
/// CRC, duplicates die on the applied-LSN watermark, delays just add lag.
void ArmChannelFault(FaultInjector* inj, Random* rng) {
  const uint64_t fault_seed = rng->Next();
  switch (rng->Next() % 6) {
    case 0:  // connection visibly fails once mid-burst
      inj->Arm(fault::kShipSend, FaultSpec::TransientOnce());
      break;
    case 1:  // one frame silently lost -> gap NAK
      inj->Arm(fault::kShipSend, FaultSpec::LostOnce());
      break;
    case 2:  // one frame bit-flipped in flight -> CRC reject + NAK
      inj->Arm(fault::kShipSend, FaultSpec::BitFlipOnce(fault_seed));
      break;
    case 3:  // one frame truncated in flight -> CRC reject + NAK
      inj->Arm(fault::kShipSend, FaultSpec::TornOnce(fault_seed));
      break;
    case 4:  // a few duplicated deliveries (action is ignored at this
             // site; only the firing schedule matters)
      inj->Arm(fault::kShipDuplicate,
               FaultSpec::Probabilistic(FaultAction::kLostWrite, 25,
                                        fault_seed, /*max_fires=*/4));
      break;
    case 5:  // jittery link
      inj->Arm(fault::kShipDelay,
               FaultSpec::Probabilistic(FaultAction::kLostWrite, 20,
                                        fault_seed, /*max_fires=*/8));
      break;
  }
}

/// The standby half of a failover ending, seeded before the burst. The
/// channel draws its faults from the primary's injector.
struct Replica {
  Replica(SimulatedDisk* primary, const StandbyOptions& options)
      : channel(&primary->fault_injector()),
        standby(&channel, options),
        shipper(&primary->log(), &channel) {}

  /// Shipping moves stable bytes only: force the primary's WAL first so
  /// an armed channel fault sees traffic mid-burst.
  Status Poll(RecoveryEngine* primary) {
    LOGLOG_RETURN_IF_ERROR(primary->log().ForceAll());
    LOGLOG_RETURN_IF_ERROR(shipper.Poll());
    return standby.Pump();
  }

  ReplicationChannel channel;
  StandbyApplier standby;
  LogShipper shipper;
};

/// Quiesces the primary and seeds a cold standby from a backup of it.
/// The flush makes the backup exact through last_stable_lsn, which is the
/// watermark a promoted primary's short archive requires (see
/// StandbyApplier::SeedFromBackup).
Status SeedReplica(CrashHarness* harness, const StandbyOptions& options,
                   std::unique_ptr<Replica>* out) {
  RecoveryEngine& primary = harness->engine();
  LOGLOG_RETURN_IF_ERROR(primary.FlushAll());
  LOGLOG_RETURN_IF_ERROR(primary.log().ForceAll());
  const Lsn seed_upto = primary.log().last_stable_lsn();
  LOGLOG_RETURN_IF_ERROR(harness->TakeBackup());
  auto replica = std::make_unique<Replica>(&harness->disk(), options);
  LOGLOG_RETURN_IF_ERROR(
      replica->standby.SeedFromBackup(harness->backup(), seed_upto));
  *out = std::move(replica);
  return Status::OK();
}

/// Classifies a failed burst step. Returns OK with *wedged set when an
/// injected fault left the engine needing a crash: retries ran out
/// (IoError), a crash fault fired (Aborted), or a checksum-verified read
/// met damaged data (Corruption; recovery's sweep decides whether the
/// media itself needs repair). Anything else is a bug in the storm or the
/// engine and is returned.
Status ClassifyBurstError(const Status& st, StormStats* stats,
                          bool* wedged) {
  if (st.IsIoError()) {
    ++stats->io_errors;
  } else if (st.IsAborted()) {
    ++stats->fault_aborts;
  } else if (!st.IsCorruption()) {
    return st;
  }
  *wedged = true;
  return Status::OK();
}

/// A burst of single operations; an injected fault may cut it short.
Status RunOpBurst(CrashHarness* harness, MixedWorkload* workload,
                  Random* rng, const StormOptions& options, Replica* replica,
                  StormStats* stats, bool* wedged) {
  const uint64_t ops = rng->Range(static_cast<uint64_t>(options.min_ops),
                                  static_cast<uint64_t>(options.max_ops));
  for (uint64_t i = 0; i < ops; ++i) {
    Status st = harness->Execute(workload->Next());
    if (!st.ok() && !st.IsNotFound()) {
      // A permanent device error: the operator "replaces the device"
      // (disarms) before the crash restarts the system.
      if (st.IsIoError()) harness->disk().fault_injector().DisarmAll();
      return ClassifyBurstError(st, stats, wedged);
    }
    ++stats->ops_executed;
    if (replica != nullptr && i % kPollEvery == 0) {
      LOGLOG_RETURN_IF_ERROR(replica->Poll(&harness->engine()));
    }
  }
  return Status::OK();
}

/// A transaction slot in the interleaved burst.
struct Slot {
  TxnId id = 0;
  int remaining = 0;
  bool explicit_abort = false;
};

/// A burst of randomly interleaved transactions. `rb_fires_base` is the
/// rollback-crash fire count snapshotted after this burst's faults were
/// armed: counters survive a Disarm, so only a delta against the snapshot
/// distinguishes a clean abort from a crashed one.
Status RunTxnBurst(CrashHarness* harness, MixedWorkload* workload,
                   Random* rng, const StormOptions& options,
                   uint64_t rb_fires_base, Replica* replica,
                   StormStats* stats, bool* wedged) {
  FaultInjector& inj = harness->disk().fault_injector();
  TxnManager tm(&harness->engine());

  std::vector<Slot> slots;
  const uint64_t n_txns =
      rng->Range(kMinTxns, static_cast<uint64_t>(options.max_txns));
  uint64_t budget = 0;
  for (uint64_t i = 0; i < n_txns; ++i) {
    Slot s;
    LOGLOG_RETURN_IF_ERROR(tm.Begin(&s.id));
    s.remaining = static_cast<int>(rng->Range(kMinTxnOps, kMaxTxnOps));
    s.explicit_abort = Roll(rng, options.explicit_abort_percent);
    budget += static_cast<uint64_t>(s.remaining) + 1;
    slots.push_back(s);
  }

  // Sometimes walk away mid-burst — always before a failover: whatever is
  // still open ends as an in-flight loser for the ending's recovery (or
  // the promoted standby's) to roll back.
  const uint64_t abandon_after = replica != nullptr || rng->OneIn(4)
                                     ? rng->Uniform(budget + 1)
                                     : ~0ull;

  uint64_t steps = 0;
  while (!slots.empty() && !*wedged) {
    if (steps++ >= abandon_after) {
      stats->txns_abandoned += slots.size();
      break;
    }
    if (replica != nullptr && steps % kPollEvery == 0) {
      LOGLOG_RETURN_IF_ERROR(replica->Poll(&harness->engine()));
    }
    const size_t k = static_cast<size_t>(rng->Uniform(slots.size()));
    Slot& s = slots[k];
    const bool finishing = s.remaining == 0;
    Status st;
    if (finishing) {
      st = s.explicit_abort ? tm.Rollback(s.id) : tm.Commit(s.id);
      if (st.ok() && s.explicit_abort) ++stats->explicit_aborts;
    } else {
      --s.remaining;
      st = tm.Execute(s.id, workload->Next());
      if (st.ok() || st.IsNotFound()) ++stats->ops_executed;
    }
    if (st.ok() || st.IsNotFound()) {
      // NotFound is a clean workload artifact (a read of a temp that an
      // aborted transaction un-created); the transaction stays open.
      if (finishing && st.ok()) slots.erase(slots.begin() + k);
      continue;
    }
    if (st.IsAborted() && !finishing &&
        inj.site_stats(fault::kTxnRollbackCrash).fires <= rb_fires_base) {
      // Clean injected or conflict abort: the transaction was rolled
      // back and is finished.
      slots.erase(slots.begin() + k);
      continue;
    }
    // Rollback crashed between CLRs, the commit force window tore,
    // retries ran out or damaged data met a checksum: go down, and the
    // recovery loser pass finishes whatever this left half-done.
    LOGLOG_RETURN_IF_ERROR(ClassifyBurstError(st, stats, wedged));
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
  // the ending turns it into a loser.
}

/// Crash ending: the primary dies (randomly torn) and recovers, itself
/// under fire — a fault during recovery crashes the system again, and
/// recovery must be idempotent across such re-crashes. After a few
/// attempts the storm disarms everything (a fault that fires on every
/// attempt would otherwise starve recovery forever).
Status EndInCrash(CrashHarness* harness, Random* rng, StormStats* stats) {
  const bool tear = rng->OneIn(3);
  harness->Crash(tear);
  ++stats->crashes;
  if (tear) ++stats->torn_crashes;

  constexpr int kMaxRecoveryAttempts = 8;
  Status st;
  RecoveryStats rec;
  for (int attempt = 0; attempt < kMaxRecoveryAttempts; ++attempt) {
    if (attempt >= kMaxRecoveryAttempts / 2) {
      harness->disk().fault_injector().DisarmAll();
    }
    rec = RecoveryStats{};
    st = harness->Recover(&rec);
    if (st.ok()) break;
    ++stats->recovery_crashes;
    harness->Crash(/*tear_tail=*/false);
    ++stats->crashes;
  }
  LOGLOG_RETURN_IF_ERROR(st);
  ++stats->recoveries;
  if (rec.corrupt_objects > 0) ++stats->corrupt_detected;
  stats->media_repairs += rec.media_repairs;
  stats->loser_txns += rec.loser_txns;
  stats->loser_clrs += rec.loser_clrs;
  stats->compensations_redone += rec.compensations_redone;
  return Status::OK();
}

/// Failover ending: heal the link, drain the standby to zero lag, kill
/// the primary and promote; the promoted node becomes the harness's.
Status EndInFailover(CrashHarness* harness, std::unique_ptr<Replica> replica,
                     const StormOptions& options, StormStats* stats) {
  harness->disk().fault_injector().DisarmAll();
  LOGLOG_RETURN_IF_ERROR(harness->engine().log().ForceAll());
  bool drained = false;
  for (int i = 0; i < kDrainLimit && !drained; ++i) {
    LOGLOG_RETURN_IF_ERROR(replica->shipper.Poll());
    LOGLOG_RETURN_IF_ERROR(replica->standby.Pump());
    drained = replica->standby.applied_lsn() >=
                  replica->shipper.durable_lsn() &&
              replica->channel.pending_frames() == 0;
  }
  if (!drained) {
    return Status::FailedPrecondition(
        "storm failover " + std::to_string(stats->failovers) +
        ": standby failed to drain (applied " +
        std::to_string(replica->standby.applied_lsn()) + " vs durable " +
        std::to_string(replica->shipper.durable_lsn()) + ")");
  }
  const ShipperStats& ship = replica->shipper.stats();
  const StandbyStats& sb = replica->standby.stats();
  stats->resyncs += ship.resyncs;
  stats->reconnects += ship.reconnects;
  stats->duplicate_batches += sb.batches_duplicate;
  stats->gap_batches += sb.batches_gap;
  stats->corrupt_frames += sb.frames_corrupt;
  stats->parallel_bursts += sb.parallel_bursts;

  PromotionResult promo;
  LOGLOG_RETURN_IF_ERROR(replica->standby.Promote(options.engine, &promo));
  ++stats->failovers;
  stats->rto_us_total += promo.rto_us;
  if (promo.rto_us > stats->rto_us_max) stats->rto_us_max = promo.rto_us;
  stats->loser_txns += promo.recovery.loser_txns;
  stats->loser_clrs += promo.recovery.loser_clrs;
  replica.reset();  // its channel and shipper point into the dying primary
  return harness->Adopt(std::move(promo));
}

/// After a verified iteration every subsystem must have recovered:
/// anything still failing means the verify passed against a system that
/// believes itself broken.
Status CheckHealth(uint64_t iteration) {
  if (HealthRegistry::Global().Worst() != HealthState::kFailing) {
    return Status::OK();
  }
  return Status::Corruption(
      "storm: subsystem failing after verified iteration " +
      std::to_string(iteration) + ":\n" + HealthRegistry::Global().ToString());
}

Status RunIterations(const StormOptions& options, StormStats* stats) {
  const bool txns = options.max_txns > 0;
  if (txns && options.engine.flush_policy != FlushPolicy::kNativeAtomic) {
    return Status::InvalidArgument(
        "transactional storm requires flush_policy kNativeAtomic");
  }
  if (options.failover_percent > 0 &&
      options.engine.backend == StorageBackend::kLogStore) {
    return Status::InvalidArgument(
        "failover endings require the dual-write backend");
  }
  ScopedThreadName thread_name("storm-driver");
  CrashHarness harness(options.engine, options.seed);
  Random rng(options.seed * 0x9e3779b97f4a7c15 + 1);
  MixedWorkloadOptions wl_opts = options.workload;
  wl_opts.seed = options.seed;
  MixedWorkload workload(wl_opts);
  for (const OperationDesc& op : workload.SetupOps()) {
    LOGLOG_RETURN_IF_ERROR(harness.Execute(op));
    ++stats->ops_executed;
  }

  for (int iter = 0; iter < options.iterations; ++iter) {
    ++stats->iterations;
    const bool failover = Roll(&rng, options.failover_percent);
    std::unique_ptr<Replica> replica;
    if (failover) {
      LOGLOG_RETURN_IF_ERROR(SeedReplica(&harness, options.standby, &replica));
    }
    // Maintenance runs clean (the previous iteration disarmed its faults
    // before verifying), after any seeding, so a standby mirrors the
    // checkpoint through the shipped stream.
    if (options.checkpoint_every > 0 &&
        iter % options.checkpoint_every == options.checkpoint_every - 1) {
      LOGLOG_RETURN_IF_ERROR(harness.engine().Checkpoint());
      ++stats->checkpoints;
    }
    if (iter % kBackupEvery == kBackupEvery - 1) {
      LOGLOG_RETURN_IF_ERROR(harness.TakeBackup());
    }

    FaultInjector& inj = harness.disk().fault_injector();
    const uint64_t fires_before = inj.total_fires();
    if (options.faults && failover) {
      ArmChannelFault(&inj, &rng);
      ++stats->channel_faults_armed;
    } else if (options.faults && txns) {
      stats->faults_armed += ArmTxnFaults(&inj, &rng, options);
    } else if (options.faults) {
      const uint64_t n = rng.Uniform(3);  // 0-2 faults this burst
      for (uint64_t i = 0; i < n; ++i) {
        ArmCrashFault(&inj, &rng,
                      options.engine.backend == StorageBackend::kLogStore);
      }
      stats->faults_armed += n;
    }
    // Arm resets a site's counters but Disarm keeps them, so snapshot
    // *after* arming: armed sites restart at zero, unarmed sites keep a
    // stale total that must difference out to zero.
    const uint64_t rb_base = inj.site_stats(fault::kTxnRollbackCrash).fires;
    const uint64_t ct_base = inj.site_stats(fault::kTxnCommitTorn).fires;

    bool wedged = false;
    LOGLOG_RETURN_IF_ERROR(
        txns ? RunTxnBurst(&harness, &workload, &rng, options, rb_base,
                           replica.get(), stats, &wedged)
             : RunOpBurst(&harness, &workload, &rng, options, replica.get(),
                          stats, &wedged));

    if (failover) {
      if (wedged) {
        return Status::Corruption(
            "storm: a burst with only channel faults armed wedged the "
            "engine");
      }
      LOGLOG_RETURN_IF_ERROR(
          EndInFailover(&harness, std::move(replica), options, stats));
    } else {
      LOGLOG_RETURN_IF_ERROR(EndInCrash(&harness, &rng, stats));
      stats->rollback_crashes +=
          inj.site_stats(fault::kTxnRollbackCrash).fires - rb_base;
      stats->torn_commits +=
          inj.site_stats(fault::kTxnCommitTorn).fires - ct_base;
      // Verify with a quiet device: armed faults would fail the flush
      // the verification needs.
      inj.DisarmAll();
      stats->faults_fired += inj.total_fires() - fires_before;
    }

    // The recoverability invariant (repeat history, compensation
    // included), then for transactions the stronger one: the state
    // equals a serial run of only the committed transactions.
    LOGLOG_RETURN_IF_ERROR(harness.VerifyAgainstReference());
    ++stats->verify_passes;
    if (txns) {
      LOGLOG_RETURN_IF_ERROR(harness.VerifyCommitted());
      ++stats->oracle_passes;
    }
    LOGLOG_RETURN_IF_ERROR(harness.engine().cache().CheckInvariants());
    LOGLOG_RETURN_IF_ERROR(CheckHealth(stats->iterations));
  }
  return Status::OK();
}

}  // namespace

Status RunStorm(const StormOptions& options, StormStats* stats) {
  *stats = StormStats{};
  // A previous run's terminal state (e.g. a deliberately poisoned WAL)
  // must not leak into this storm's health checks.
  HealthRegistry::Global().Reset();
  Status st = RunIterations(options, stats);
  if (!st.ok() && !options.blackbox_on_failure.empty()) {
    // Best-effort: the storm's own error is the one worth surfacing.
    (void)WriteBlackBoxFile(options.blackbox_on_failure,
                            "storm failure: " + st.ToString());
  }
  return st;
}

}  // namespace loglog
