#ifndef LOGLOG_SIM_ABORT_STORM_H_
#define LOGLOG_SIM_ABORT_STORM_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/options.h"
#include "sim/workload.h"
#include "storage/simulated_disk.h"

namespace loglog {

/// Configuration of one abort-storm run.
struct AbortStormOptions {
  /// flush_policy must be kNativeAtomic, not the default (the storm
  /// returns InvalidArgument otherwise). Identity-write installation logs
  /// the *cache* value of an object, which may embed effects of a
  /// transaction that later aborts: correct for repeat-history recovery
  /// (the CLR undoes it), but poison for the committed-only serial oracle,
  /// whose whole point is replaying no loser effect at all.
  EngineOptions engine;
  MixedWorkloadOptions workload;
  uint64_t seed = 42;
  /// Burst/crash/recover/verify iterations.
  int iterations = 25;
  /// Interleaved transactions per burst, drawn from [min_txns, max_txns].
  int min_txns = 2;
  int max_txns = 6;
  /// Operations per transaction, drawn from [min_txn_ops, max_txn_ops].
  int min_txn_ops = 1;
  int max_txn_ops = 6;
  /// Chance (percent) that txn.abort.inject is armed for a burst; when
  /// armed it fires per-operation with `abort_percent` probability,
  /// at most three times per burst.
  int abort_inject_percent = 60;
  int abort_percent = 20;
  /// Chance (percent) that a finished transaction rolls back voluntarily
  /// instead of committing.
  int explicit_abort_percent = 25;
  /// Chance (percent) that txn.rollback.crash is armed: the burst (or the
  /// recovery loser pass after it) crashes between two compensation
  /// records, at a random depth.
  int rollback_crash_percent = 35;
  /// Chance (percent) that txn.commit.torn is armed: a commit crashes
  /// after appending but before forcing its record.
  int commit_torn_percent = 20;
  /// Chance (percent) of a transient stable-store write error per burst,
  /// exercising the tightened rollback retry budget.
  int io_fault_percent = 25;
  /// Explicit checkpoint (with log truncation) every N iterations (0 =
  /// never).
  int checkpoint_every = 5;
  /// Every N iterations, seed a standby from a disk image, ship a
  /// transactional tail (commits, rollbacks, and one transaction left in
  /// flight), promote it, and run the divergence audit plus the committed
  /// oracle on the promoted node (0 = never).
  int standby_audit_every = 8;
  /// Arm randomized faults each iteration. Off: aborts and crashes only
  /// come from explicit rollbacks and the end-of-burst crash.
  bool faults = true;
  /// Append one telemetry JSONL record per iteration ("" = off).
  std::string telemetry_jsonl;
  /// Directory for automatic black-box dumps at crash points ("" = off).
  std::string blackbox_dir;
  /// On any storm failure, write a black box here ("" = off).
  std::string blackbox_on_failure;
  /// Fail the storm if any subsystem still reports failing after a
  /// verified iteration.
  bool assert_health = true;
};

/// What happened across a storm (all counters cumulative).
struct AbortStormStats {
  uint64_t iterations = 0;
  uint64_t txns_begun = 0;
  uint64_t txns_committed = 0;
  /// Rollbacks completed at runtime (injected + conflict + explicit).
  uint64_t txns_rolled_back = 0;
  uint64_t injected_aborts = 0;
  uint64_t conflict_aborts = 0;
  uint64_t explicit_aborts = 0;
  /// Transactions walked away from mid-burst; recovery rolls them back
  /// as losers.
  uint64_t txns_abandoned = 0;
  uint64_t clrs_logged = 0;
  /// txn.rollback.crash fires (runtime rollbacks and recovery loser
  /// passes alike).
  uint64_t rollback_crashes = 0;
  /// txn.commit.torn fires (commit record appended, never forced).
  uint64_t torn_commits = 0;
  uint64_t crashes = 0;
  uint64_t torn_crashes = 0;
  uint64_t recoveries = 0;
  /// Recovery attempts that themselves died to an injected fault and
  /// were re-crashed (crash during the loser rollback included).
  uint64_t recovery_crashes = 0;
  uint64_t loser_txns = 0;
  uint64_t loser_clrs = 0;
  uint64_t compensations_redone = 0;
  /// Full-history verifications (repeat-history replay of the archive,
  /// compensation records included, against the stable store).
  uint64_t verify_passes = 0;
  /// Committed-only serial-oracle verifications: the stable store must
  /// equal a replay of just the baseline plus committed transactions, in
  /// commit order — losers leave no trace.
  uint64_t oracle_passes = 0;
  uint64_t standby_audits = 0;

  std::string ToString() const;
};

/// \brief Seeded abort storm: bursts of randomly interleaved transactions
/// under injected aborts, crashes at every rollback step and torn
/// commits; a crash (randomly torn) after every burst; recovery —
/// re-crashed if a fault kills it mid-loser-rollback — and, after every
/// recovery, both the repeat-history verification and the committed-only
/// serial oracle. Periodically the whole transactional state is shipped
/// to a standby which is promoted mid-transaction and audited for
/// byte-identical convergence. Any divergence fails the run immediately.
Status RunAbortStorm(const AbortStormOptions& options,
                     AbortStormStats* stats);

/// The committed-only serial oracle, standalone: replays the disk's log
/// archive keeping only non-transactional operations (at their own LSN)
/// and the forward operations of committed transactions (applied at their
/// commit LSN — commit order is a serialization order under strict 2PL),
/// then compares against the stable store. Loser operations and
/// compensation records are both excluded: a fully compensated
/// transaction must be invisible. Call on a quiesced, recovered disk.
Status VerifyCommittedOracle(const SimulatedDisk& disk);

}  // namespace loglog

#endif  // LOGLOG_SIM_ABORT_STORM_H_
