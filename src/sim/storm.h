#ifndef LOGLOG_SIM_STORM_H_
#define LOGLOG_SIM_STORM_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/options.h"
#include "ship/standby_applier.h"
#include "sim/workload.h"

namespace loglog {

/// Configuration of one storm run. Every iteration runs a burst under
/// randomized faults and ends in a crash or a failover; see RunStorm.
struct StormOptions {
  EngineOptions engine;
  /// The workload's own seed is replaced by `seed`.
  MixedWorkloadOptions workload;
  /// Replay settings of the standby a failover ending promotes.
  StandbyOptions standby;
  uint64_t seed = 42;
  int iterations = 25;
  /// Single-operation bursts: operations per burst, drawn uniformly from
  /// [min_ops, max_ops].
  int min_ops = 8;
  int max_ops = 48;
  /// > 0: bursts interleave 2..max_txns transactions of 1-6 operations
  /// instead, and every iteration also checks the committed-only oracle.
  /// Requires flush_policy kNativeAtomic: an identity-write install logs
  /// the *cache* value of an object, which may embed an uncommitted
  /// effect — fine for repeat-history recovery, poison for an oracle that
  /// replays no loser effect at all.
  int max_txns = 0;
  /// Chance (percent) that an iteration ends in failover instead of a
  /// crash (100 = every iteration fails over). Dual-write backend only.
  int failover_percent = 0;
  /// Explicit checkpoint (with log truncation) every N iterations (0 =
  /// only the engine's automatic checkpoints, if configured).
  int checkpoint_every = 4;
  /// Arm randomized faults each iteration: before a crash ending, the
  /// crash catalogue (single-operation bursts) or the transaction
  /// catalogue (transactional bursts); before a failover, one
  /// replication-channel fault.
  bool faults = true;
  /// Transaction catalogue, each a chance in percent per burst:
  /// txn.abort.inject armed (then firing per operation, at most three
  /// times); a finished transaction rolling back voluntarily;
  /// txn.rollback.crash armed at a random depth (runtime rollbacks and
  /// the recovery loser pass alike); txn.commit.torn armed (a commit
  /// crashes after appending its record, before forcing it).
  int abort_inject_percent = 60;
  int explicit_abort_percent = 25;
  int rollback_crash_percent = 35;
  int commit_torn_percent = 20;
  /// On any storm failure, write a black box here ("" = off) so the
  /// failing iteration's last events and metrics survive the process.
  std::string blackbox_on_failure;
};

/// What happened across a storm (all counters cumulative).
struct StormStats {
  uint64_t iterations = 0;
  uint64_t ops_executed = 0;
  uint64_t checkpoints = 0;
  // Crash endings.
  uint64_t crashes = 0;
  uint64_t torn_crashes = 0;
  uint64_t recoveries = 0;
  /// Recovery attempts that themselves died to an injected fault and were
  /// re-crashed (the crash-during-recovery path).
  uint64_t recovery_crashes = 0;
  uint64_t faults_armed = 0;
  uint64_t faults_fired = 0;
  /// Bursts cut short by a crash fault.
  uint64_t fault_aborts = 0;
  /// I/O errors that surfaced to the workload (post-retry permanents).
  uint64_t io_errors = 0;
  /// Recoveries whose checksum sweep found corrupt stable objects.
  uint64_t corrupt_detected = 0;
  /// Stable objects rewritten by media repair.
  uint64_t media_repairs = 0;
  // Transactional bursts.
  uint64_t txns_begun = 0;
  uint64_t txns_committed = 0;
  /// Rollbacks completed at runtime (injected + conflict + explicit).
  uint64_t txns_rolled_back = 0;
  uint64_t injected_aborts = 0;
  uint64_t conflict_aborts = 0;
  uint64_t explicit_aborts = 0;
  /// Transactions walked away from mid-burst; the ending's recovery rolls
  /// them back as losers.
  uint64_t txns_abandoned = 0;
  uint64_t clrs_logged = 0;
  uint64_t rollback_crashes = 0;
  uint64_t torn_commits = 0;
  uint64_t loser_txns = 0;
  uint64_t loser_clrs = 0;
  uint64_t compensations_redone = 0;
  // Failover endings.
  uint64_t failovers = 0;
  uint64_t channel_faults_armed = 0;
  uint64_t resyncs = 0;
  uint64_t reconnects = 0;
  uint64_t duplicate_batches = 0;
  uint64_t gap_batches = 0;
  uint64_t corrupt_frames = 0;
  uint64_t parallel_bursts = 0;
  uint64_t rto_us_total = 0;
  uint64_t rto_us_max = 0;
  // Verification.
  /// Repeat-history checks: values, live set and vSIs against the
  /// sequential replay of the stable history, compensation included.
  uint64_t verify_passes = 0;
  /// Committed-only checks (transactional bursts): the state equals a
  /// serial run of the committed transactions alone.
  uint64_t oracle_passes = 0;

  std::string ToString() const;
};

/// \brief The seeded storm: one loop for crash, abort and failover soaks.
///
/// Each iteration runs clean maintenance, arms randomized faults, runs a
/// burst — single operations, or interleaved transactions under injected
/// aborts, rollback crashes and torn commits — and then ends one of two
/// ways:
///   - crash: the primary dies (randomly torn) and recovers, re-crashed
///     whenever a fault kills recovery itself;
///   - failover: a standby seeded from a backup before the burst catches
///     up through a faulted channel, the primary dies, the standby
///     promotes (rolling back in-flight transactions as losers) and
///     becomes the next iteration's primary.
/// A quiet verification follows every ending: the cumulative oracle
/// (values and vSIs, in both directions; the same oracle follows the
/// failover chain), the committed-only oracle for transactional bursts,
/// the cache invariants and the health ledger. Any divergence fails the
/// run immediately.
///
/// The crash catalogue is survivable faults only: crash windows in the
/// flush paths, torn/failed log forces, transient store errors,
/// bit-flips (caught by checksums, repaired from backup + log) and rare
/// permanent write errors. Deliberately excluded are lost writes of
/// multi-write operations and torn multi-object installs — those violate
/// the model's atomicity assumptions and are exercised by targeted tests
/// instead (see EXPERIMENTS.md).
Status RunStorm(const StormOptions& options, StormStats* stats);

}  // namespace loglog

#endif  // LOGLOG_SIM_STORM_H_
