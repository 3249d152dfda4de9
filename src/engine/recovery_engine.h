#ifndef LOGLOG_ENGINE_RECOVERY_ENGINE_H_
#define LOGLOG_ENGINE_RECOVERY_ENGINE_H_

#include <memory>

#include "adapt/adaptive_policy.h"
#include "cache/cache_manager.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/options.h"
#include "logstore/log_index.h"
#include "ops/operation.h"
#include "recovery/recovery_driver.h"
#include "recovery/txn_undo.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"

namespace loglog {

class Compactor;
class TxnManager;

/// Per-engine execution counters.
struct EngineStats {
  uint64_t ops_executed = 0;
  /// Bytes of operation log records appended (the paper's logging cost).
  uint64_t op_log_bytes = 0;
  uint64_t logical_ops = 0;
  uint64_t physical_ops = 0;
  uint64_t physiological_ops = 0;
  // Adaptive-policy execution (EngineOptions::adaptive).
  uint64_t policy_decisions = 0;   // kPolicyDecision records appended
  uint64_t policy_log_bytes = 0;   // their encoded payload bytes
  uint64_t promoted_physical = 0;  // logical writes logged as W_P
  uint64_t promoted_delta = 0;     // logical writes logged as W_PL
};

/// \brief The public facade: a redo-recoverable object store driven by
/// logged operations.
///
/// A RecoveryEngine owns all *volatile* state (cache, write graph,
/// volatile log buffer) over a SimulatedDisk that owns all *stable*
/// state. Simulating a crash = destroying the engine; recovering =
/// constructing a new engine on the same disk and calling Recover().
///
/// Typical use:
/// \code
///   SimulatedDisk disk;
///   RecoveryEngine engine(EngineOptions{}, &disk);
///   engine.Execute(MakeCreate(1, "hello"));
///   engine.Execute(MakeCopy(/*y=*/2, /*x=*/1));   // logical: no values logged
///   engine.Checkpoint();
///   // ... crash: drop `engine` ...
///   RecoveryEngine after(EngineOptions{}, &disk);
///   after.Recover();
/// \endcode
class RecoveryEngine {
 public:
  RecoveryEngine(const EngineOptions& options, SimulatedDisk* disk);
  ~RecoveryEngine();

  RecoveryEngine(const RecoveryEngine&) = delete;
  RecoveryEngine& operator=(const RecoveryEngine&) = delete;

  /// Replays the stable log after a crash (analysis + redo passes). Must
  /// be called before Execute when the disk carries a log; a fresh disk
  /// needs no recovery. Idempotent across repeated crashes mid-recovery.
  /// InvalidArgument (and nothing done) when options().Validate() fails.
  Status Recover(RecoveryStats* stats = nullptr);

  /// Installs the backup image Recover() repairs from when its checksum
  /// sweep finds corrupt stable objects (nullptr: repair from the log
  /// archive alone). The image must outlive the engine.
  void set_repair_backup(const BackupImage* image) {
    repair_backup_ = image;
  }

  /// Executes and logs one operation. Under LoggingMode::kPhysiological,
  /// cross-object logical operations are decomposed into physical writes
  /// whose values are logged (the Figure 1b baseline). Returns the LSN of
  /// the (last) log record via `lsn` if non-null. InvalidArgument (and
  /// nothing done) when options().Validate() fails.
  Status Execute(const OperationDesc& op, Lsn* lsn = nullptr);

  /// Latest value of an object (NotFound if absent or deleted).
  Status Read(ObjectId id, ObjectValue* out);
  /// Read without the copy: `*out` borrows the cached value, after the
  /// same fault-in and cache Touch as Read (so eviction order, and every
  /// count, is the same whichever of the two a caller uses).
  ///
  /// The view is invalidated by the next call that can evict, rewrite or
  /// drop cached objects: Execute (it runs eviction, purging,
  /// checkpoints and compaction), PurgeOne, FlushAll, Checkpoint,
  /// Compact, Recover, and TxnManager::Execute and Rollback. Read,
  /// ReadView and Exists — of this or any other object — leave it valid.
  ///
  /// `stamp`, when non-null, receives the cached version's stamp
  /// (CachedObject::stamp()): a process-wide counter value that is new
  /// each time the cached bytes are replaced — at fault-in, at Execute,
  /// at redo and when recovery adopts a completed flush. Two ReadViews
  /// that return the same stamp returned the same bytes at the same
  /// address, even across Execute calls that did not write the object;
  /// a caller may cache what it derived from those bytes under the stamp.
  /// Flushes, installs (identity writes included), checkpoints and reads
  /// leave it unchanged; an eviction and re-fault gives a new one.
  Status ReadView(ObjectId id, Slice* out, uint64_t* stamp = nullptr);
  bool Exists(ObjectId id);

  /// Installs one minimal write-graph node (explicit PurgeCache).
  Status PurgeOne() { return cache_->PurgeOne(); }
  /// Marks an object hot: automatic purging installs its operations via
  /// identity-write logging without flushing it (Section 4).
  void MarkHot(ObjectId id, bool hot = true) { cache_->MarkHot(id, hot); }
  /// Installs everything and flushes all dirty objects.
  Status FlushAll() { return cache_->FlushAll(); }
  /// Forced checkpoint + log truncation.
  Status Checkpoint();
  /// One forced log-store compaction pass (no-op under kDualWrite):
  /// re-logs the oldest live full images at the tail and checkpoints so
  /// truncation reclaims the vacated prefix. The automatic cadence
  /// (LogStoreOptions::compact_interval_ops) runs this same pass.
  Status Compact();
  /// The background compactor (nullptr under kDualWrite).
  Compactor* compactor() { return compactor_.get(); }
  /// The log-as-database object index (nullptr under kDualWrite).
  const LogIndex* log_index() const { return log_index_; }

  /// Transaction layer hook (set by the TxnManager constructor; nullptr
  /// without one). Checkpoints ask it for the truncation floor so a live
  /// transaction's backchain is never truncated away.
  void set_txn_manager(TxnManager* tm) { txn_manager_ = tm; }
  TxnManager* txn_manager() { return txn_manager_; }
  /// Highest transaction id recovery saw on the log (0 on a fresh disk):
  /// id allocation continues above it so loser/committed ids are never
  /// reused.
  uint64_t max_recovered_txn_id() const { return max_recovered_txn_id_; }
  /// Allocates the next transaction id. Lives on the engine, not the
  /// TxnManager, so two managers created over one engine lifetime (e.g. a
  /// storm burst followed by a replication tail) keep a single id space.
  uint64_t AllocateTxnId() { return ++max_recovered_txn_id_; }

  CacheManager& cache() { return *cache_; }
  const CacheManager& cache() const { return *cache_; }
  /// The adaptive logging policy (nullptr unless options.adaptive.enabled).
  AdaptiveLogPolicy* policy() { return policy_.get(); }
  const AdaptiveLogPolicy* policy() const { return policy_.get(); }
  LogManager& log() { return *log_; }
  SimulatedDisk& disk() { return *disk_; }
  const EngineOptions& options() const { return options_; }
  const EngineStats& stats() const { return stats_; }

 private:
  friend class TxnManager;

  /// Active-transaction scope, set by TxnManager around Execute calls:
  /// records appended while set carry the txn id and backchain, capture
  /// before-images when no exact logical inverse is registered, and are
  /// pushed onto the transaction's undo stack.
  struct TxnScope {
    uint64_t txn_id = 0;
    Lsn last_lsn = kInvalidLsn;
    std::vector<TxnChainRecord>* undo = nullptr;
  };

  Status ExecuteInternal(const OperationDesc& op, Lsn* lsn);
  /// Logs an executed operation and applies its results. `old_*` (the
  /// writeset's prior state) feed before-images inside a transaction.
  Status LogAndApply(const OperationDesc& op,
                     const std::vector<bool>& old_exists,
                     std::vector<ObjectValue> old_values,
                     std::vector<ObjectValue> new_values, Lsn* lsn);
  /// Adaptive path: classifies each written object through the policy,
  /// logs decision records for class flips, and logs the operation under
  /// the chosen class (W_L as-is; W_P / W_PL as value-carrying records,
  /// the Figure 1b shape with a per-object class choice).
  Status ExecuteAdaptive(const OperationDesc& op, Lsn* lsn);
  Status MaybeMaintain();
  /// rW dependency weight of the object's owning node: uninstalled ops
  /// in the node plus its fan-in predecessors (0 when clean).
  uint64_t ChainDepth(ObjectId id) const;
  void AppendPolicyDecision(const PolicyDecision& d);

  EngineOptions options_;
  Status options_status_;  // options_.Validate()
  SimulatedDisk* disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CacheManager> cache_;
  std::unique_ptr<AdaptiveLogPolicy> policy_;
  /// Log-store background compaction (kLogStore backend only; owned here
  /// so its cadence shares MaybeMaintain with checkpointing).
  std::unique_ptr<Compactor> compactor_;
  const LogIndex* log_index_ = nullptr;  // owned by the cache's target
  EngineStats stats_;
  uint64_t ops_since_checkpoint_ = 0;
  uint64_t ops_since_compact_ = 0;
  bool recovered_ = false;
  bool needs_recovery_ = false;
  const BackupImage* repair_backup_ = nullptr;
  TxnScope* txn_scope_ = nullptr;
  TxnManager* txn_manager_ = nullptr;
  uint64_t max_recovered_txn_id_ = 0;
};

}  // namespace loglog

#endif  // LOGLOG_ENGINE_RECOVERY_ENGINE_H_
