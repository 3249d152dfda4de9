#ifndef LOGLOG_ENGINE_TXN_MANAGER_H_
#define LOGLOG_ENGINE_TXN_MANAGER_H_

#include <map>
#include <set>

#include "common/status.h"
#include "common/types.h"
#include "engine/recovery_engine.h"
#include "recovery/txn_undo.h"

namespace loglog {

/// User-transaction identifier (0 is never a valid id: log records with
/// txn_id == 0 are non-transactional).
using TxnId = uint64_t;

/// Runtime transaction counters (rollback specifics live in the shared
/// TxnUndoStats, see undo_stats()).
struct TxnManagerStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;           // rollbacks completed at runtime
  uint64_t injected_aborts = 0;   // fired by fault::kTxnAbortInject
  uint64_t conflict_aborts = 0;   // strict-2PL lock conflicts
};

/// \brief BEGIN/COMMIT/ROLLBACK semantics over a RecoveryEngine.
///
/// Scopes Execute calls to a transaction: every in-scope operation record
/// carries the txn id and a per-transaction prev-LSN backchain, plus
/// before-images whenever the operation has no exact registered logical
/// inverse (ops/inverse_registry.h) — which is also what makes the
/// adaptive policy compensation-aware: a logical write the policy
/// promotes to W_P/W_PL is logged with its before-image, so its
/// compensation stays physical.
///
/// Concurrency control is strict 2PL with immediate abort: read and
/// write locks are held to transaction end, and any conflict rolls the
/// requesting transaction back. This is deliberately the simplest policy
/// that makes commit order a serialization order — the property the
/// abort-storm harness's serial oracle relies on. Non-transactional
/// Execute calls bypass the lock table entirely; mixing them with open
/// transactions over the same objects is the caller's responsibility.
///
/// Commit forces the log through the kTxnCommit record (the durability
/// point). Rollback and abort records are never forced: a crashed
/// rollback is resumed by recovery from the last *stable* CLR's
/// undo-next-LSN, and re-running the lost suffix is idempotent.
class TxnManager {
 public:
  /// Registers with the engine (checkpoint truncation clamps at the
  /// oldest active transaction's begin LSN, and new txn ids continue
  /// above the highest id recovery saw on the log). An engine destroyed
  /// first (a simulated crash) detaches its manager; after that only the
  /// stats accessors and the destructor may be called.
  explicit TxnManager(RecoveryEngine* engine);
  ~TxnManager();

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Starts a transaction: logs kTxnBegin (not forced) and returns the id.
  Status Begin(TxnId* id);

  /// Executes one operation inside the transaction. On a lock conflict
  /// or an injected abort (fault::kTxnAbortInject) the transaction is
  /// rolled back and Aborted is returned — the id is then finished.
  /// Clean operation failures (validation, missing reads) leave the
  /// transaction active for the caller to continue or roll back.
  Status Execute(TxnId id, const OperationDesc& op, Lsn* lsn = nullptr);

  /// Durably commits: appends kTxnCommit and forces the log through it.
  /// fault::kTxnCommitTorn fires between append and force — the caller
  /// must treat the Aborted result as a crash (the commit record is
  /// volatile; recovery rolls the transaction back as a loser).
  Status Commit(TxnId id);

  /// Rolls the transaction back via logged compensation (CLRs). Aborted
  /// means a crash was injected mid-rollback; any other failure leaves
  /// the transaction active (rollback is re-runnable, and after a crash
  /// recovery finishes it).
  Status Rollback(TxnId id);

  bool active(TxnId id) const { return txns_.contains(id); }
  size_t active_count() const { return txns_.size(); }

  /// Begin LSN of the oldest active transaction (kMaxLsn when none):
  /// the checkpoint truncation floor.
  Lsn OldestActiveBeginLsn() const;

  const TxnManagerStats& stats() const { return stats_; }
  const TxnUndoStats& undo_stats() const { return undo_stats_; }

 private:
  friend class RecoveryEngine;

  struct Txn {
    Lsn begin_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;  // backchain head
    std::vector<TxnChainRecord> undo;
    std::set<ObjectId> read_locks;
    std::set<ObjectId> write_locks;
  };

  /// True when every lock `op` needs is free or already held by `id`.
  bool LocksAvailable(TxnId id, const OperationDesc& op) const;
  void GrabLocks(TxnId id, Txn* t, const OperationDesc& op);
  void ReleaseLocks(TxnId id, Txn* t);

  RecoveryEngine* engine_;
  std::map<TxnId, Txn> txns_;
  std::map<ObjectId, TxnId> write_locks_;
  std::map<ObjectId, std::set<TxnId>> read_locks_;
  TxnManagerStats stats_;
  TxnUndoStats undo_stats_;
};

}  // namespace loglog

#endif  // LOGLOG_ENGINE_TXN_MANAGER_H_
