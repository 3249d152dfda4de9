#include "engine/txn_manager.h"

#include <algorithm>

#include "common/retry.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"

namespace loglog {

TxnManager::TxnManager(RecoveryEngine* engine) : engine_(engine) {
  engine_->set_txn_manager(this);
}

TxnManager::~TxnManager() {
  if (engine_ != nullptr && engine_->txn_manager() == this) {
    engine_->set_txn_manager(nullptr);
  }
}

Status TxnManager::Begin(TxnId* id) {
  TxnId tid = engine_->AllocateTxnId();
  Lsn begin_lsn = engine_->log().AppendTxnMarker(RecordType::kTxnBegin, tid,
                                                 kInvalidLsn);
  Txn& t = txns_[tid];
  t.begin_lsn = begin_lsn;
  t.last_lsn = begin_lsn;
  ++stats_.begun;
  *id = tid;
  return Status::OK();
}

Status TxnManager::Execute(TxnId id, const OperationDesc& op, Lsn* lsn) {
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown or finished transaction");
  }
  Txn& t = it->second;

  if (engine_->disk().fault_injector().Hit(fault::kTxnAbortInject)) {
    ++stats_.injected_aborts;
    LOGLOG_RETURN_IF_ERROR(Rollback(id));
    return Status::Aborted("injected transaction abort");
  }
  if (!LocksAvailable(id, op)) {
    ++stats_.conflict_aborts;
    LOGLOG_RETURN_IF_ERROR(Rollback(id));
    return Status::Aborted("transaction lock conflict");
  }
  GrabLocks(id, &t, op);

  RecoveryEngine::TxnScope scope;
  scope.txn_id = id;
  scope.last_lsn = t.last_lsn;
  scope.undo = &t.undo;
  engine_->txn_scope_ = &scope;
  Status st = engine_->Execute(op, lsn);
  engine_->txn_scope_ = nullptr;
  t.last_lsn = scope.last_lsn;
  return st;
}

Status TxnManager::Commit(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown or finished transaction");
  }
  Txn& t = it->second;

  Lsn commit_lsn = engine_->log().AppendTxnMarker(RecordType::kTxnCommit, id,
                                                  t.last_lsn);
  t.last_lsn = commit_lsn;

  // The torn-commit window: the record exists but is volatile. A fire
  // here models a crash before the force — recovery must see a loser.
  if (engine_->disk().fault_injector().Hit(fault::kTxnCommitTorn)) {
    return Status::Aborted("crash injected at txn.commit.torn");
  }

  LOGLOG_RETURN_IF_ERROR(engine_->log().Force(commit_lsn));
  ++stats_.committed;
  ReleaseLocks(id, &t);
  txns_.erase(it);
  return Status::OK();
}

Status TxnManager::Rollback(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown or finished transaction");
  }
  Txn& t = it->second;

  TxnRollbackPlan plan;
  plan.txn_id = id;
  plan.last_lsn = t.last_lsn;
  plan.forward = t.undo;
  const uint64_t clrs_before = undo_stats_.clrs_logged;
  Status undo_st = RollbackTxn(
      &engine_->cache(), &engine_->log(),
      &engine_->disk().fault_injector(), plan,
      kRollbackIoRetries, &undo_stats_);
  if (!undo_st.ok()) {
    HealthRegistry::Global().Set(health::kTxnManager, HealthState::kFailing,
                                 "rollback failed: " + undo_st.ToString());
    return undo_st;
  }
  FlightRecorder::Global().Record(FlightEventType::kTxnAbort, t.last_lsn,
                                  id, undo_stats_.clrs_logged - clrs_before);
  HealthRegistry::Global().Set(health::kTxnManager, HealthState::kOk);
  ++stats_.aborted;
  ReleaseLocks(id, &t);
  txns_.erase(it);
  return Status::OK();
}

Lsn TxnManager::OldestActiveBeginLsn() const {
  Lsn oldest = kMaxLsn;
  for (const auto& [id, t] : txns_) {
    oldest = std::min(oldest, t.begin_lsn);
  }
  return oldest;
}

bool TxnManager::LocksAvailable(TxnId id, const OperationDesc& op) const {
  for (ObjectId x : op.writes) {
    auto w = write_locks_.find(x);
    if (w != write_locks_.end() && w->second != id) return false;
    auto r = read_locks_.find(x);
    if (r != read_locks_.end()) {
      for (TxnId holder : r->second) {
        if (holder != id) return false;
      }
    }
  }
  for (ObjectId x : op.reads) {
    auto w = write_locks_.find(x);
    if (w != write_locks_.end() && w->second != id) return false;
  }
  return true;
}

void TxnManager::GrabLocks(TxnId id, Txn* t, const OperationDesc& op) {
  for (ObjectId x : op.writes) {
    write_locks_[x] = id;
    t->write_locks.insert(x);
  }
  for (ObjectId x : op.reads) {
    read_locks_[x].insert(id);
    t->read_locks.insert(x);
  }
}

void TxnManager::ReleaseLocks(TxnId id, Txn* t) {
  for (ObjectId x : t->write_locks) {
    auto w = write_locks_.find(x);
    if (w != write_locks_.end() && w->second == id) write_locks_.erase(w);
  }
  for (ObjectId x : t->read_locks) {
    auto r = read_locks_.find(x);
    if (r != read_locks_.end()) {
      r->second.erase(id);
      if (r->second.empty()) read_locks_.erase(r);
    }
  }
  t->write_locks.clear();
  t->read_locks.clear();
}

}  // namespace loglog
