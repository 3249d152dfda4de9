#include "cache/install_target.h"

#include "cache/cache_manager.h"
#include "common/retry.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace loglog {

StoreTarget::StoreTarget(SimulatedDisk* disk, LogManager* log,
                         FlushPolicy policy)
    : disk_(disk), log_(log), policy_(policy) {
  disk_->store().set_shadow_mode(policy_ == FlushPolicy::kShadow);
}

Status StoreTarget::Load(ObjectId id, int io_budget, StoredObject* out) {
  return RetryTransientIo(io_budget, &disk_->stats().io_retries,
                          [&] { return disk_->store().Read(id, out); });
}

Status StoreTarget::InstallSet(const std::vector<ObjectWrite>& writes,
                               CacheStats* stats) {
  // Transient device errors are retried (the WAL protocol lets a flush
  // simply re-issue); anything that survives the budget propagates.
  if (policy_ == FlushPolicy::kIdentityWrites && writes.size() > 1) {
    // PurgeOne reduced |vars| to at most MaxFlushSet() == 1.
    return Status::FailedPrecondition(
        "identity-write policy with multi-object flush set");
  }
  if (policy_ == FlushPolicy::kFlushTransaction && writes.size() > 1) {
    return FlushTransaction(writes, stats);
  }
  // kNativeAtomic and kShadow: one atomic multi-object write (the store
  // realizes the shadow variant); singleton sets under every policy.
  return RetryTransientIo(&disk_->stats().io_retries,
                          [&] { return disk_->store().WriteAtomic(writes); });
}

Status StoreTarget::FlushTransaction(const std::vector<ObjectWrite>& writes,
                                     CacheStats* stats) {
  ++disk_->stats().quiesce_events;
  ++stats->flush_txns;
  MetricsRegistry::Global().GetCounter(metric::kCmFlushTxns)->Inc();
  LogRecord begin;
  begin.type = RecordType::kFlushTxnBegin;
  for (const ObjectWrite& w : writes) {
    begin.flush_values.push_back(
        FlushValue{w.id, w.vsi, w.value.ToBytes(), w.erase});
    stats->flush_txn_bytes_logged += w.value.size();
    ++stats->flush_txn_values_logged;
  }
  Lsn begin_lsn = log_->Append(std::move(begin));
  LogRecord commit;
  commit.type = RecordType::kFlushTxnCommit;
  commit.ref_lsn = begin_lsn;
  Lsn commit_lsn = log_->Append(std::move(commit));
  LOGLOG_RETURN_IF_ERROR(log_->Force(commit_lsn));
  FaultInjector& faults = disk_->fault_injector();
  LOGLOG_RETURN_IF_ERROR(faults.MaybeFail(fault::kCmAfterFlushTxnCommit));
  for (const ObjectWrite& w : writes) {
    LOGLOG_RETURN_IF_ERROR(RetryTransientIo(&disk_->stats().io_retries, [&] {
      return w.erase ? disk_->store().Erase(w.id)
                     : disk_->store().Write(w.id, w.value, w.vsi);
    }));
    if (&w == &writes.front()) {
      LOGLOG_RETURN_IF_ERROR(
          faults.MaybeFail(fault::kCmAfterFirstFlushTxnWrite));
    }
  }
  return Status::OK();
}

Status StoreTarget::WriteBack(const ObjectWrite& w) {
  if (w.erase) {
    if (!disk_->store().Exists(w.id)) return Status::OK();
    return RetryTransientIo(&disk_->stats().io_retries,
                            [&] { return disk_->store().Erase(w.id); });
  }
  return RetryTransientIo(&disk_->stats().io_retries, [&] {
    return disk_->store().Write(w.id, w.value, w.vsi);
  });
}

}  // namespace loglog
