#include "engine/recovery_engine.h"

#include "engine/txn_manager.h"
#include "logstore/compactor.h"
#include "logstore/logstore_target.h"
#include "ops/function_registry.h"
#include "ops/inverse_registry.h"
#include "ops/op_builder.h"

namespace loglog {

RecoveryEngine::RecoveryEngine(const EngineOptions& options,
                               SimulatedDisk* disk)
    : options_(options), options_status_(options.Validate()), disk_(disk) {
  log_ = std::make_unique<LogManager>(&disk_->log());
  log_->set_force_policy(options_.wal_force_policy, options_.wal_group_bytes);
  // The one backend choice: where installed state lives (nullptr: the
  // stable store).
  std::unique_ptr<InstallTarget> target;
  if (options_.backend == StorageBackend::kLogStore) {
    auto logstore = std::make_unique<LogStoreTarget>(
        disk_, log_.get(), options_.logstore.cold_retention_full);
    log_index_ = &logstore->index();
    compactor_ = std::make_unique<Compactor>(this, logstore.get());
    target = std::move(logstore);
  }
  cache_ = std::make_unique<CacheManager>(
      disk_, log_.get(), options_.graph_kind, options_.flush_policy,
      options_.log_installs, std::move(target));
  cache_->set_auto_hot_threshold(options_.auto_hot_write_threshold);
  if (options_.adaptive.enabled) {
    policy_ = std::make_unique<AdaptiveLogPolicy>(options_.adaptive);
  }
  needs_recovery_ = disk_->log().retained_bytes() > 0;
}

RecoveryEngine::~RecoveryEngine() {
  // A manager that outlives the engine (a simulated crash) must not
  // reach back into it.
  if (txn_manager_ != nullptr) txn_manager_->engine_ = nullptr;
}

Status RecoveryEngine::Recover(RecoveryStats* stats) {
  LOGLOG_RETURN_IF_ERROR(options_status_);
  RecoveryStats local;
  RecoveryDriver driver(disk_, log_.get(), cache_.get(),
                        options_.redo_test, repair_backup_,
                        options_.recovery.redo_threads);
  // Reseed the adaptive policy from the logged decision records: after
  // recovery each object resumes under the class it crashed with.
  driver.set_policy(policy_.get());
  RecoveryStats* out = stats != nullptr ? stats : &local;
  LOGLOG_RETURN_IF_ERROR(driver.Run(out));
  max_recovered_txn_id_ = out->max_txn_id;
  recovered_ = true;
  needs_recovery_ = false;
  return Status::OK();
}

Status RecoveryEngine::Execute(const OperationDesc& op, Lsn* lsn) {
  LOGLOG_RETURN_IF_ERROR(options_status_);
  if (needs_recovery_ && !recovered_) {
    return Status::FailedPrecondition(
        "engine has a stable log but Recover() has not run");
  }
  LOGLOG_RETURN_IF_ERROR(op.Validate());
  if (!FunctionRegistry::Global().Contains(op.func)) {
    return Status::InvalidArgument("operation uses unregistered transform");
  }

  // Adaptive path: the policy picks the logging class per written
  // object; it subsumes the static decomposition below.
  if (policy_ != nullptr) {
    LOGLOG_RETURN_IF_ERROR(ExecuteAdaptive(op, lsn));
    return MaybeMaintain();
  }

  // Figure 1b baseline: physiological logging cannot express cross-object
  // reads, so compute the result now and log physical writes carrying the
  // values.
  bool cross_object =
      !op.reads.empty() &&
      (op.writes.size() > 1 || op.reads != op.writes);
  if (options_.logging_mode == LoggingMode::kPhysiological &&
      op.op_class == OpClass::kLogical && cross_object) {
    std::vector<ObjectValue> read_values;
    read_values.reserve(op.reads.size());
    for (ObjectId r : op.reads) {
      ObjectValue v;
      LOGLOG_RETURN_IF_ERROR(cache_->GetValue(r, &v));
      read_values.push_back(std::move(v));
    }
    std::vector<ObjectValue> write_values(op.writes.size());
    for (size_t i = 0; i < op.writes.size(); ++i) {
      ObjectValue v;
      if (cache_->GetValue(op.writes[i], &v).ok()) {
        write_values[i] = std::move(v);
      }
    }
    LOGLOG_RETURN_IF_ERROR(FunctionRegistry::Global().Apply(
        op, read_values, &write_values));
    for (size_t i = 0; i < op.writes.size(); ++i) {
      OperationDesc phys =
          MakePhysicalWrite(op.writes[i], Slice(write_values[i]));
      LOGLOG_RETURN_IF_ERROR(ExecuteInternal(phys, lsn));
    }
    return MaybeMaintain();
  }

  LOGLOG_RETURN_IF_ERROR(ExecuteInternal(op, lsn));
  return MaybeMaintain();
}

Status RecoveryEngine::ExecuteInternal(const OperationDesc& op, Lsn* lsn) {
  const bool in_txn = txn_scope_ != nullptr;
  std::vector<ObjectValue> old_values;
  std::vector<bool> old_exists;
  if (in_txn) {
    old_values.resize(op.writes.size());
    old_exists.assign(op.writes.size(), false);
  }
  std::vector<ObjectValue> new_values;
  if (op.op_class != OpClass::kDelete) {
    std::vector<ObjectValue> read_values;
    read_values.reserve(op.reads.size());
    for (ObjectId r : op.reads) {
      ObjectValue v;
      LOGLOG_RETURN_IF_ERROR(cache_->GetValue(r, &v));
      read_values.push_back(std::move(v));
    }
    new_values.resize(op.writes.size());
    for (size_t i = 0; i < op.writes.size(); ++i) {
      ObjectValue v;
      if (cache_->GetValue(op.writes[i], &v).ok()) {
        if (in_txn) {
          old_values[i] = v;
          old_exists[i] = true;
        }
        new_values[i] = std::move(v);
      }
    }
    LOGLOG_RETURN_IF_ERROR(
        FunctionRegistry::Global().Apply(op, read_values, &new_values));
  } else if (!cache_->ObjectExists(op.writes[0])) {
    return Status::NotFound("delete of nonexistent object");
  } else if (in_txn) {
    ObjectValue v;
    if (cache_->GetValue(op.writes[0], &v).ok()) {
      old_values[0] = std::move(v);
      old_exists[0] = true;
    }
  }
  return LogAndApply(op, old_exists, std::move(old_values),
                     std::move(new_values), lsn);
}

Status RecoveryEngine::LogAndApply(const OperationDesc& op,
                                   const std::vector<bool>& old_exists,
                                   std::vector<ObjectValue> old_values,
                                   std::vector<ObjectValue> new_values,
                                   Lsn* lsn) {
  const bool in_txn = txn_scope_ != nullptr;
  std::vector<UndoImage> images;
  uint64_t txn_id = 0;
  Lsn prev_lsn = kInvalidLsn;
  if (in_txn) {
    txn_id = txn_scope_->txn_id;
    prev_lsn = txn_scope_->last_lsn;
    // No exact logical inverse: log before-images so compensation can
    // restore physically. (This is where a policy-promoted W_P write
    // pays its compensation insurance — kFuncSetValue has no inverse.)
    if (!InverseRegistry::Global().Invertible(op, old_exists, old_values)) {
      images.resize(op.writes.size());
      for (size_t i = 0; i < op.writes.size(); ++i) {
        images[i].exists = old_exists[i];
        images[i].value = std::move(old_values[i]);
      }
    }
  }
  size_t payload_size = 0;
  Lsn assigned =
      log_->AppendOperation(op, txn_id, prev_lsn, images, &payload_size);
  stats_.op_log_bytes += payload_size;
  if (lsn != nullptr) *lsn = assigned;
  if (in_txn) {
    txn_scope_->last_lsn = assigned;
    txn_scope_->undo->push_back({assigned, op, std::move(images)});
  }

  ++stats_.ops_executed;
  switch (op.op_class) {
    case OpClass::kLogical:
      ++stats_.logical_ops;
      break;
    case OpClass::kPhysiological:
      ++stats_.physiological_ops;
      break;
    default:
      ++stats_.physical_ops;
      break;
  }
  return cache_->ApplyResults(op, assigned, std::move(new_values));
}

Status RecoveryEngine::ExecuteAdaptive(const OperationDesc& op, Lsn* lsn) {
  // Structurally classed operations (W_P / W_PL / W_IP / create /
  // delete) keep their class; the policy only observes them so its
  // estimators stay honest.
  if (op.op_class != OpClass::kLogical) {
    for (ObjectId x : op.writes) {
      policy_->ObserveWrite(x, op.params.size());
    }
    return ExecuteInternal(op, lsn);
  }

  // Compute the transform once; the logical and the promoted path both
  // persist exactly these results.
  std::vector<ObjectValue> read_values;
  read_values.reserve(op.reads.size());
  for (ObjectId r : op.reads) {
    ObjectValue v;
    LOGLOG_RETURN_IF_ERROR(cache_->GetValue(r, &v));
    read_values.push_back(std::move(v));
  }
  std::vector<ObjectValue> old_values(op.writes.size());
  std::vector<bool> old_exists(op.writes.size(), false);
  for (size_t i = 0; i < op.writes.size(); ++i) {
    ObjectValue v;
    if (cache_->GetValue(op.writes[i], &v).ok()) {
      old_values[i] = std::move(v);
      old_exists[i] = true;
    }
  }
  std::vector<ObjectValue> new_values = old_values;
  LOGLOG_RETURN_IF_ERROR(
      FunctionRegistry::Global().Apply(op, read_values, &new_values));

  // Classify each written object; decision records precede the writes
  // they govern so analysis sees the flip before the reclassified op.
  bool promote = false;
  std::vector<PolicyDecision> decisions;
  decisions.reserve(op.writes.size());
  for (size_t i = 0; i < op.writes.size(); ++i) {
    decisions.push_back(policy_->Decide(op.writes[i], new_values[i].size(),
                                        ChainDepth(op.writes[i])));
    if (decisions.back().chosen != LogChoice::kLogical) promote = true;
    if (decisions.back().changed) AppendPolicyDecision(decisions.back());
  }

  if (!promote) {
    // W_L: the operation record itself, precomputed results applied.
    return LogAndApply(op, old_exists, std::move(old_values),
                       std::move(new_values), lsn);
  }

  // Promoted: one value-carrying record per write (the Figure 1b shape
  // with a per-object class choice). The blind writes carry exactly the
  // sequential result, so replay and the divergence audit see the same
  // values; each record's own LSN becomes the write's vSI, as it would
  // for any logged blind write.
  for (size_t i = 0; i < op.writes.size(); ++i) {
    const ObjectId x = op.writes[i];
    const ObjectValue& nv = new_values[i];
    OperationDesc out;
    bool delta_ok = false;
    if (decisions[i].chosen == LogChoice::kPhysiological && old_exists[i] &&
        nv.size() >= old_values[i].size()) {
      // W_PL: byte range from the first differing byte. kFuncApplyDelta
      // extends but never truncates, so growth must write through the
      // new end; equal sizes may also trim the unchanged tail.
      const ObjectValue& ov = old_values[i];
      size_t lo = 0;
      while (lo < ov.size() && lo < nv.size() && ov[lo] == nv[lo]) ++lo;
      size_t hi = nv.size();
      if (nv.size() == ov.size()) {
        while (hi > lo && ov[hi - 1] == nv[hi - 1]) --hi;
      }
      // Worth logging as a delta only when it undercuts the full image
      // (varint offset + length prefix cost ~12 bytes).
      if (hi - lo + 12 < nv.size()) {
        out = MakeDelta(x, lo, Slice(nv.data() + lo, hi - lo));
        delta_ok = true;
      }
    }
    if (delta_ok) {
      ++stats_.promoted_delta;
    } else {
      out = MakePhysicalWrite(x, Slice(nv));
      ++stats_.promoted_physical;
    }
    LOGLOG_RETURN_IF_ERROR(ExecuteInternal(out, lsn));
  }
  return Status::OK();
}

uint64_t RecoveryEngine::ChainDepth(ObjectId id) const {
  const WriteGraph& g = cache_->graph();
  NodeId v = g.NodeOwningVar(id);
  if (v == kNoNode) return 0;
  const GraphNode* n = g.Find(v);
  if (n == nullptr) return 0;
  return n->ops.size() + n->preds.size();
}

void RecoveryEngine::AppendPolicyDecision(const PolicyDecision& d) {
  LogRecord rec;
  rec.type = RecordType::kPolicyDecision;
  rec.policy.object = d.id;
  rec.policy.new_class = static_cast<uint8_t>(d.chosen);
  rec.policy.prev_class = static_cast<uint8_t>(d.previous);
  rec.policy.reason = static_cast<uint8_t>(d.reason);
  rec.policy.chain_depth = d.chain_depth;
  rec.policy.ewma_size = d.ewma_size;
  ++stats_.policy_decisions;
  stats_.policy_log_bytes += rec.EncodedSize();
  log_->Append(std::move(rec));
}

Status RecoveryEngine::MaybeMaintain() {
  if (options_.purge_threshold_ops > 0) {
    while (cache_->uninstalled_ops() > options_.purge_threshold_ops) {
      // Automatic purging protects hot objects (they install via logging
      // under kIdentityWrites but are not flushed); FlushAll drains them.
      Status st = cache_->PurgeOne(/*allow_hot_flush=*/false);
      if (st.IsNotFound()) break;
      LOGLOG_RETURN_IF_ERROR(st);
    }
  }
  // Recovery budget: when the uninstalled backlog exceeds the budget,
  // ask the CM to install the oldest chains — proactive W_IP identity
  // writes cut the hot chains a crash would otherwise have to replay.
  if (policy_ != nullptr && options_.recovery_budget > 0 &&
      cache_->uninstalled_ops() > options_.recovery_budget) {
    LOGLOG_RETURN_IF_ERROR(cache_->EnforceRecoveryBudget(
        options_.recovery_budget,
        options_.adaptive.max_identity_requests_per_cycle));
  }
  if (options_.checkpoint_interval_ops > 0 &&
      ++ops_since_checkpoint_ >= options_.checkpoint_interval_ops) {
    LOGLOG_RETURN_IF_ERROR(Checkpoint());
  }
  // Log-store maintenance: periodic compaction keeps the live prefix
  // short.
  if (compactor_ != nullptr && options_.logstore.compact_interval_ops > 0 &&
      ++ops_since_compact_ >= options_.logstore.compact_interval_ops) {
    ops_since_compact_ = 0;
    LOGLOG_RETURN_IF_ERROR(Compact());
  }
  if (options_.cache_capacity_objects > 0) {
    cache_->EvictTo(options_.cache_capacity_objects);
  }
  return Status::OK();
}

Status RecoveryEngine::Compact() {
  if (compactor_ == nullptr) return Status::OK();
  return compactor_->RunOnce(options_.logstore.compact_batch_objects);
}

Status RecoveryEngine::Checkpoint() {
  ops_since_checkpoint_ = 0;
  // Truncation floor: the oldest active transaction's begin record must
  // stay on the log — its rollback (runtime or as a loser) walks the
  // backchain from there.
  Lsn floor = txn_manager_ != nullptr
                  ? txn_manager_->OldestActiveBeginLsn()
                  : kMaxLsn;
  return cache_->Checkpoint(floor, max_recovered_txn_id_);
}

Status RecoveryEngine::Read(ObjectId id, ObjectValue* out) {
  return cache_->GetValue(id, out);
}

Status RecoveryEngine::ReadView(ObjectId id, Slice* out, uint64_t* stamp) {
  const CachedObject* obj = nullptr;
  LOGLOG_RETURN_IF_ERROR(cache_->PeekValue(id, &obj));
  *out = Slice(obj->value());
  if (stamp != nullptr) *stamp = obj->stamp();
  return Status::OK();
}

bool RecoveryEngine::Exists(ObjectId id) {
  return cache_->ObjectExists(id);
}

}  // namespace loglog
