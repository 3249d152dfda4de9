#include "sim/recoverability_oracle.h"

#include <algorithm>
#include <utility>

#include "engine/recovery_engine.h"
#include "ops/function_registry.h"
#include "wal/log_record.h"

namespace loglog {

std::string DivergenceReport::ToString() const {
  std::string s = "divergence audit upto lsn " + std::to_string(audited_upto) +
                  ": " + std::to_string(objects_compared) + "/" +
                  std::to_string(objects_expected) + " objects, " +
                  std::to_string(value_mismatches) + " value / " +
                  std::to_string(vsi_mismatches) + " vsi mismatches, " +
                  std::to_string(missing_objects) + " missing, " +
                  std::to_string(extra_objects) + " extra";
  if (!first_divergence.empty()) s += " — first: " + first_divergence;
  return s;
}

Status RecoverabilityOracle::Apply(const OperationDesc& op, Lsn lsn) {
  if (op.op_class == OpClass::kDelete) {
    expected_.erase(op.writes[0]);
    return Status::OK();
  }
  std::vector<ObjectValue> read_values;
  read_values.reserve(op.reads.size());
  for (ObjectId r : op.reads) {
    auto it = expected_.find(r);
    if (it == expected_.end()) {
      return Status::NotFound("oracle read of missing object " +
                              std::to_string(r) + " at lsn " +
                              std::to_string(lsn));
    }
    read_values.push_back(it->second.value);
  }
  std::vector<ObjectValue> write_values(op.writes.size());
  for (size_t i = 0; i < op.writes.size(); ++i) {
    auto it = expected_.find(op.writes[i]);
    if (it != expected_.end()) write_values[i] = it->second.value;
  }
  LOGLOG_RETURN_IF_ERROR(
      FunctionRegistry::Global().Apply(op, read_values, &write_values));
  for (size_t i = 0; i < op.writes.size(); ++i) {
    Expected& e = expected_[op.writes[i]];
    e.value = std::move(write_values[i]);
    e.last_writer = lsn;
  }
  return Status::OK();
}

Status RecoverabilityOracle::Feed(const LogRecord& rec) {
  if (feed_ == OracleFeed::kHistory) {
    // Compensation records are history like any other operation: repeat
    // history replays straight through rollbacks.
    if (rec.type == RecordType::kOperation ||
        rec.type == RecordType::kCompensation) {
      return Apply(rec.op, rec.lsn);
    }
    return Status::OK();
  }
  switch (rec.type) {
    case RecordType::kOperation:
      // An identity write (W_IP) re-logs an object's cache value so it can
      // be installed; it never changes the value, but the value it
      // carries may embed an uncommitted effect.
      if (rec.op.op_class == OpClass::kIdentityWrite) return Status::OK();
      if (rec.txn_id == 0) return Apply(rec.op, rec.lsn);
      pending_[rec.txn_id].push_back(rec.op);
      return Status::OK();
    case RecordType::kTxnCommit: {
      // Commit is decided by the stable record alone: a torn commit whose
      // record survived the tear *is* a commit (recovery sees it the same
      // way), one whose record was lost is a loser.
      auto it = pending_.find(rec.txn_id);
      if (it == pending_.end()) return Status::OK();
      for (const OperationDesc& op : it->second) {
        LOGLOG_RETURN_IF_ERROR(Apply(op, rec.lsn));
      }
      pending_.erase(it);
      return Status::OK();
    }
    case RecordType::kTxnAbort:
      pending_.erase(rec.txn_id);
      return Status::OK();
    default:
      return Status::OK();
  }
}

Status RecoverabilityOracle::Advance(Slice archive, Lsn upto) {
  if (archive.size() < consumed_) {
    return Status::Corruption(
        "oracle archive shrank to " + std::to_string(archive.size()) +
        " bytes below the " + std::to_string(consumed_) + " already consumed");
  }
  Slice rest(archive.data() + consumed_, archive.size() - consumed_);
  while (!rest.empty()) {
    const size_t before = rest.size();
    LogRecord rec;
    // A torn tail ends what can be trusted; the caller decides whether an
    // unconsumed remainder is acceptable.
    if (!ReadFramedRecord(&rest, &rec).ok() || rec.lsn > upto) break;
    consumed_ += before - rest.size();
    if (rec.lsn <= watermark_) continue;
    watermark_ = rec.lsn;
    LOGLOG_RETURN_IF_ERROR(Feed(rec));
  }
  return Status::OK();
}

template <typename ReadFn, typename ForEachIdFn>
Status RecoverabilityOracle::Diff(ReadFn read, ForEachIdFn for_each_id,
                                  Lsn vsi_ceiling,
                                  DivergenceReport* out) const {
  *out = DivergenceReport{};
  out->audited_upto = watermark_;
  out->objects_expected = expected_.size();
  auto note = [&](std::string what) {
    if (out->first_divergence.empty()) {
      out->first_divergence = std::move(what);
    }
  };
  for (const auto& [id, exp] : expected_) {
    ObjectValue got;
    Lsn vsi = kInvalidLsn;
    Status st = read(id, &got, &vsi);
    if (st.IsNotFound()) {
      ++out->missing_objects;
      note("object " + std::to_string(id) + " missing (last writer " +
           std::to_string(exp.last_writer) + ")");
      continue;
    }
    LOGLOG_RETURN_IF_ERROR(st);
    ++out->objects_compared;
    if (got != exp.value) {
      ++out->value_mismatches;
      note("object " + std::to_string(id) + " value mismatch (stored " +
           std::to_string(got.size()) + "B vs expected " +
           std::to_string(exp.value.size()) + "B)");
    }
    const Lsn hi = std::max(exp.last_writer, vsi_ceiling);
    if (feed_ == OracleFeed::kHistory &&
        (vsi < exp.last_writer || vsi > hi)) {
      ++out->vsi_mismatches;
      note("object " + std::to_string(id) + " vsi " + std::to_string(vsi) +
           " outside [" + std::to_string(exp.last_writer) + ", " +
           std::to_string(hi) + "]");
    }
  }
  for_each_id([&](ObjectId id) {
    if (!expected_.contains(id)) {
      ++out->extra_objects;
      note("unexpected object " + std::to_string(id));
    }
  });
  if (!out->clean()) return Status::Corruption(out->ToString());
  return Status::OK();
}

Status RecoverabilityOracle::Compare(const StableStore& store,
                                     DivergenceReport* out,
                                     Lsn vsi_ceiling) const {
  return Diff(
      [&](ObjectId id, ObjectValue* value, Lsn* vsi) {
        if (!store.Exists(id)) return Status::NotFound("not in store");
        StoredObject stored;
        LOGLOG_RETURN_IF_ERROR(store.Read(id, &stored));
        *value = std::move(stored.value);
        *vsi = stored.vsi;
        return Status::OK();
      },
      [&](auto&& visit) {
        store.ForEach([&](ObjectId id, const StoredObject&) { visit(id); });
      },
      vsi_ceiling, out);
}

Status RecoverabilityOracle::CompareEngineReads(RecoveryEngine* engine,
                                                DivergenceReport* out,
                                                Lsn vsi_ceiling) const {
  return Diff(
      [&](ObjectId id, ObjectValue* value, Lsn* vsi) {
        LOGLOG_RETURN_IF_ERROR(engine->Read(id, value));
        *vsi = engine->cache().CurrentVsi(id);
        return Status::OK();
      },
      [&](auto&& visit) {
        if (const LogIndex* index = engine->log_index()) {
          for (const IndexCheckpointEntry& e : index->Snapshot()) visit(e.id);
        }
      },
      vsi_ceiling, out);
}

Status RunDivergenceAudit(Slice archive, Lsn upto, const StableStore& store,
                          DivergenceReport* out) {
  RecoverabilityOracle oracle;
  LOGLOG_RETURN_IF_ERROR(oracle.Advance(archive, upto));
  return oracle.Compare(store, out);
}

}  // namespace loglog
