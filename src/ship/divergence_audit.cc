#include "ship/divergence_audit.h"

#include <utility>
#include <vector>

#include "engine/recovery_engine.h"
#include "ops/function_registry.h"
#include "ops/operation.h"
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

Status DivergenceAuditor::Advance(Slice archive, Lsn upto) {
  while (true) {
    LogRecord rec;
    Status st = ReadFramedRecord(&archive, &rec);
    if (st.IsNotFound()) break;
    if (st.IsCorruption()) break;  // torn archive tail: trust ends here
    LOGLOG_RETURN_IF_ERROR(st);
    // Compensation records are audited like forward operations: the
    // expected state of a rolled-back region is the history *through*
    // the rollback, and both sides replay it identically.
    if (rec.type != RecordType::kOperation &&
        rec.type != RecordType::kCompensation) {
      continue;
    }
    if (rec.lsn <= audited_upto_ || rec.lsn > upto) continue;
    const OperationDesc& op = rec.op;
    if (op.op_class == OpClass::kDelete) {
      expected_.erase(op.writes[0]);
      continue;
    }
    std::vector<ObjectValue> read_values;
    read_values.reserve(op.reads.size());
    for (ObjectId r : op.reads) {
      auto it = expected_.find(r);
      if (it == expected_.end()) {
        return Status::NotFound("audit read of missing object " +
                                std::to_string(r) + " at lsn " +
                                std::to_string(rec.lsn));
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
      e.last_writer = rec.lsn;
    }
  }
  if (upto > audited_upto_) audited_upto_ = upto;
  return Status::OK();
}

Status DivergenceAuditor::Compare(const StableStore& store,
                                  DivergenceReport* out) const {
  *out = DivergenceReport{};
  out->audited_upto = audited_upto_;
  out->objects_expected = expected_.size();
  auto note = [&](std::string what) {
    if (out->first_divergence.empty()) {
      out->first_divergence = std::move(what);
    }
  };
  for (const auto& [id, exp] : expected_) {
    if (!store.Exists(id)) {
      ++out->missing_objects;
      note("object " + std::to_string(id) + " missing (expected vsi " +
           std::to_string(exp.last_writer) + ")");
      continue;
    }
    StoredObject stored;
    LOGLOG_RETURN_IF_ERROR(store.Read(id, &stored));
    ++out->objects_compared;
    if (stored.value != exp.value) {
      ++out->value_mismatches;
      note("object " + std::to_string(id) + " value mismatch (stable " +
           std::to_string(stored.value.size()) + "B vs expected " +
           std::to_string(exp.value.size()) + "B)");
    }
    if (stored.vsi != exp.last_writer) {
      ++out->vsi_mismatches;
      note("object " + std::to_string(id) + " vsi mismatch (stable " +
           std::to_string(stored.vsi) + " vs expected " +
           std::to_string(exp.last_writer) + ")");
    }
  }
  store.ForEach([&](ObjectId id, const StoredObject&) {
    if (!expected_.contains(id)) {
      ++out->extra_objects;
      note("stable store has unexpected object " + std::to_string(id));
    }
  });
  if (!out->clean()) {
    return Status::Corruption(out->ToString());
  }
  return Status::OK();
}

Status DivergenceAuditor::CompareEngineReads(RecoveryEngine* engine,
                                             DivergenceReport* out) const {
  *out = DivergenceReport{};
  out->audited_upto = audited_upto_;
  out->objects_expected = expected_.size();
  auto note = [&](std::string what) {
    if (out->first_divergence.empty()) {
      out->first_divergence = std::move(what);
    }
  };
  for (const auto& [id, exp] : expected_) {
    ObjectValue got;
    Status st = engine->Read(id, &got);
    if (st.IsNotFound()) {
      ++out->missing_objects;
      note("object " + std::to_string(id) + " unreadable (expected vsi " +
           std::to_string(exp.last_writer) + ")");
      continue;
    }
    LOGLOG_RETURN_IF_ERROR(st);
    ++out->objects_compared;
    if (got != exp.value) {
      ++out->value_mismatches;
      note("object " + std::to_string(id) + " value mismatch (read " +
           std::to_string(got.size()) + "B vs expected " +
           std::to_string(exp.value.size()) + "B)");
    }
    Lsn vsi = engine->cache().CurrentVsi(id);
    if (vsi != exp.last_writer) {
      ++out->vsi_mismatches;
      note("object " + std::to_string(id) + " vsi mismatch (read " +
           std::to_string(vsi) + " vs expected " +
           std::to_string(exp.last_writer) + ")");
    }
  }
  const LogIndex* index = engine->log_index();
  if (index != nullptr) {
    for (const IndexCheckpointEntry& e : index->Snapshot()) {
      if (!expected_.contains(e.id)) {
        ++out->extra_objects;
        note("log index has unexpected object " + std::to_string(e.id));
      }
    }
  }
  if (!out->clean()) {
    return Status::Corruption(out->ToString());
  }
  return Status::OK();
}

Status RunDivergenceAudit(Slice archive, Lsn upto, const StableStore& store,
                          DivergenceReport* out) {
  DivergenceAuditor auditor;
  LOGLOG_RETURN_IF_ERROR(auditor.Advance(archive, upto));
  return auditor.Compare(store, out);
}

}  // namespace loglog
