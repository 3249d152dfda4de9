#include "wal/log_dump.h"

#include <cstdio>

#include "obs/json.h"
#include "wal/log_record.h"

namespace loglog {

const char* LogDumpSummary::ClassName(int op_class) {
  switch (static_cast<OpClass>(op_class)) {
    case OpClass::kPhysical:
      return "physical";
    case OpClass::kPhysiological:
      return "physiological";
    case OpClass::kLogical:
      return "logical";
    case OpClass::kIdentityWrite:
      return "identity";
    case OpClass::kCreate:
      return "create";
    case OpClass::kDelete:
      return "delete";
  }
  return "?";
}

std::string LogDumpSummary::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "records=%llu ops=%llu(%llub) identity=%llu(%llub) ckpt=%llu(%llub) "
      "install=%llu(%llub) flush_txn=%llu+%llu(%llub) bytes=%llu",
      static_cast<unsigned long long>(total()),
      static_cast<unsigned long long>(operations),
      static_cast<unsigned long long>(operation_bytes),
      static_cast<unsigned long long>(identity_writes),
      static_cast<unsigned long long>(identity_write_bytes),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(checkpoint_bytes),
      static_cast<unsigned long long>(installs),
      static_cast<unsigned long long>(install_bytes),
      static_cast<unsigned long long>(flush_txn_begins),
      static_cast<unsigned long long>(flush_txn_commits),
      static_cast<unsigned long long>(flush_txn_bytes),
      static_cast<unsigned long long>(payload_bytes));
  std::string out = buf;
  if (txn_begins + txn_commits + txn_aborts + compensations > 0) {
    std::snprintf(buf, sizeof(buf),
                  " txn=%llu/%llu/%llu(%llub) clr=%llu(%llub)",
                  static_cast<unsigned long long>(txn_begins),
                  static_cast<unsigned long long>(txn_commits),
                  static_cast<unsigned long long>(txn_aborts),
                  static_cast<unsigned long long>(txn_marker_bytes),
                  static_cast<unsigned long long>(compensations),
                  static_cast<unsigned long long>(compensation_bytes));
    out += buf;
  }
  if (policy_decisions > 0) {
    std::snprintf(buf, sizeof(buf), " policy=%llu(%llub)",
                  static_cast<unsigned long long>(policy_decisions),
                  static_cast<unsigned long long>(policy_bytes));
    out += buf;
  }
  if (index_bases + index_deltas > 0) {
    std::snprintf(buf, sizeof(buf),
                  " index_base=%llu(%llub) index_delta=%llu(%llub)",
                  static_cast<unsigned long long>(index_bases),
                  static_cast<unsigned long long>(index_base_bytes),
                  static_cast<unsigned long long>(index_deltas),
                  static_cast<unsigned long long>(index_delta_bytes));
    out += buf;
  }
  if (torn_tail) {
    std::snprintf(buf, sizeof(buf), " torn_tail(after_lsn=%llu offset=%llu)",
                  static_cast<unsigned long long>(torn_tail_lsn),
                  static_cast<unsigned long long>(torn_tail_offset));
    out += buf;
  }
  return out;
}

std::string LogDumpSummary::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("records").Uint(total());
  w.Key("operations").Uint(operations);
  w.Key("operation_bytes").Uint(operation_bytes);
  w.Key("identity_writes").Uint(identity_writes);
  w.Key("identity_write_bytes").Uint(identity_write_bytes);
  w.Key("checkpoints").Uint(checkpoints);
  w.Key("checkpoint_bytes").Uint(checkpoint_bytes);
  w.Key("installs").Uint(installs);
  w.Key("install_bytes").Uint(install_bytes);
  w.Key("flush_txn_begins").Uint(flush_txn_begins);
  w.Key("flush_txn_commits").Uint(flush_txn_commits);
  w.Key("flush_txn_bytes").Uint(flush_txn_bytes);
  w.Key("policy_decisions").Uint(policy_decisions);
  w.Key("policy_bytes").Uint(policy_bytes);
  w.Key("txn_begins").Uint(txn_begins);
  w.Key("txn_commits").Uint(txn_commits);
  w.Key("txn_aborts").Uint(txn_aborts);
  w.Key("txn_abort_rate_pct").Double(abort_rate_pct());
  w.Key("txn_marker_bytes").Uint(txn_marker_bytes);
  w.Key("compensations").Uint(compensations);
  w.Key("compensation_bytes").Uint(compensation_bytes);
  w.Key("index_bases").Uint(index_bases);
  w.Key("index_base_bytes").Uint(index_base_bytes);
  w.Key("index_deltas").Uint(index_deltas);
  w.Key("index_delta_bytes").Uint(index_delta_bytes);
  w.Key("payload_bytes").Uint(payload_bytes);
  w.Key("class_mix");
  w.BeginObject();
  for (int c = 0; c < kNumClasses; ++c) {
    w.Key(ClassName(c));
    w.BeginObject();
    w.Key("count").Uint(class_counts[c]);
    w.Key("bytes").Uint(class_bytes[c]);
    const double pct = payload_bytes == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(class_bytes[c]) /
                                 static_cast<double>(payload_bytes);
    w.Key("pct").Double(pct);
    w.EndObject();
  }
  w.EndObject();
  w.Key("torn_tail").Bool(torn_tail);
  if (torn_tail) {
    w.Key("torn_tail_lsn").Uint(torn_tail_lsn);
    w.Key("torn_tail_offset").Uint(torn_tail_offset);
  }
  w.EndObject();
  return w.Take();
}

std::string LogDumpSummary::ClassMixToString() const {
  std::string out = "class mix (operation records, % of log payload):\n";
  char buf[128];
  for (int c = 0; c < kNumClasses; ++c) {
    if (class_counts[c] == 0) continue;
    const double pct = payload_bytes == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(class_bytes[c]) /
                                 static_cast<double>(payload_bytes);
    std::snprintf(buf, sizeof(buf), "  %-13s %8llu  %10llub  %5.1f%%\n",
                  ClassName(c),
                  static_cast<unsigned long long>(class_counts[c]),
                  static_cast<unsigned long long>(class_bytes[c]), pct);
    out += buf;
  }
  if (policy_decisions > 0) {
    const double pct = payload_bytes == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(policy_bytes) /
                                 static_cast<double>(payload_bytes);
    std::snprintf(buf, sizeof(buf), "  %-13s %8llu  %10llub  %5.1f%%\n",
                  "policy", static_cast<unsigned long long>(policy_decisions),
                  static_cast<unsigned long long>(policy_bytes), pct);
    out += buf;
  }
  if (compensations > 0) {
    const double pct = payload_bytes == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(compensation_bytes) /
                                 static_cast<double>(payload_bytes);
    std::snprintf(buf, sizeof(buf), "  %-13s %8llu  %10llub  %5.1f%%\n",
                  "compensation",
                  static_cast<unsigned long long>(compensations),
                  static_cast<unsigned long long>(compensation_bytes), pct);
    out += buf;
  }
  if (txn_begins + txn_commits + txn_aborts > 0) {
    std::snprintf(buf, sizeof(buf),
                  "transactions: begun=%llu committed=%llu aborted=%llu "
                  "abort_rate=%.1f%% marker_bytes=%llu\n",
                  static_cast<unsigned long long>(txn_begins),
                  static_cast<unsigned long long>(txn_commits),
                  static_cast<unsigned long long>(txn_aborts),
                  abort_rate_pct(),
                  static_cast<unsigned long long>(txn_marker_bytes));
    out += buf;
  }
  return out;
}

Status DumpLog(Slice log_bytes, std::string* out, LogDumpSummary* summary) {
  *summary = LogDumpSummary();
  const size_t total_bytes = log_bytes.size();
  Lsn last_valid_lsn = 0;
  while (true) {
    const uint64_t record_offset = total_bytes - log_bytes.size();
    LogRecord rec;
    Status st = ReadFramedRecord(&log_bytes, &rec);
    if (st.IsNotFound()) break;
    if (st.IsCorruption()) {
      summary->torn_tail = true;
      summary->torn_tail_lsn = last_valid_lsn;
      summary->torn_tail_offset = record_offset;
      if (out != nullptr) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "-- torn tail after lsn=%llu at offset=%llu\n",
                      static_cast<unsigned long long>(last_valid_lsn),
                      static_cast<unsigned long long>(record_offset));
        out->append(buf);
      }
      break;
    }
    LOGLOG_RETURN_IF_ERROR(st);
    const uint64_t encoded = rec.EncodedSize();
    switch (rec.type) {
      case RecordType::kOperation: {
        ++summary->operations;
        summary->operation_bytes += encoded;
        if (rec.op.op_class == OpClass::kIdentityWrite) {
          ++summary->identity_writes;
          summary->identity_write_bytes += encoded;
        }
        const int cls = static_cast<int>(rec.op.op_class);
        if (cls >= 0 && cls < LogDumpSummary::kNumClasses) {
          ++summary->class_counts[cls];
          summary->class_bytes[cls] += encoded;
        }
        break;
      }
      case RecordType::kCheckpoint:
        ++summary->checkpoints;
        summary->checkpoint_bytes += encoded;
        break;
      case RecordType::kInstall:
        ++summary->installs;
        summary->install_bytes += encoded;
        break;
      case RecordType::kFlushTxnBegin:
        ++summary->flush_txn_begins;
        summary->flush_txn_bytes += encoded;
        break;
      case RecordType::kFlushTxnCommit:
        ++summary->flush_txn_commits;
        summary->flush_txn_bytes += encoded;
        break;
      case RecordType::kPolicyDecision:
        ++summary->policy_decisions;
        summary->policy_bytes += encoded;
        break;
      case RecordType::kTxnBegin:
        ++summary->txn_begins;
        summary->txn_marker_bytes += encoded;
        break;
      case RecordType::kTxnCommit:
        ++summary->txn_commits;
        summary->txn_marker_bytes += encoded;
        break;
      case RecordType::kTxnAbort:
        ++summary->txn_aborts;
        summary->txn_marker_bytes += encoded;
        break;
      case RecordType::kCompensation:
        ++summary->compensations;
        summary->compensation_bytes += encoded;
        break;
      case RecordType::kIndexCheckpoint:
        if (rec.ref_lsn == kInvalidLsn) {
          ++summary->index_bases;
          summary->index_base_bytes += encoded;
        } else {
          ++summary->index_deltas;
          summary->index_delta_bytes += encoded;
        }
        break;
    }
    summary->payload_bytes += encoded;
    last_valid_lsn = rec.lsn;
    if (out != nullptr) {
      out->append(rec.DebugString());
      out->push_back('\n');
    }
  }
  return Status::OK();
}

}  // namespace loglog
