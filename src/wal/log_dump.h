#ifndef LOGLOG_WAL_LOG_DUMP_H_
#define LOGLOG_WAL_LOG_DUMP_H_

#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace loglog {

/// Per-record-type tallies of a log dump.
struct LogDumpSummary {
  uint64_t operations = 0;
  uint64_t checkpoints = 0;
  uint64_t installs = 0;
  uint64_t flush_txn_begins = 0;
  uint64_t flush_txn_commits = 0;
  uint64_t payload_bytes = 0;
  /// W_IP records among `operations` (Section 4's cache-management log
  /// traffic) and their payload bytes — the log volume the identity-write
  /// policy pays to avoid atomic flushes.
  uint64_t identity_writes = 0;
  uint64_t identity_write_bytes = 0;
  /// Encoded payload bytes by record type (same order of magnitude
  /// question as Section 4's "Comparing Costs": where does log volume go?).
  uint64_t operation_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t install_bytes = 0;
  uint64_t flush_txn_bytes = 0;
  /// Per-logging-class breakdown of the `operations` records, indexed by
  /// OpClass (W_P, W_PL, W_L, W_IP, create, delete) — the class mix the
  /// adaptive policy produced (`loglog_inspect --class-mix`).
  static constexpr int kNumClasses = 6;
  uint64_t class_counts[kNumClasses] = {};
  uint64_t class_bytes[kNumClasses] = {};
  /// kPolicyDecision control records and their payload bytes.
  uint64_t policy_decisions = 0;
  uint64_t policy_bytes = 0;
  /// Transaction markers (begin/commit/abort) and their payload bytes.
  uint64_t txn_begins = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
  uint64_t txn_marker_bytes = 0;
  /// kCompensation (logical UNDO) records and their payload bytes — the
  /// log volume rollback pays.
  uint64_t compensations = 0;
  uint64_t compensation_bytes = 0;
  /// kIndexCheckpoint control records (log-as-database backend) and their
  /// payload bytes, bases (the whole index) and deltas (what changed
  /// since the previous one) apart — what bounding logstore restart cost
  /// costs on the log.
  uint64_t index_bases = 0;
  uint64_t index_base_bytes = 0;
  uint64_t index_deltas = 0;
  uint64_t index_delta_bytes = 0;
  bool torn_tail = false;
  /// LSN of the last fully-valid record before the tear (0 when the tear
  /// precedes any valid record; meaningless unless torn_tail).
  Lsn torn_tail_lsn = 0;
  /// Byte offset into the dumped stream where the torn bytes begin
  /// (meaningless unless torn_tail).
  uint64_t torn_tail_offset = 0;

  uint64_t total() const {
    return operations + checkpoints + installs + flush_txn_begins +
           flush_txn_commits + policy_decisions + txn_begins + txn_commits +
           txn_aborts + compensations + index_bases + index_deltas;
  }

  /// Aborted fraction of resolved transactions, in percent (0 when no
  /// transaction ever resolved).
  double abort_rate_pct() const {
    const uint64_t resolved = txn_commits + txn_aborts;
    return resolved == 0 ? 0.0
                         : 100.0 * static_cast<double>(txn_aborts) /
                               static_cast<double>(resolved);
  }

  /// Display name of an OpClass slot ("physical", "physiological", ...).
  static const char* ClassName(int op_class);

  std::string ToString() const;
  /// One flat JSON object, keys matching the ToString() fields, plus a
  /// "class_mix" sub-object with per-class {count, bytes, pct}.
  std::string ToJson() const;
  /// Multi-line per-class table (count, bytes, % of payload bytes) for
  /// `loglog_inspect --class-mix`.
  std::string ClassMixToString() const;
};

/// \brief Human-readable dump of a framed log byte stream — the
/// operational "what is on my log?" tool.
///
/// Appends one line per record to `out` (skipped when out == nullptr, so
/// the function doubles as a validating scan) and tallies a summary.
/// Stops cleanly at a torn tail, reporting where (offset) and after what
/// (LSN) the tear begins — both in the summary and, when out != nullptr,
/// as a trailing `-- torn tail ...` line.
Status DumpLog(Slice log_bytes, std::string* out, LogDumpSummary* summary);

}  // namespace loglog

#endif  // LOGLOG_WAL_LOG_DUMP_H_
