#ifndef LOGLOG_WAL_LOG_RECORD_H_
#define LOGLOG_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "ops/operation.h"

namespace loglog {

/// Kinds of records on the recovery log.
enum class RecordType : uint8_t {
  /// A logged operation (Figure 1 forms). The only record the WAL
  /// protocol requires before installation.
  kOperation = 1,
  /// ARIES-style checkpoint: snapshot of the dirty object table with the
  /// rSI of every dirty object (Section 5 "Logging and Recovery using
  /// rSI's").
  kCheckpoint = 2,
  /// Installation of a write-graph node: identifies vars(n) and Notx(n)
  /// and their advanced rSIs. Lazily logged after the flush; the analysis
  /// pass uses it to advance rSIs / remove clean objects (Section 5).
  kInstall = 3,
  /// Flush transaction begin: carries the frozen values of the objects
  /// being atomically flushed (Section 4 "Atomic Flush", technique 2).
  kFlushTxnBegin = 4,
  /// Flush transaction commit; the atomic point of the flush transaction.
  kFlushTxnCommit = 5,
  /// Adaptive-policy class change for one object (src/adapt/): which
  /// logging class (LogChoice) subsequent writes of the object use, and
  /// the cost-model inputs behind the flip. A control record — redo
  /// ignores it; analysis rebuilds the class mix from the last decision
  /// per object so recovery reseeds the policy it crashed with.
  kPolicyDecision = 6,
  /// User-transaction begin (src/engine/txn_manager.h). Anchors the
  /// per-transaction prev-LSN backchain; a txn with a begin but no
  /// commit/abort at crash is a loser and is rolled back by recovery.
  kTxnBegin = 7,
  /// User-transaction commit. Forced before Commit() returns — the
  /// durability point of the transaction.
  kTxnCommit = 8,
  /// User-transaction rollback complete (the ARIES "end" of an aborted
  /// txn). Never forced: re-running an already-finished rollback is
  /// idempotent, so abort durability is free.
  kTxnAbort = 9,
  /// Compensation log record (CLR): one logged+executed inverse step of a
  /// rollback. Carries the inverse as an ordinary OperationDesc so REDO
  /// repeats history through rollbacks, plus undo_next_lsn/undo_skip so a
  /// crash mid-rollback resumes exactly after the last stable CLR. CLRs
  /// are never themselves undone.
  kCompensation = 10,
  /// Log-as-database index checkpoint (src/logstore/). A *base* holds
  /// the complete LogIndex — object id -> (LSN, device offset, framed
  /// size) of the last full-image record — frozen at checkpoint time; a
  /// *delta* holds only the entries published or erased since the
  /// previous index checkpoint, plus the LSN of the base it extends
  /// (ref_lsn). A control record: redo ignores it; recovery's index
  /// rebuild resets to each base it sees, applies the deltas after it
  /// and overlays later records, so restart cost is bounded by the
  /// interval between bases and index entries may point below the
  /// truncation horizon (into the cold tier).
  kIndexCheckpoint = 11,
};

/// One dirty-object-table entry in a checkpoint record.
struct DotEntry {
  ObjectId id = kInvalidObjectId;
  /// lSI of the earliest uninstalled operation writing the object.
  Lsn rsi = kInvalidLsn;
  /// True when the object's last update is an uninstalled delete (its
  /// lifetime has ended; Section 5's transient-object optimization).
  bool dead = false;
};

/// One object in an install record: the object and its advanced rSI.
/// rsi == kInvalidLsn means the object has no uninstalled writers left
/// (analysis removes it from the dirty object table).
struct InstallEntry {
  ObjectId id = kInvalidObjectId;
  Lsn rsi = kInvalidLsn;
};

/// One LogIndex entry frozen into a kIndexCheckpoint record: where the
/// object's last full-image record lives on the log device. In a delta,
/// size == 0 marks an erased id (a framed record is never 0 bytes).
struct IndexCheckpointEntry {
  ObjectId id = kInvalidObjectId;
  /// LSN of the full-image record (also the object's vSI).
  Lsn lsn = kInvalidLsn;
  /// Absolute device offset of the framed record.
  uint64_t offset = 0;
  /// Framed size (header + payload) of the record; 0 for an erasure.
  uint64_t size = 0;

  bool erased() const { return size == 0; }
};

/// One object value frozen into a flush-transaction begin record.
struct FlushValue {
  ObjectId id = kInvalidObjectId;
  Lsn vsi = kInvalidLsn;
  std::vector<uint8_t> value;
  bool erase = false;
};

/// Before-image of one write slot of an in-transaction operation, logged
/// when the op has no registered logical inverse (then compensation must
/// restore physically — including the adaptive policy's W_P promotions).
struct UndoImage {
  /// False when the object did not exist before the op (undo deletes it).
  bool exists = false;
  std::vector<uint8_t> value;
};

/// \brief A single log record (tagged union over RecordType).
struct LogRecord {
  RecordType type = RecordType::kOperation;
  Lsn lsn = kInvalidLsn;

  // kOperation and kCompensation
  OperationDesc op;

  // Transaction header: set on kTxnBegin/kTxnCommit/kTxnAbort/
  // kCompensation and on kOperation records executed inside a
  // transaction. txn_id == 0 means non-transactional; such kOperation
  // records encode byte-identically to the pre-transaction format.
  // On kCheckpoint it is not a transaction but the id high-water mark
  // at checkpoint time (0 if no transaction ever ran), so id
  // allocation stays monotone after truncation discards txn records.
  uint64_t txn_id = 0;
  /// LSN of this transaction's previous record (kInvalidLsn at the head
  /// of the backchain, i.e. on kTxnBegin).
  Lsn prev_lsn = kInvalidLsn;

  // kCompensation: rollback cursor. undo_next_lsn is the next forward
  // record to undo once this CLR is stable (kInvalidLsn when rollback is
  // done bar the kTxnAbort); undo_skip counts how many of that record's
  // writes (from the last one backwards) are already compensated, so
  // multi-write operations roll back one write per CLR, restartably.
  Lsn undo_next_lsn = kInvalidLsn;
  uint64_t undo_skip = 0;

  // kOperation in-txn: captured before-images, parallel to op.writes
  // (empty when the op's FuncId has a registered logical inverse and
  // images are unnecessary).
  std::vector<UndoImage> undo_images;

  // kCheckpoint
  std::vector<DotEntry> dot;

  // kInstall: objects flushed (vars(n)) and merely installed (Notx(n)).
  std::vector<InstallEntry> installed_vars;
  std::vector<InstallEntry> installed_notx;

  // kFlushTxnBegin
  std::vector<FlushValue> flush_values;

  // kIndexCheckpoint
  std::vector<IndexCheckpointEntry> index_entries;

  // kFlushTxnCommit: lsn of the matching begin record. kIndexCheckpoint:
  // the base a delta extends (kInvalidLsn on a base).
  Lsn ref_lsn = kInvalidLsn;

  // kPolicyDecision: one adaptive-policy class change. Class / reason
  // bytes are adapt/log_choice.h's LogChoice and PolicyReason values;
  // kept as raw bytes here so the codec stays policy-agnostic.
  struct PolicyPayload {
    ObjectId object = kInvalidObjectId;
    uint8_t new_class = 0;
    uint8_t prev_class = 0;
    uint8_t reason = 0;
    /// Model inputs at decision time: rW dependency weight of the
    /// object's node and the EWMA value-size estimate.
    uint64_t chain_depth = 0;
    uint64_t ewma_size = 0;
  } policy;

  void EncodeTo(std::vector<uint8_t>* dst) const;
  static Status DecodeFrom(Slice* src, LogRecord* out);

  /// Encoded payload size (the record's logging cost, before framing).
  size_t EncodedSize() const;

  std::string DebugString() const;
};

/// Exact body sizes and raw-buffer encoders for the hot record shapes,
/// used by LogManager's reserve+fill append path: the "body" is the
/// record payload after the type byte and LSN varint (which the manager
/// writes itself, since it assigns the LSN at reserve time). Each
/// Encode*Body must produce exactly the bytes LogRecord::EncodeTo emits
/// for the same fields — byte-identical logs are asserted by
/// wal_hot_path_test.
size_t EncodedOperationBodySize(const OperationDesc& op, uint64_t txn_id,
                                Lsn prev_lsn,
                                const std::vector<UndoImage>& undo_images);
uint8_t* EncodeOperationBody(uint8_t* dst, const OperationDesc& op,
                             uint64_t txn_id, Lsn prev_lsn,
                             const std::vector<UndoImage>& undo_images);

size_t EncodedTxnMarkerBodySize(uint64_t txn_id, Lsn prev_lsn);
uint8_t* EncodeTxnMarkerBody(uint8_t* dst, uint64_t txn_id, Lsn prev_lsn);

size_t EncodedCompensationBodySize(const OperationDesc& op, uint64_t txn_id,
                                   Lsn prev_lsn, Lsn undo_next_lsn,
                                   uint64_t undo_skip);
uint8_t* EncodeCompensationBody(uint8_t* dst, const OperationDesc& op,
                                uint64_t txn_id, Lsn prev_lsn,
                                Lsn undo_next_lsn, uint64_t undo_skip);

/// Frames a record payload for the device: fixed32 length, fixed32 CRC32C,
/// payload.
void FrameRecord(const LogRecord& rec, std::vector<uint8_t>* dst);

/// Reads one framed record from `src`. Returns:
///  - OK and advances src past the record;
///  - NotFound when src is empty (clean end of log);
///  - Corruption when bytes remain but do not form a whole valid record
///    (torn tail — recovery treats this as end of log).
Status ReadFramedRecord(Slice* src, LogRecord* out);

}  // namespace loglog

#endif  // LOGLOG_WAL_LOG_RECORD_H_
