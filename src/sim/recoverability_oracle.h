#ifndef LOGLOG_SIM_RECOVERABILITY_ORACLE_H_
#define LOGLOG_SIM_RECOVERABILITY_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "ops/operation.h"
#include "storage/stable_store.h"

namespace loglog {

class RecoveryEngine;
struct LogRecord;

/// Outcome of one comparison (all counters cover the whole compared
/// state).
struct DivergenceReport {
  /// The oracle's watermark: the last stable record it has consumed.
  Lsn audited_upto = 0;
  uint64_t objects_expected = 0;
  uint64_t objects_compared = 0;
  uint64_t value_mismatches = 0;
  uint64_t vsi_mismatches = 0;
  uint64_t missing_objects = 0;  // expected but absent
  uint64_t extra_objects = 0;    // present but not expected
  /// Human-readable description of the first divergence found, if any.
  std::string first_divergence;

  bool clean() const {
    return value_mismatches == 0 && vsi_mismatches == 0 &&
           missing_objects == 0 && extra_objects == 0;
  }
  std::string ToString() const;
};

/// Which history an oracle replays.
enum class OracleFeed : uint8_t {
  /// Repeat history: every operation and compensation record at its own
  /// LSN. The recovery theorem says a recovered database equals exactly
  /// this, values and vSIs alike.
  kHistory,
  /// Committed-only: non-transactional operations at their own LSN, a
  /// transaction's forward operations at its stable commit record
  /// (commit order is a serialization order under strict 2PL), loser
  /// operations and compensation records never — a fully compensated
  /// transaction must be invisible. Values only: stored vSIs are those
  /// of the repeated history, compensation included.
  kCommitted,
};

/// \brief Ground truth for every recoverability check: the sequential
/// execution of a stable log history against a plain map — no cache, no
/// log, no recovery machinery.
///
/// The oracle is cumulative. Advance() consumes framed archive bytes
/// past those it has already consumed and applies only records above its
/// LSN watermark, so verifying after each crash costs the new history,
/// not the whole archive, and one oracle follows a failover chain: each
/// promoted node's archive covers the delta since its seed point, which
/// is exactly what the oracle still needs (FollowNewArchive()).
class RecoverabilityOracle {
 public:
  struct Expected {
    ObjectValue value;
    /// LSN of the last operation that wrote the object.
    Lsn last_writer = kInvalidLsn;

    bool operator==(const Expected&) const = default;
  };

  explicit RecoverabilityOracle(OracleFeed feed = OracleFeed::kHistory)
      : feed_(feed) {}

  /// Applies one operation as the write at `lsn` (same transform registry
  /// as the engine) and records `lsn` as each written object's last
  /// writer.
  Status Apply(const OperationDesc& op, Lsn lsn);

  /// Feeds the records of `archive` (framed stable-log bytes) that lie
  /// past the bytes consumed so far, in order, stopping before the first
  /// record above `upto` or at a torn tail. Records at or below the
  /// watermark are consumed but not applied, so an archive overlapping
  /// history already fed is fine. Corruption if `archive` is shorter than
  /// the bytes already consumed: verified history never disappears.
  Status Advance(Slice archive, Lsn upto);

  /// Switches to another node's archive (a promoted standby's): the next
  /// Advance reads it from its first byte.
  void FollowNewArchive() { consumed_ = 0; }

  /// Diffs a fully flushed stable store against the expected state, in
  /// both directions. A stored vSI must equal the object's last writer,
  /// or, with `vsi_ceiling` above it, lie in [last writer, vsi_ceiling].
  /// Always fills *out; Corruption when the report is not clean.
  Status Compare(const StableStore& store, DivergenceReport* out,
                 Lsn vsi_ceiling = kInvalidLsn) const;

  /// Log-store counterpart of Compare: the kLogStore backend never
  /// writes the stable store, so this diffs the engine's read path
  /// (values and vSIs through the log index) and flags index entries with
  /// no expected object as extras. The engine must be quiesced (recovered
  /// + FlushAll) first.
  Status CompareEngineReads(RecoveryEngine* engine, DivergenceReport* out,
                            Lsn vsi_ceiling = kInvalidLsn) const;

  /// The expected state: every live object's value and last writer.
  const std::map<ObjectId, Expected>& expected() const { return expected_; }
  Lsn watermark() const { return watermark_; }
  /// Archive bytes consumed since construction or FollowNewArchive().
  uint64_t consumed() const { return consumed_; }

 private:
  /// Routes one stable record into Apply according to the feed.
  Status Feed(const LogRecord& rec);

  /// The shared body of Compare and CompareEngineReads. `read` returns
  /// NotFound for an absent object; `for_each_id` lists what the
  /// compared side holds.
  template <typename ReadFn, typename ForEachIdFn>
  Status Diff(ReadFn read, ForEachIdFn for_each_id, Lsn vsi_ceiling,
              DivergenceReport* out) const;

  OracleFeed feed_;
  std::map<ObjectId, Expected> expected_;
  /// Committed feed: forward operations of transactions whose commit
  /// record has not been consumed yet, held across Advance calls.
  std::unordered_map<uint64_t, std::vector<OperationDesc>> pending_;
  Lsn watermark_ = kInvalidLsn;
  uint64_t consumed_ = 0;
};

/// One-shot convenience: audit a single node whose archive covers its
/// whole history (NOT valid for backup-seeded standbys, whose archives
/// miss the pre-seed history). vSIs must equal their last writers.
Status RunDivergenceAudit(Slice archive, Lsn upto, const StableStore& store,
                          DivergenceReport* out);

}  // namespace loglog

#endif  // LOGLOG_SIM_RECOVERABILITY_ORACLE_H_
