#ifndef LOGLOG_WAL_LOG_MANAGER_H_
#define LOGLOG_WAL_LOG_MANAGER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "cache/policies.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/simulated_disk.h"
#include "wal/log_record.h"

namespace loglog {

/// \brief The write-ahead log: volatile buffer in front of the stable log
/// device.
///
/// Appends go to a volatile buffer (lost in a crash); Force(lsn) makes all
/// records up to lsn stable, which is the WAL obligation the cache manager
/// discharges before flushing objects. LSNs are assigned densely starting
/// from 1 (or from wherever a recovered log left off) and double as state
/// identifiers (lSI / vSI / rSI).
///
/// Hot path layout: the volatile buffer is a single byte arena holding
/// already-framed records ([fixed32 len][fixed32 crc][payload], dense).
/// Appends encode directly into the arena — no intermediate LogRecord
/// buffering, no per-record heap allocation once the arena is warm. Two
/// append flavors:
///  - Append(LogRecord): compatibility wrapper; encodes the record
///    straight into the arena under the manager lock.
///  - AppendReserve/AppendCommit (and the typed AppendOperation /
///    AppendTxnMarker / AppendCompensation built on them): reserve an
///    exactly-sized span under the lock, fill and checksum it outside
///    the lock, commit. This is the zero-copy multi-producer path.
/// Both produce byte-identical frames (same encoders, same CRC).
///
/// Forces are an io_uring-style submit/reap pair: SubmitForce stages a
/// batch on the device completion queue and returns; WaitStable reaps at
/// the durability point, so simulated device latency overlaps with
/// execution. Force = SubmitForce + WaitStable keeps the old blocking
/// contract. set_async_submit(n) makes appends auto-submit whenever n
/// unsubmitted bytes accumulate, which is where the overlap win comes
/// from without touching call sites.
///
/// The ForcePolicy decides how much of the buffer one force pushes:
/// kImmediate appends exactly the requested prefix; kGroup appends the
/// whole buffer so one device append discharges every pending obligation
/// (group commit — later forces for the coalesced records are no-ops);
/// kSizeThreshold extends past the request only while the batch stays
/// under a byte budget. Forcing more than asked is always WAL-safe:
/// stability is monotone.
///
/// All public methods are thread-safe.
class LogManager {
 public:
  explicit LogManager(StableLogDevice* device);

  /// Submitted-but-unreaped forces are volatile (the completion queue is
  /// host memory): they die with the manager, exactly like the buffer. A
  /// crash between submit and reap therefore loses the whole submission.
  ~LogManager() { device_->AbandonStaged(); }

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Appends a record to the volatile buffer, assigning and returning its
  /// LSN (rec.lsn is overwritten).
  Lsn Append(LogRecord rec);

  /// Standby-side append: keeps the record's primary-assigned LSN instead
  /// of assigning a fresh one, and resumes the counter at lsn + 1 so the
  /// standby's state identifiers stay equal to the primary's. Records
  /// must arrive in ascending LSN order past everything already appended
  /// (the log shipper delivers the primary's log order, and the applier's
  /// watermark filters duplicates before they reach here).
  Lsn AppendReplicated(LogRecord rec);

  /// A reserved, not-yet-committed record slot in the arena. The manager
  /// has already written the frame length, the record type, and the LSN;
  /// the caller fills exactly [body, body + body_size) and commits.
  /// `payload_size` is the full record payload (type + lsn + body), i.e.
  /// what LogRecord::EncodedSize() would report — callers use it for
  /// logging-cost accounting without a second encode.
  struct Reservation {
    Lsn lsn = kInvalidLsn;
    uint8_t* body = nullptr;
    size_t body_size = 0;
    size_t payload_size = 0;

   private:
    friend class LogManager;
    uint8_t* frame = nullptr;  // frame start (len/crc header)
    void* entry = nullptr;     // owning PendingRecord
  };

  /// Reserves an exactly-sized slot for a record whose body (payload
  /// after the type byte and LSN varint) is body_size bytes. The span
  /// stays valid until AppendCommit; the arena never reallocates while
  /// fills are outstanding. Fill + commit promptly: a force that needs
  /// this LSN blocks until the slot is committed.
  Reservation AppendReserve(RecordType type, size_t body_size);

  /// Checksums the filled frame and publishes it to the force path.
  void AppendCommit(const Reservation& r);

  /// Typed zero-copy appenders for the hot record shapes: exact-size
  /// reserve, raw-buffer fill, commit — no LogRecord is constructed and
  /// nothing is copied. If payload_size is non-null it receives the
  /// record's encoded payload size (the logging cost).
  Lsn AppendOperation(const OperationDesc& op, uint64_t txn_id, Lsn prev_lsn,
                      const std::vector<UndoImage>& undo_images,
                      size_t* payload_size = nullptr);
  Lsn AppendTxnMarker(RecordType type, uint64_t txn_id, Lsn prev_lsn,
                      size_t* payload_size = nullptr);
  Lsn AppendCompensation(const OperationDesc& op, uint64_t txn_id,
                         Lsn prev_lsn, Lsn undo_next_lsn, uint64_t undo_skip,
                         size_t* payload_size = nullptr);

  /// Forces all buffered records with lsn <= upto to the stable device
  /// (one device force), plus whatever extra the ForcePolicy coalesces
  /// in. No-op if they are already stable. Records are acknowledged
  /// (last_stable_lsn advances, the buffer drains) only when the device
  /// confirms the append; transient device errors are retried a bounded
  /// number of times, and a torn append (Aborted) poisons the manager —
  /// the system must crash and recover, since the device tail no longer
  /// matches the volatile state. Equivalent to SubmitForce + WaitStable.
  Status Force(Lsn upto);

  /// Forces the entire volatile buffer.
  Status ForceAll();

  /// Stages the policy-selected batch covering `upto` on the device
  /// completion queue and returns without waiting for durability.
  /// Nothing is acknowledged until WaitStable reaps the completion. The
  /// fault::kLogForce site fires here (at submit); device-side
  /// fault::kLogAppend faults fire at completion.
  Status SubmitForce(Lsn upto);

  /// Reaps staged completions until every record with lsn <= upto is
  /// stable (or no staged force can make it so). Acknowledgement,
  /// retries, and poisoning semantics are identical to the old blocking
  /// Force.
  Status WaitStable(Lsn upto);

  /// Enables eager submission: whenever `bytes` of committed,
  /// unsubmitted records accumulate, appends auto-submit a force so the
  /// device works while execution continues. 0 (default) disables.
  void set_async_submit(size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    async_submit_bytes_ = bytes;
  }

  /// Forces staged on the device but not yet reaped.
  size_t in_flight_forces() const {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_.size();
  }

  /// Selects how Force batches obligations onto device appends.
  /// `group_bytes` is the batch budget for kSizeThreshold (ignored by
  /// the other policies).
  void set_force_policy(ForcePolicy policy, size_t group_bytes = 1 << 16) {
    std::lock_guard<std::mutex> lock(mu_);
    force_policy_ = policy;
    group_bytes_ = group_bytes;
  }
  ForcePolicy force_policy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return force_policy_;
  }

  /// Records made stable beyond what their Force call asked for (the
  /// group-commit coalescing win; 0 under kImmediate).
  uint64_t records_coalesced() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_coalesced_;
  }

  /// Highest LSN that is stable (0 if none).
  Lsn last_stable_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_stable_lsn_;
  }
  /// Highest LSN assigned (stable or volatile).
  Lsn last_assigned_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_lsn_ - 1;
  }
  size_t volatile_record_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

  /// Truncates the stable log prefix strictly before `lsn` (the record
  /// with LSN `lsn` is retained). Used after checkpoints: `lsn` must be
  /// the minimum rSI over the dirty object table (every uninstalled
  /// operation is at or after it).
  void TruncateBefore(Lsn lsn);

  /// Maps a stable record's LSN to its framed extent on the device:
  /// *offset is the frame start (absolute device offset), *size the full
  /// framed size (header + payload). False when `lsn` is not stable or
  /// its offset entry was already truncated away. The log-as-database
  /// install path calls this at index-publish time — the entry outlives
  /// truncation inside the LogIndex, whose reads fall through to the
  /// cold tier.
  bool StableExtentOf(Lsn lsn, uint64_t* offset, uint64_t* size) const;

  /// Raises the LSN counter to at least `next` (recovery after scanning
  /// an existing log, a standby after each applied record). Never lowers
  /// it: a counter pinned past a replicated watermark — a promoted
  /// standby's — survives recovery's re-seeding, and so does one that
  /// media repair advanced.
  void RaiseNextLsn(Lsn next) {
    std::lock_guard<std::mutex> lock(mu_);
    next_lsn_ = std::max(next_lsn_, next);
  }

  /// Decodes every stable record in order (via LogCursor — prefer the
  /// cursor directly when the log may be large; this materializes it).
  /// Stops cleanly at a torn tail (sets *torn). Returns the records, via
  /// *next_lsn 1 + the highest LSN seen (or 1 for an empty log), and via
  /// *valid_end the absolute device offset just past the last valid
  /// record (torn bytes begin there).
  static Status ReadStable(const StableLogDevice& device,
                           std::vector<LogRecord>* out, bool* torn,
                           Lsn* next_lsn, uint64_t* valid_end);

 private:
  /// One framed record in the arena, in LSN order. Entries are erased
  /// only from the front (on acknowledgement), so deque references held
  /// by outstanding Reservations stay valid.
  struct PendingRecord {
    Lsn lsn = kInvalidLsn;
    size_t arena_offset = 0;   // frame start within encoded_
    uint32_t framed_size = 0;  // kFrameOverhead + payload
    bool filled = false;       // committed (checksummed, forceable)
  };

  /// One force staged on the device completion queue. The arena range is
  /// retained (no compaction while in flight) so WaitStable could
  /// resubmit; record bookkeeping happens at reap.
  struct InFlightForce {
    uint64_t ticket = 0;
    size_t arena_offset = 0;
    size_t bytes = 0;
    size_t count = 0;  // pending_ entries covered (a prefix)
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    uint64_t coalesced = 0;
    std::chrono::steady_clock::time_point submit_time;
  };

  /// Per-ForcePolicy instruments (latency + batch-size histograms carry a
  /// policy label so group-commit shapes stay separable in one snapshot).
  /// Registry pointers are fetched once per policy and cached, keeping
  /// the per-Force cost to two clock reads and two histogram locks.
  struct ForceInstruments {
    HistogramMetric* latency_us = nullptr;
    HistogramMetric* batch_records = nullptr;
    Counter* records_coalesced = nullptr;
  };
  ForceInstruments& instruments();

  /// Ensures the arena can hold `bytes` more without reallocating under
  /// an outstanding fill; waits for fills to drain before growing.
  void EnsureArenaRoomLocked(std::unique_lock<std::mutex>& lock,
                             size_t bytes);
  /// Reserves a frame for a payload of known exact size and writes the
  /// length header plus the type/lsn prefix. Returns the pending entry.
  PendingRecord* ReserveFrameLocked(std::unique_lock<std::mutex>& lock,
                                    RecordType type, Lsn lsn,
                                    size_t body_size, uint8_t** body_out,
                                    uint8_t** frame_out);
  /// Copies an already-encoded payload into a fresh frame and publishes
  /// it (the compatibility Append path).
  void AppendEncodedLocked(std::unique_lock<std::mutex>& lock, Lsn lsn,
                           const std::vector<uint8_t>& payload);
  /// Advances the contiguous-filled watermark and auto-submits when the
  /// async threshold is reached.
  void OnFilledLocked(std::unique_lock<std::mutex>& lock);
  Status SubmitForceLocked(std::unique_lock<std::mutex>& lock, Lsn upto);
  Status WaitStableLocked(std::unique_lock<std::mutex>& lock, Lsn upto);
  /// Reclaims acknowledged arena prefix when nothing references it.
  void MaybeCompactLocked();
  void EnsureCountersLocked();

  StableLogDevice* device_;

  mutable std::mutex mu_;
  /// Fills commit / outstanding fills drain (arena growth and force
  /// contiguity wait on this).
  std::condition_variable fill_cv_;

  /// Framed-record arena: [arena_consumed_, arena_used_) holds the dense
  /// frames of pending_ (plus any in-flight range awaiting
  /// acknowledgement). encoded_.size() is the arena capacity; the logical
  /// end is tracked separately so a reservation is pure bookkeeping —
  /// vector::resize would zero-fill every slot under the lock.
  std::vector<uint8_t> encoded_;
  size_t arena_used_ = 0;
  size_t arena_consumed_ = 0;
  std::deque<PendingRecord> pending_;
  size_t outstanding_fills_ = 0;
  /// pending_ prefix sizes: [0, submitted_count_) staged on the device,
  /// [0, fill_watermark_) contiguously filled.
  size_t submitted_count_ = 0;
  size_t fill_watermark_ = 0;
  /// Committed, unsubmitted bytes (drives async auto-submit).
  size_t unsubmitted_filled_bytes_ = 0;
  size_t async_submit_bytes_ = 0;
  std::deque<InFlightForce> in_flight_;

  Lsn next_lsn_ = 1;
  Lsn last_stable_lsn_ = 0;
  ForcePolicy force_policy_ = ForcePolicy::kImmediate;
  size_t group_bytes_ = 1 << 16;
  uint64_t records_coalesced_ = 0;
  /// Set when a force tore or crashed mid-append: the stable tail is no
  /// longer coherent with this manager's view, so every further Force is
  /// refused until recovery rebuilds the log state.
  bool poisoned_ = false;
  /// Lazily-filled instrument cache, one slot per ForcePolicy value.
  ForceInstruments force_instruments_[3];
  Counter* force_calls_ = nullptr;
  Counter* force_noops_ = nullptr;
  Counter* force_submits_ = nullptr;
  HistogramMetric* force_wait_us_ = nullptr;
  Counter* append_records_ = nullptr;
  Counter* append_bytes_ = nullptr;
  Counter* append_allocs_ = nullptr;
  /// Byte offset on the device of each stable record. Appends arrive in
  /// ascending LSN order and truncation only drops a prefix, so the
  /// vector is always sorted by LSN — binary search replaces the old
  /// std::map without its per-node allocations.
  std::vector<std::pair<Lsn, uint64_t>> stable_offsets_;
};

}  // namespace loglog

#endif  // LOGLOG_WAL_LOG_MANAGER_H_
