#ifndef LOGLOG_STORAGE_SIMULATED_DISK_H_
#define LOGLOG_STORAGE_SIMULATED_DISK_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "fault/fault_injector.h"
#include "logstore/cold_tier.h"
#include "storage/io_stats.h"
#include "storage/stable_store.h"

namespace loglog {

class Counter;

/// \brief The append-only stable log device.
///
/// Bytes handed to Append are stable (the volatile log buffer lives in
/// LogManager; only forced bytes reach this device). Offsets are absolute
/// and never reused, so log truncation just advances start_offset.
class StableLogDevice {
 public:
  StableLogDevice(IoStats* stats, FaultInjector* faults);

  StableLogDevice(const StableLogDevice&) = delete;
  StableLogDevice& operator=(const StableLogDevice&) = delete;

  /// Appends forced bytes; on success stores the offset of the first byte
  /// in *offset (if non-null) and counts one log force plus the byte
  /// volume. The fault::kLogAppend site can fail the force (IoError,
  /// nothing appended), tear it (a strict prefix becomes stable, Aborted
  /// — the system must crash, exactly as a power loss mid-force), or
  /// silently corrupt the appended bytes.
  Status Append(Slice bytes, uint64_t* offset = nullptr);

  /// io_uring-style submit/complete queue. SubmitAppend stages a copy of
  /// the bytes (like an SQE: the device owns them from here; the caller's
  /// buffer may move) and returns a ticket. NOTHING is stable until
  /// ReapAppend: fault evaluation and the media effect both happen at
  /// completion time, so a crash between submit and reap loses the whole
  /// submission — exactly the volatile-buffer semantics the WAL needs.
  ///
  /// Completions must be reaped in submission order (the log is
  /// append-only). On success the entry is consumed and *offset is the
  /// first stable byte. A retryable IoError leaves the entry staged so
  /// the caller can reap again; AbandonStaged drops every staged entry
  /// when the caller gives up (nothing was applied). A torn/crashed
  /// append (Aborted) consumes the entry after persisting its torn
  /// prefix, matching the synchronous Append contract.
  uint64_t SubmitAppend(Slice bytes);
  Status ReapAppend(uint64_t ticket, uint64_t* offset = nullptr);
  void AbandonStaged();
  size_t staged_appends() const { return staged_.size(); }

  /// Simulated device latency per append: SubmitAppend stamps a
  /// ready-time and ReapAppend sleeps only the remainder, so work done
  /// between submit and reap overlaps the "device". The synchronous
  /// Append pays it in full. 0 (default) disables.
  void set_append_latency_us(uint64_t us) { append_latency_us_ = us; }
  uint64_t append_latency_us() const { return append_latency_us_; }

  /// Absolute end offset (== total bytes ever appended).
  uint64_t end_offset() const { return start_offset_ + bytes_.size(); }
  /// Absolute offset of the first retained byte.
  uint64_t start_offset() const { return start_offset_; }
  uint64_t retained_bytes() const { return bytes_.size(); }

  /// View of the retained log [start_offset, end_offset).
  Slice Contents() const { return Slice(bytes_); }

  /// Releases the hot bytes before `offset` (checkpoint- or
  /// compaction-driven truncation). With the archive enabled the dropped
  /// prefix spills to the cold tier (history survives, reads fall
  /// through); disabled, it is gone. Either way the hot window shrinks —
  /// the reclaimed volume is counted in `log.device.reclaimed_bytes`.
  void TruncatePrefix(uint64_t offset);

  /// Total bytes TruncatePrefix has released from the hot window.
  uint64_t reclaimed_bytes() const { return reclaimed_bytes_; }

  /// Cold-tier garbage collection: drops spilled segments lying wholly
  /// below `offset` (clamped to start_offset(), so only already-spilled
  /// bytes are eligible) and counts them into reclaimed_bytes. The
  /// caller must guarantee no live index entry points below `offset` —
  /// the log-store checkpoint passes the oldest live image offset, which
  /// compaction is what advances. Dropped history is gone: full-history
  /// verification (ArchiveContents replay) no longer covers it, so
  /// retention-full deployments and the crash harness never call this.
  /// Returns the bytes released.
  uint64_t ReclaimColdBelow(uint64_t offset);

  /// Reads `size` bytes of stable history at absolute `offset`: from the
  /// retained hot window when offset >= start_offset(), else from the
  /// cold tier (a faulted read — see ColdTier). The log-as-database
  /// cache-miss path; reads never cross the hot/cold boundary in
  /// practice because both truncation and index offsets sit on framed
  /// record boundaries, but a straddling range is still served.
  Status ReadStable(uint64_t offset, uint64_t size,
                    std::vector<uint8_t>* out) const;

  const ColdTier& cold_tier() const { return cold_; }

  /// Cold-segment coalescing target (== retention-GC granularity; see
  /// ColdTier::set_segment_target_bytes).
  void set_cold_segment_target(size_t bytes) {
    cold_.set_segment_target_bytes(bytes);
  }

  /// Crash simulation: removes the final `n` bytes, as if the last force
  /// was torn by the crash. Recovery must stop cleanly at the tear.
  void TearTail(uint64_t n);

  /// Bytes of the most recent Append (the largest tear a crash during
  /// that force could produce).
  uint64_t last_append_size() const { return last_append_size_; }

  /// Every byte ever made stable, unaffected by truncation (but trimmed
  /// by TearTail, since torn bytes never count as stable). Verification
  /// only: the recoverability oracle replays this to compute ground truth.
  /// Materialized lazily as cold segments + the hot window; the view is
  /// cached until the next append/truncate/tear invalidates it.
  Slice ArchiveContents() const;

  /// Disables history retention across truncation (default on).
  /// Benchmarks that never replay against the reference turn it off so
  /// truncated bytes are dropped instead of spilled — after a disabled
  /// truncation, ArchiveContents() and cold reads below start_offset()
  /// no longer cover full history.
  void set_archive_enabled(bool enabled) { archive_enabled_ = enabled; }

  FaultInjector* faults() const { return faults_; }
  IoStats* stats() const { return stats_; }

 private:
  /// Fault evaluation + media effect shared by Append and ReapAppend.
  Status ApplyAppend(Slice bytes, uint64_t* offset);

  struct StagedAppend {
    uint64_t ticket;
    std::vector<uint8_t> data;
    std::chrono::steady_clock::time_point ready_at;
  };

  /// Reaped submission buffers kept warm for reuse (registered-buffer
  /// style); bounded so an unusually large batch cannot pin memory.
  static constexpr size_t kBufferPoolEntries = 4;

  std::vector<uint8_t> bytes_;
  ColdTier cold_;
  uint64_t start_offset_ = 0;
  uint64_t last_append_size_ = 0;
  uint64_t reclaimed_bytes_ = 0;
  /// Lazy full-history view backing ArchiveContents() once segments have
  /// spilled (before that the hot window IS the history).
  mutable std::vector<uint8_t> archive_view_;
  mutable bool archive_view_valid_ = false;
  std::deque<StagedAppend> staged_;
  std::vector<std::vector<uint8_t>> buffer_pool_;
  bool archive_enabled_ = true;
  uint64_t next_ticket_ = 1;
  uint64_t append_latency_us_ = 0;
  IoStats* stats_;
  FaultInjector* faults_;
  Counter* reclaimed_counter_;  // log.device.reclaimed_bytes
};

/// \brief Everything that survives a crash: the stable object store, the
/// stable log, and the I/O counters.
///
/// An engine instance owns all volatile state (cache, write graph,
/// volatile log buffer); simulating a crash is simply destroying the
/// engine while the SimulatedDisk lives on, then constructing a new
/// engine over the same disk and running Recover().
class SimulatedDisk {
 public:
  SimulatedDisk()
      : store_(&stats_, &injector_), log_(&stats_, &injector_) {}

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  StableStore& store() { return store_; }
  const StableStore& store() const { return store_; }
  StableLogDevice& log() { return log_; }
  const StableLogDevice& log() const { return log_; }
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  /// Fault sites live with the disk — armed faults, like the media, are
  /// unaffected by engine crashes.
  FaultInjector& fault_injector() { return injector_; }
  const FaultInjector& fault_injector() const { return injector_; }

 private:
  IoStats stats_;
  FaultInjector injector_;  // must outlive (so precede) store_ and log_
  StableStore store_;
  StableLogDevice log_;
};

}  // namespace loglog

#endif  // LOGLOG_STORAGE_SIMULATED_DISK_H_
