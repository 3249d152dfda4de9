#ifndef LOGLOG_LOGSTORE_COLD_TIER_H_
#define LOGLOG_LOGSTORE_COLD_TIER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"

namespace loglog {

class Counter;

/// One spilled run of stable log bytes. Segments are contiguous: each
/// starts where the previous one ended, and every boundary is a framed
/// record boundary (spills happen at truncation offsets, which the
/// LogManager maps from LSNs to record starts).
struct ColdSegment {
  uint64_t start_offset = 0;
  std::vector<uint8_t> bytes;

  uint64_t end_offset() const { return start_offset + bytes.size(); }
};

/// \brief The cold half of the two-tier log archive.
///
/// The hot tier is the StableLogDevice's retained byte window; when
/// checkpoint- or compaction-driven truncation advances the window, the
/// dropped prefix spills here instead of vanishing. The log-as-database
/// read path falls through to this tier for index entries that point
/// below the truncation horizon, and the verification archive is
/// materialized as cold segments + the hot window.
///
/// Cold reads model a slower, less reliable medium: they hit the
/// fault::kColdTierRead site (error actions surface as clean IoErrors;
/// a bit flip corrupts only the returned copy, which the record framing
/// CRC then rejects). Verification-path access (AppendContentsTo) reads
/// the media directly and bypasses faults, like ArchiveContents always
/// has.
class ColdTier {
 public:
  explicit ColdTier(FaultInjector* faults);

  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  /// Takes ownership of a truncated hot prefix. `start_offset` must
  /// extend the current cold coverage (truncation is monotone). Small
  /// spills coalesce into the open tail segment until it reaches the
  /// segment target size, so storm-frequent checkpoints do not produce
  /// thousands of tiny segments.
  void Spill(uint64_t start_offset, std::vector<uint8_t> bytes);

  /// Faulted read of [offset, offset+size). The range must lie within
  /// cold coverage; reads crossing into the hot tier are the device's
  /// job to split. The first segment is found by binary search, so a read
  /// costs O(log segments) plus the segments it spans.
  Status Read(uint64_t offset, uint64_t size,
              std::vector<uint8_t>* out) const;

  /// Drops whole segments lying entirely below `offset` and returns the
  /// byte volume released. A segment straddling `offset` is kept intact
  /// (drops happen at spill boundaries, never mid-record). Reads and
  /// AppendContentsTo afterwards cover only the surviving suffix — the
  /// caller owns the proof that nothing live points below `offset`.
  uint64_t DropThrough(uint64_t offset);

  /// True when `offset` falls inside a spilled segment.
  bool Covers(uint64_t offset) const {
    return !segments_.empty() && offset >= segments_.front().start_offset &&
           offset < segments_.back().end_offset();
  }

  uint64_t total_bytes() const { return total_bytes_; }
  size_t segment_count() const { return segments_.size(); }
  const std::deque<ColdSegment>& segments() const { return segments_; }

  /// Segment coalescing target. DropThrough only releases whole
  /// segments, so this is also the GC granularity: retention-GC
  /// deployments trade smaller segments (finer reclamation) against
  /// more of them. Applies to segments opened from now on.
  void set_segment_target_bytes(size_t bytes) {
    segment_target_bytes_ = bytes;
  }
  size_t segment_target_bytes() const { return segment_target_bytes_; }

  /// Appends every cold byte in offset order (verification-only: no
  /// fault evaluation, no read billing).
  void AppendContentsTo(std::vector<uint8_t>* out) const;

 private:
  /// Segments younger than the target keep absorbing spills.
  size_t segment_target_bytes_ = 256 * 1024;

  std::deque<ColdSegment> segments_;
  uint64_t total_bytes_ = 0;
  FaultInjector* faults_;
  Counter* reads_;  // logstore.reads.cold
};

}  // namespace loglog

#endif  // LOGLOG_LOGSTORE_COLD_TIER_H_
