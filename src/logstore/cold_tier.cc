#include "logstore/cold_tier.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace loglog {

ColdTier::ColdTier(FaultInjector* faults)
    : faults_(faults),
      reads_(MetricsRegistry::Global().GetCounter(
          metric::kLogstoreReadsCold)) {}

void ColdTier::Spill(uint64_t start_offset, std::vector<uint8_t> bytes) {
  if (bytes.empty()) return;
  assert(segments_.empty() ||
         start_offset == segments_.back().end_offset());
  total_bytes_ += bytes.size();
  if (!segments_.empty() &&
      segments_.back().bytes.size() < segment_target_bytes_) {
    ColdSegment& open = segments_.back();
    open.bytes.insert(open.bytes.end(), bytes.begin(), bytes.end());
    return;
  }
  ColdSegment seg;
  seg.start_offset = start_offset;
  seg.bytes = std::move(bytes);
  segments_.push_back(std::move(seg));
}

Status ColdTier::Read(uint64_t offset, uint64_t size,
                      std::vector<uint8_t>* out) const {
  FaultFire fire =
      faults_ != nullptr ? faults_->Hit(fault::kColdTierRead) : FaultFire{};
  if (fire.action == FaultAction::kTransientIoError ||
      fire.action == FaultAction::kPermanentIoError ||
      fire.action == FaultAction::kCrashNow ||
      fire.action == FaultAction::kLostWrite) {
    return FaultInjector::ErrorStatus(fire.action, fault::kColdTierRead);
  }
  out->clear();
  out->reserve(size);
  uint64_t at = offset;
  uint64_t remaining = size;
  // Segments are contiguous and sorted: the one holding `offset` is the
  // last that starts at or below it.
  auto first = std::ranges::upper_bound(segments_, offset, {},
                                        &ColdSegment::start_offset);
  if (first != segments_.begin()) --first;
  for (auto it = first; it != segments_.end() && remaining != 0; ++it) {
    const ColdSegment& seg = *it;
    if (at >= seg.end_offset()) continue;
    if (at < seg.start_offset) break;  // gap: coverage ended
    const uint64_t within = at - seg.start_offset;
    const uint64_t take =
        std::min<uint64_t>(remaining, seg.bytes.size() - within);
    out->insert(out->end(), seg.bytes.begin() + static_cast<long>(within),
                seg.bytes.begin() + static_cast<long>(within + take));
    at += take;
    remaining -= take;
  }
  if (remaining != 0) {
    return Status::IoError("cold tier read outside spilled coverage");
  }
  reads_->Inc();
  if (fire.action == FaultAction::kBitFlip) {
    // In-flight read corruption: damage the returned copy, not the
    // spilled media — the record framing CRC turns it into Corruption.
    FaultInjector::FlipBit(fire.rng, out);
  }
  return Status::OK();
}

uint64_t ColdTier::DropThrough(uint64_t offset) {
  uint64_t dropped = 0;
  while (!segments_.empty() && segments_.front().end_offset() <= offset) {
    dropped += segments_.front().bytes.size();
    segments_.pop_front();
  }
  total_bytes_ -= dropped;
  return dropped;
}

void ColdTier::AppendContentsTo(std::vector<uint8_t>* out) const {
  for (const ColdSegment& seg : segments_) {
    out->insert(out->end(), seg.bytes.begin(), seg.bytes.end());
  }
}

}  // namespace loglog
