#include "logstore/log_index.h"

#include "obs/metrics.h"

namespace loglog {

LogIndex::LogIndex()
    : publishes_(MetricsRegistry::Global().GetCounter(
          metric::kLogstoreIndexPublishes)),
      entries_gauge_(
          MetricsRegistry::Global().GetGauge(metric::kLogstoreIndexEntries)),
      live_gauge_(MetricsRegistry::Global().GetGauge(
          metric::kLogstoreIndexLiveBytes)) {}

void LogIndex::Publish(ObjectId id, Lsn lsn, uint64_t offset, uint64_t size) {
  Put(IndexCheckpointEntry{id, lsn, offset, size});
  changed_.insert(id);
  publishes_->Inc();
  RefreshGauges();
}

void LogIndex::Put(const IndexCheckpointEntry& entry) {
  auto [it, fresh] = by_id_.try_emplace(entry.id);
  Slot& slot = it->second;
  if (!fresh) by_lsn_.erase(slot.by_lsn);  // re-filed under its new lsn
  live_bytes_ += entry.size - slot.entry.size;  // 0 for a fresh slot
  slot.entry = entry;
  // A new image is usually the newest: hint the insert at the end.
  slot.by_lsn = by_lsn_.insert(by_lsn_.end(), &slot.entry);
}

bool LogIndex::Remove(ObjectId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  live_bytes_ -= it->second.entry.size;
  by_lsn_.erase(it->second.by_lsn);
  by_id_.erase(it);
  return true;
}

void LogIndex::Erase(ObjectId id) {
  if (!Remove(id)) return;
  changed_.insert(id);
  RefreshGauges();
}

bool LogIndex::Lookup(ObjectId id, IndexCheckpointEntry* entry) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  if (entry != nullptr) *entry = it->second.entry;
  return true;
}

const IndexCheckpointEntry* LogIndex::OldestEntry() const {
  return by_lsn_.empty() ? nullptr : *by_lsn_.begin();
}

bool LogIndex::NextByLsn(IndexCheckpointEntry* e) const {
  auto it = by_lsn_.upper_bound(e);
  if (it == by_lsn_.end()) return false;
  *e = **it;
  return true;
}

Lsn LogIndex::MinLsn() const {
  return by_lsn_.empty() ? kInvalidLsn : (*by_lsn_.begin())->lsn;
}

std::vector<IndexCheckpointEntry> LogIndex::Snapshot() const {
  std::vector<IndexCheckpointEntry> out;
  out.reserve(by_id_.size());
  for (const auto& [id, slot] : by_id_) out.push_back(slot.entry);
  return out;
}

std::vector<IndexCheckpointEntry> LogIndex::TakeDelta() {
  std::vector<IndexCheckpointEntry> out;
  out.reserve(changed_.size());
  for (ObjectId id : changed_) {
    auto it = by_id_.find(id);
    out.push_back(it == by_id_.end() ? IndexCheckpointEntry{id}
                                     : it->second.entry);
  }
  changed_.clear();
  return out;
}

void LogIndex::Reset(const std::vector<IndexCheckpointEntry>& entries) {
  by_lsn_.clear();
  by_id_.clear();
  changed_.clear();
  live_bytes_ = 0;
  for (const IndexCheckpointEntry& e : entries) Put(e);
  RefreshGauges();
}

void LogIndex::ApplyDelta(const std::vector<IndexCheckpointEntry>& entries) {
  for (const IndexCheckpointEntry& e : entries) {
    if (e.erased()) {
      Remove(e.id);
    } else {
      Put(e);
    }
  }
  RefreshGauges();
}

void LogIndex::Clear() {
  by_lsn_.clear();
  by_id_.clear();
  changed_.clear();
  live_bytes_ = 0;
  RefreshGauges();
}

void LogIndex::RefreshGauges() {
  entries_gauge_->Set(static_cast<int64_t>(by_id_.size()));
  live_gauge_->Set(static_cast<int64_t>(live_bytes_));
}

}  // namespace loglog
