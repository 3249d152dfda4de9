#ifndef LOGLOG_LOGSTORE_LOG_INDEX_H_
#define LOGLOG_LOGSTORE_LOG_INDEX_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace loglog {

class Counter;
class Gauge;

/// \brief The log-as-database object index: object id -> location of its
/// last stable full-image record.
///
/// Under StorageBackend::kLogStore this map IS the installed state.
/// Installation publishes an entry instead of flushing to the
/// StableStore; a published entry means "the image at (lsn, offset,
/// size) is stable and current as of lsn", which is exactly the vSI the
/// redo test needs, so the write-graph machinery collapses to index
/// maintenance. The index itself is volatile — recovery rebuilds it from
/// the last base kIndexCheckpoint record, the deltas after it and the
/// full-image records after those (see LogStoreTarget::BeginLogScan),
/// which bounds restart cost by the interval between bases. The index
/// remembers which ids changed since the last index checkpoint, so a
/// delta costs what changed, not the whole index.
class LogIndex {
 public:
  LogIndex();

  LogIndex(const LogIndex&) = delete;
  LogIndex& operator=(const LogIndex&) = delete;

  /// Publishes (or republishes) the object's current stable image.
  /// `size` is the framed record size on the device — the index doubles
  /// as the live-byte accounting compaction steers by.
  void Publish(ObjectId id, Lsn lsn, uint64_t offset, uint64_t size);

  /// Removes a deleted object (its tombstone record needs no entry:
  /// reads of unknown ids are NotFound by definition).
  void Erase(ObjectId id);

  /// True (and *entry filled) when the object has a published image.
  bool Lookup(ObjectId id, IndexCheckpointEntry* entry) const;

  /// The entry whose record sits lowest in the log (smallest LSN, and
  /// so smallest offset: offsets grow with LSN), or nullptr when empty.
  /// O(1). Compaction moves this one first: the minimum entry pins the
  /// truncation point, so rewriting it forward is what reclaims bytes.
  const IndexCheckpointEntry* OldestEntry() const;

  /// Advances *e to the entry after it in LSN order; false (and *e
  /// unchanged) past the newest. *e need not still be in the index, so
  /// a walk may erase the entry it stands on. O(log n).
  bool NextByLsn(IndexCheckpointEntry* e) const;

  /// Smallest LSN any entry points at (kInvalidLsn when empty). The
  /// log-store truncation floor: bytes below it hold no live image.
  Lsn MinLsn() const;

  /// Snapshot of every entry, in no particular order — a base
  /// kIndexCheckpoint payload.
  std::vector<IndexCheckpointEntry> Snapshot() const;

  /// Ids published or erased since the last TakeDelta/ForgetChanges.
  size_t changed_count() const { return changed_.size(); }
  /// A delta kIndexCheckpoint payload: the current entry of every changed
  /// id, or an erasure (size 0) for a changed id no longer indexed. The
  /// changes are forgotten.
  std::vector<IndexCheckpointEntry> TakeDelta();
  /// Forgets the changes (a base checkpoint captured them all).
  void ForgetChanges() { changed_.clear(); }

  /// Replaces the whole index from a base checkpoint payload (recovery
  /// rebuild reset point).
  void Reset(const std::vector<IndexCheckpointEntry>& entries);
  /// Applies a delta checkpoint payload: puts, and erasures for size 0.
  void ApplyDelta(const std::vector<IndexCheckpointEntry>& entries);

  void Clear();

  size_t size() const { return by_id_.size(); }
  /// Sum of framed sizes of live images. retained/live is the space-amp
  /// ratio the compactor drives toward 1.
  uint64_t live_bytes() const { return live_bytes_; }

 private:
  void RefreshGauges();
  /// Inserts or replaces the entry for entry.id, keeping by_lsn_ and
  /// live_bytes_ in step.
  void Put(const IndexCheckpointEntry& entry);
  /// Removes id's entry; false when there was none.
  bool Remove(ObjectId id);

  /// Orders entries of by_id_ by (lsn, id). An entry is re-filed
  /// whenever its lsn changes; index LSNs are unique in practice (a full
  /// image writes one object), the id only makes the order total.
  struct ByLsn {
    bool operator()(const IndexCheckpointEntry* a,
                    const IndexCheckpointEntry* b) const {
      return a->lsn != b->lsn ? a->lsn < b->lsn : a->id < b->id;
    }
  };
  using LsnOrder = std::set<const IndexCheckpointEntry*, ByLsn>;
  struct Slot {
    IndexCheckpointEntry entry;
    LsnOrder::iterator by_lsn;  // entry's place in by_lsn_
  };

  /// Node-based, so the entry pointers by_lsn_ holds stay valid.
  std::unordered_map<ObjectId, Slot> by_id_;
  LsnOrder by_lsn_;
  std::unordered_set<ObjectId> changed_;
  uint64_t live_bytes_ = 0;
  Counter* publishes_;     // logstore.index.publishes
  Gauge* entries_gauge_;   // logstore.index.entries
  Gauge* live_gauge_;      // logstore.index.live_bytes
};

}  // namespace loglog

#endif  // LOGLOG_LOGSTORE_LOG_INDEX_H_
