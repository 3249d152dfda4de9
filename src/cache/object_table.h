#ifndef LOGLOG_CACHE_OBJECT_TABLE_H_
#define LOGLOG_CACHE_OBJECT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace loglog {

/// \brief A cached recoverable object.
///
/// The object table generalizes ARIES's dirty pages table to arbitrary
/// objects (Section 3 "we abstract that to an object table").
struct CachedObject {
  /// The cached bytes. Only SetValue replaces them.
  const ObjectValue& value() const { return value_; }
  /// Replaces the cached bytes and gives them a fresh version stamp.
  void SetValue(ObjectValue value);
  /// Version stamp of the cached bytes, from a process-wide counter that
  /// never repeats (0 means never set). It changes exactly when SetValue
  /// runs, so two reads that see the same stamp see the same bytes at the
  /// same address; flushes, installs and Touches leave it alone.
  uint64_t stamp() const { return stamp_; }

  /// lSI of the last operation that wrote the cached version.
  Lsn vsi = kInvalidLsn;
  /// lSI of the earliest operation whose redo is needed to rebuild the
  /// cached version from the stable version; kInvalidLsn when clean.
  Lsn rsi = kInvalidLsn;
  /// False after a delete executed but before it installed (tombstone).
  bool exists = true;
  /// Writes since the object was last flushed clean (hotness signal).
  uint64_t writes_since_clean = 0;
  /// The cached version's producing record is a full image (see
  /// logstore/logstore.h). The log-store install target only publishes
  /// such versions; anything else is first re-logged as a W_IP identity
  /// write (InstallTarget::Installable).
  bool last_full_image = false;

  /// Cached version differs from the stable version (set through
  /// ObjectTable::SetDirty, which keeps the eviction order and the dirty
  /// list).
  bool dirty() const { return dirty_slot_ != kClean; }
  /// Access stamp for clean-eviction ordering (ObjectTable::Touch).
  uint64_t last_access() const { return last_access_; }

 private:
  friend class ObjectTable;
  static constexpr size_t kClean = SIZE_MAX;
  ObjectValue value_;
  uint64_t stamp_ = 0;
  ObjectId id_ = kInvalidObjectId;
  /// Position in ObjectTable::dirty_, or kClean.
  size_t dirty_slot_ = kClean;
  uint64_t last_access_ = 0;
};

/// \brief The volatile object table: every object currently cached,
/// dirty or clean.
///
/// Clean objects are also kept ordered by (last_access, id), so the
/// eviction victim is found in O(log n) instead of by a table scan, and
/// dirty objects are listed, so a checkpoint's dirty object table costs
/// O(dirty); the table owns the access clock and the dirty flag to keep
/// both exact.
class ObjectTable {
 public:
  ObjectTable() = default;
  // dirty_ points into objects_.
  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;

  CachedObject* Find(ObjectId id);
  const CachedObject* Find(ObjectId id) const;
  /// A new entry starts clean with access stamp 0.
  CachedObject& GetOrCreate(ObjectId id);
  void Erase(ObjectId id);

  /// Stamps `obj` as the most recently used object.
  void Touch(CachedObject* obj);
  /// Marks `obj` dirty (never an eviction victim) or clean.
  void SetDirty(CachedObject* obj, bool dirty);

  size_t size() const { return objects_.size(); }
  size_t dirty_count() const { return dirty_.size(); }

  /// Snapshot of the dirty object table for a checkpoint record: every
  /// dirty object with its rSI (Section 5). O(dirty).
  std::vector<DotEntry> DirtySnapshot() const;

  void ForEach(const std::function<void(ObjectId, CachedObject&)>& fn);
  void ForEach(
      const std::function<void(ObjectId, const CachedObject&)>& fn) const;

  /// Id of the least-recently-used *clean* object (ties by id), or
  /// kInvalidObjectId. O(1).
  ObjectId OldestClean() const;

 private:
  /// Unlists a dirty object; the caller decides where it goes next.
  void DropDirty(CachedObject* obj);

  std::unordered_map<ObjectId, CachedObject> objects_;
  /// Clean objects as (last_access, id), oldest first.
  std::set<std::pair<uint64_t, ObjectId>> clean_;
  /// Dirty objects, unordered (entries of objects_ never move).
  std::vector<CachedObject*> dirty_;
  uint64_t access_clock_ = 0;
};

}  // namespace loglog

#endif  // LOGLOG_CACHE_OBJECT_TABLE_H_
