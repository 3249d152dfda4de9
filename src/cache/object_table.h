#ifndef LOGLOG_CACHE_OBJECT_TABLE_H_
#define LOGLOG_CACHE_OBJECT_TABLE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace loglog {

/// \brief A cached recoverable object.
///
/// The object table generalizes ARIES's dirty pages table to arbitrary
/// objects (Section 3 "we abstract that to an object table").
struct CachedObject {
  ObjectValue value;
  /// lSI of the last operation that wrote the cached version.
  Lsn vsi = kInvalidLsn;
  /// lSI of the earliest operation whose redo is needed to rebuild the
  /// cached version from the stable version; kInvalidLsn when clean.
  Lsn rsi = kInvalidLsn;
  /// Cached version differs from the stable version.
  bool dirty = false;
  /// False after a delete executed but before it installed (tombstone).
  bool exists = true;
  /// Monotone access stamp for clean-eviction ordering.
  uint64_t last_access = 0;
  /// Writes since the object was last flushed clean (hotness signal).
  uint64_t writes_since_clean = 0;
  /// The cached version's producing record is a full image (see
  /// logstore/logstore.h). The log-store install target only publishes
  /// such versions; anything else is first re-logged as a W_IP identity
  /// write (InstallTarget::Installable).
  bool last_full_image = false;
};

/// \brief The volatile object table: every object currently cached,
/// dirty or clean.
class ObjectTable {
 public:
  CachedObject* Find(ObjectId id);
  const CachedObject* Find(ObjectId id) const;
  CachedObject& GetOrCreate(ObjectId id);
  void Erase(ObjectId id) { objects_.erase(id); }

  size_t size() const { return objects_.size(); }
  size_t dirty_count() const;

  /// Snapshot of the dirty object table for a checkpoint record: every
  /// dirty object with its rSI (Section 5).
  std::vector<DotEntry> DirtySnapshot() const;

  void ForEach(const std::function<void(ObjectId, CachedObject&)>& fn);
  void ForEach(
      const std::function<void(ObjectId, const CachedObject&)>& fn) const;

  /// Id of the least-recently-used *clean* object, or kInvalidObjectId.
  ObjectId OldestClean() const;

 private:
  std::unordered_map<ObjectId, CachedObject> objects_;
};

}  // namespace loglog

#endif  // LOGLOG_CACHE_OBJECT_TABLE_H_
