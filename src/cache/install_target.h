#ifndef LOGLOG_CACHE_INSTALL_TARGET_H_
#define LOGLOG_CACHE_INSTALL_TARGET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/object_table.h"
#include "cache/policies.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"

namespace loglog {

struct CacheStats;

/// Called with every record of recovery's "recovery.log_scan" walk, in
/// log order, and the record's framed device extent (offset, size). An
/// error (a log the rebuild cannot trust) fails recovery.
using LogScanFn = std::function<Status(const LogRecord& rec, uint64_t offset,
                                       uint64_t size)>;

/// \brief Where installed object state lives: the one seam between the
/// cache manager's write-graph machinery and the durability backend.
///
/// The cache manager's duty (Sections 3-5) does not depend on the backend:
/// install minimal write-graph nodes in order, under the WAL protocol. The
/// target answers what does — where a cache miss reads from, what
/// installing means, what a checkpoint adds and what recovery rebuilds.
/// StoreTarget (below) writes the StableStore; LogStoreTarget
/// (logstore/logstore_target.h) publishes log-index entries instead.
class InstallTarget {
 public:
  virtual ~InstallTarget() = default;

  /// The installed version of `id` (NotFound if none), read with up to
  /// `io_budget` transient-I/O retries.
  virtual Status Load(ObjectId id, int io_budget, StoredObject* out) = 0;
  virtual bool Exists(ObjectId id) const = 0;
  /// vSI of the installed version (kInvalidLsn if none).
  virtual Lsn StableVsi(ObjectId id) const = 0;

  /// Largest flush set one installation takes; PurgeOne peels larger sets
  /// apart with W_IP identity writes first.
  virtual size_t MaxFlushSet() const { return SIZE_MAX; }
  /// Whether a cached version installs as it stands; if not, the cache
  /// manager re-logs it as a W_IP identity write first.
  virtual bool Installable(const CachedObject&) const { return true; }
  /// Installs vars(n), whose records are already forced.
  virtual Status InstallSet(const std::vector<ObjectWrite>& writes,
                            CacheStats* stats) = 0;
  /// Installs one object without uninstalled writers (FlushAll's
  /// leftovers), its record already forced.
  virtual Status WriteBack(const ObjectWrite& w) = 0;
  /// Whether a WriteBack needs a kInstall record as evidence for recovery
  /// (true when recovery rebuilds the installed state from the log).
  virtual bool NeedsInstallEvidence() const { return false; }

  /// Runs before the kCheckpoint record; returns the lowest LSN the
  /// checkpoint's truncation must keep (kMaxLsn: none).
  virtual Lsn BeginCheckpoint() { return kMaxLsn; }
  /// Runs after the checkpoint's truncation.
  virtual void EndCheckpoint() {}

  /// Recovery: rebuilds the target's volatile state from the log scan
  /// (empty when the installed state is stable by itself).
  virtual LogScanFn BeginLogScan() { return nullptr; }
};

/// \brief The dual-write target: installation flushes vars(n) to the
/// StableStore under one of Section 4's four flush policies, and cache
/// misses read the store.
class StoreTarget final : public InstallTarget {
 public:
  StoreTarget(SimulatedDisk* disk, LogManager* log, FlushPolicy policy);

  Status Load(ObjectId id, int io_budget, StoredObject* out) override;
  bool Exists(ObjectId id) const override {
    return disk_->store().Exists(id);
  }
  Lsn StableVsi(ObjectId id) const override {
    return disk_->store().StableVsi(id);
  }
  size_t MaxFlushSet() const override {
    return policy_ == FlushPolicy::kIdentityWrites ? 1 : SIZE_MAX;
  }
  Status InstallSet(const std::vector<ObjectWrite>& writes,
                    CacheStats* stats) override;
  Status WriteBack(const ObjectWrite& w) override;

 private:
  /// Section 4 "Atomic Flush" technique 2: quiesce, log every value plus
  /// a commit record, force, then overwrite in place.
  Status FlushTransaction(const std::vector<ObjectWrite>& writes,
                          CacheStats* stats);

  SimulatedDisk* disk_;
  LogManager* log_;
  FlushPolicy policy_;
};

}  // namespace loglog

#endif  // LOGLOG_CACHE_INSTALL_TARGET_H_
