#ifndef LOGLOG_LOGSTORE_LOGSTORE_TARGET_H_
#define LOGLOG_LOGSTORE_LOGSTORE_TARGET_H_

#include <vector>

#include "cache/install_target.h"
#include "logstore/log_index.h"

namespace loglog {

/// \brief The log-as-database install target: the log IS the store.
///
/// Installation publishes LogIndex entries pointing at each object's
/// forced full-image record instead of writing the StableStore; one log
/// force replaces the store writes, and a publish takes any flush set
/// whole. A version whose record is not a full image (a delta or logical
/// writer) is not Installable: it gets a W_IP identity write first. Cache
/// misses re-decode the indexed record from the hot log or the cold tier.
/// The index is volatile: each checkpoint logs a kIndexCheckpoint record,
/// and recovery rebuilds the index during its log scan. The record is a
/// delta (the entries changed since the previous one) over a full base,
/// and a new base is written only once the deltas since the last one
/// would carry more entries than the index holds; the checkpoint's
/// truncation keeps the base and so every delta after it.
class LogStoreTarget final : public InstallTarget {
 public:
  /// `cold_retention_full` off makes every checkpoint drop cold segments
  /// wholly below the oldest live index offset (LogStoreOptions).
  LogStoreTarget(SimulatedDisk* disk, LogManager* log,
                 bool cold_retention_full);

  Status Load(ObjectId id, int io_budget, StoredObject* out) override;
  bool Exists(ObjectId id) const override {
    return index_.Lookup(id, nullptr);
  }
  Lsn StableVsi(ObjectId id) const override {
    IndexCheckpointEntry e;
    return index_.Lookup(id, &e) ? e.lsn : kInvalidLsn;
  }
  bool Installable(const CachedObject& obj) const override {
    return obj.last_full_image;
  }
  Status InstallSet(const std::vector<ObjectWrite>& writes,
                    CacheStats* stats) override;
  Status WriteBack(const ObjectWrite& w) override { return Publish(w); }
  bool NeedsInstallEvidence() const override { return true; }
  Lsn BeginCheckpoint() override;
  void EndCheckpoint() override;
  LogScanFn BeginLogScan() override;

  /// Points `w.id`'s entry at its stable record `w.vsi`, or retires the
  /// entry for a delete (an absent id IS nonexistence).
  Status Publish(const ObjectWrite& w);

  LogIndex& index() { return index_; }

 private:
  SimulatedDisk* disk_;
  LogManager* log_;
  bool cold_retention_full_;
  LogIndex index_;
  /// LSN of the last base kIndexCheckpoint (kInvalidLsn: none yet in this
  /// engine's run, so the next checkpoint writes one).
  Lsn base_lsn_ = kInvalidLsn;
  /// Entries the deltas since base_lsn_ carried.
  uint64_t delta_entries_ = 0;
  Counter* reads_log_;  // logstore.reads.log
};

}  // namespace loglog

#endif  // LOGLOG_LOGSTORE_LOGSTORE_TARGET_H_
