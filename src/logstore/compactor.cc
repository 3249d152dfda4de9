#include "logstore/compactor.h"

#include <string>
#include <vector>

#include "engine/recovery_engine.h"
#include "logstore/logstore_target.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace loglog {

Compactor::Compactor(RecoveryEngine* engine, LogStoreTarget* target)
    : engine_(engine), target_(target) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  runs_metric_ = reg.GetCounter(metric::kLogstoreCompactionRuns);
  bytes_metric_ = reg.GetCounter(metric::kLogstoreCompactionBytesMoved);
}

Status Compactor::RunOnce(size_t batch_objects) {
  uint64_t images = 0;
  uint64_t bytes = 0;
  Status st = MoveOldestImages(batch_objects, &images, &bytes);
  if (st.ok() && images > 0) {
    // The rewrites only pay off once the checkpoint advances truncation
    // past the vacated prefix; fold the two into one pass so a cadence
    // of N ops bounds the stale span at N ops' worth of log.
    st = engine_->Checkpoint();
  }
  if (!st.ok()) {
    ++stats_.failures;
    HealthRegistry::Global().Set(health::kLogstoreCompactor,
                                 HealthState::kFailing, st.ToString());
    return st;
  }
  ++stats_.runs;
  stats_.images_moved += images;
  stats_.bytes_moved += bytes;
  if (images == 0) ++stats_.noop_runs;
  runs_metric_->Inc();
  bytes_metric_->Inc(bytes);
  FlightRecorder::Global().Record(FlightEventType::kCompaction,
                                  engine_->log().last_assigned_lsn(), images,
                                  bytes);
  HealthRegistry::Global().Set(
      health::kLogstoreCompactor, HealthState::kOk,
      "moved " + std::to_string(images) + " images");
  return Status::OK();
}

Status Compactor::MoveOldestImages(size_t batch, uint64_t* images_moved,
                                   uint64_t* bytes_moved) {
  if (batch == 0) return Status::OK();
  CacheManager& cm = engine_->cache();
  const WriteGraph& graph = cm.graph();  // drains the pending batch
  // Oldest live images first: the minimum-LSN entry is what pins the
  // truncation point, so moving it is what lets the next checkpoint
  // reclaim bytes. The walk holds a copy of its entry, since it may
  // erase it; nothing is published until after the walk.
  LogIndex& index = target_->index();
  const IndexCheckpointEntry* oldest = index.OldestEntry();
  if (oldest == nullptr) return Status::OK();
  IndexCheckpointEntry e = *oldest;
  std::vector<ObjectWrite> moved;
  std::vector<InstallEntry> evidence;
  uint64_t old_bytes = 0;
  for (bool more = true; more && moved.size() < batch;
       more = index.NextByLsn(&e)) {
    CachedObject* obj = nullptr;
    Status st = cm.Fetch(e.id, &obj);
    if (st.IsNotFound()) continue;  // raced with a delete
    LOGLOG_RETURN_IF_ERROR(st);
    if (obj->dirty() || graph.FirstUninstalledWriter(e.id) != kInvalidLsn) {
      // A pending writer republishes this object at install time anyway;
      // re-logging it now would be wasted log volume.
      continue;
    }
    if (graph.HasUninstalledReader(e.id)) {
      // rW discipline: a write-after-read must not install before the
      // reader. The W_IP would publish instantly (bypassing the graph),
      // handing the object a version newer than the uninstalled reader —
      // recovery would then void the reader's redo and lose its writes.
      continue;
    }
    if (!obj->exists) {
      index.Erase(e.id);
      continue;
    }
    Lsn lsn = cm.LogIdentityWrite(e.id, obj);
    moved.push_back(ObjectWrite{e.id, Slice(), lsn});
    evidence.push_back(InstallEntry{e.id, kInvalidLsn});
    old_bytes += e.size;
  }
  if (moved.empty()) return Status::OK();
  // One force covers the whole batch (group-commit for compaction), then
  // every moved image republishes at its forward position, and one lazy
  // install record marks the batch for recovery's index rebuild.
  LOGLOG_RETURN_IF_ERROR(engine_->log().Force(moved.back().vsi));
  for (const ObjectWrite& w : moved) {
    LOGLOG_RETURN_IF_ERROR(target_->Publish(w));
  }
  cm.LogInstall(std::move(evidence));
  *images_moved = moved.size();
  *bytes_moved = old_bytes;
  return Status::OK();
}

}  // namespace loglog
