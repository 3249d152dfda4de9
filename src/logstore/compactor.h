#ifndef LOGLOG_LOGSTORE_COMPACTOR_H_
#define LOGLOG_LOGSTORE_COMPACTOR_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace loglog {

class RecoveryEngine;
class Counter;
class LogStoreTarget;

/// Per-compactor lifetime counters (mirrored into logstore.compaction.*
/// metrics; kept here so benchmarks can read them without a registry).
struct CompactionStats {
  uint64_t runs = 0;
  uint64_t images_moved = 0;
  uint64_t bytes_moved = 0;
  /// Runs that moved nothing (everything live was already at the tail).
  uint64_t noop_runs = 0;
  uint64_t failures = 0;
};

/// \brief Background log-store compaction: rewrites the oldest live full
/// images forward as W_IP identity records, then checkpoints so log
/// truncation can reclaim the vacated prefix.
///
/// The log-as-database backend never writes objects to the store, so the
/// log prefix holding an object's only full image can never be discarded
/// outright — it is either kept (space amplification) or spilled to the
/// cold tier (read amplification). The compactor bounds both: each
/// RunOnce re-logs up to `batch` of the oldest live images at the tail
/// (MoveOldestImages) and advances the checkpoint, so TruncateBefore
/// reclaims real bytes and hot reads stay off the cold tier.
///
/// Crash safety is inherited, not implemented: a W_IP rewrite is an
/// ordinary logged, graph-installed identity operation and the index
/// republish rides the usual kInstall evidence, so a crash at any point
/// between (or inside) RunOnce calls recovers through the standard
/// analysis/redo path. The crash-storm matrix runs configurations with
/// the compactor racing crashes to hold this.
class Compactor {
 public:
  Compactor(RecoveryEngine* engine, LogStoreTarget* target);

  /// One compaction pass over up to `batch_objects` of the oldest live
  /// index entries, followed by a checkpoint when anything moved.
  /// Reports health and a kCompaction flight event either way.
  Status RunOnce(size_t batch_objects);

  const CompactionStats& stats() const { return stats_; }

 private:
  /// Re-logs up to `batch` of the oldest live images as W_IP identity
  /// writes (one force for the batch) and republishes their entries.
  Status MoveOldestImages(size_t batch, uint64_t* images_moved,
                          uint64_t* bytes_moved);

  RecoveryEngine* engine_;
  LogStoreTarget* target_;
  CompactionStats stats_;
  Counter* runs_metric_;
  Counter* bytes_metric_;
};

}  // namespace loglog

#endif  // LOGLOG_LOGSTORE_COMPACTOR_H_
