#ifndef LOGLOG_ENGINE_OPTIONS_H_
#define LOGLOG_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "adapt/policy_options.h"
#include "cache/policies.h"
#include "common/status.h"

namespace loglog {

/// Where installed object state durably lives. RecoveryEngine turns the
/// choice into the cache manager's InstallTarget (cache/install_target.h).
enum class StorageBackend {
  /// Classic dual-write: installation flushes object images to the
  /// StableStore, and cache misses read the store. Baseline.
  kDualWrite,
  /// Log-as-database (logstore/logstore_target.h): the log IS the store.
  /// Installation publishes a LogIndex entry pointing at the object's
  /// last stable full-image record; cache misses read the image back
  /// from the log device — hot retained window or spilled cold tier.
  kLogStore,
};

/// Log-as-database (StorageBackend::kLogStore) tuning.
struct LogStoreOptions {
  /// Run a compaction pass after this many operations (0 = only explicit
  /// Compact() calls). Each pass re-logs up to compact_batch_objects of
  /// the oldest live images forward as W_IP identity records, republishes
  /// their index entries, and checkpoints so truncation can reclaim the
  /// bytes behind the new minimum.
  size_t compact_interval_ops = 0;
  /// Live images moved per compaction pass. Small batches bound the
  /// foreground stall a pass can cause; the cadence supplies throughput.
  size_t compact_batch_objects = 8;
  /// Keep every spilled cold segment forever (the default: full history
  /// stays replayable, which crash verification depends on). Turned off,
  /// each checkpoint garbage-collects cold segments wholly below the
  /// oldest live index offset — the bound compaction exists to advance.
  /// Without compaction one cold object pins the entire archive; with a
  /// steady cadence the footprint stays a small multiple of the live
  /// bytes (see bench_logstore's space-amplification series).
  bool cold_retention_full = true;
};

/// Recovery-pass tuning.
struct RecoveryOptions {
  /// Worker threads for the partitioned REDO pass. <= 1 keeps the serial
  /// scan; higher values replay independent write-graph components of
  /// the redo workload concurrently (see src/recovery/parallel_redo.h).
  int redo_threads = 1;
};

/// \brief Configuration of a RecoveryEngine.
///
/// The four enums select one point in the paper's design space; the
/// benchmarks sweep them against each other (logical vs physiological
/// logging, W vs rW, identity writes vs flush transactions vs shadows,
/// and the three REDO tests).
struct EngineOptions {
  LoggingMode logging_mode = LoggingMode::kLogical;
  GraphKind graph_kind = GraphKind::kRefined;
  FlushPolicy flush_policy = FlushPolicy::kIdentityWrites;
  RedoTestKind redo_test = RedoTestKind::kRsiGeneralized;

  /// Install nodes whenever more than this many uninstalled operations
  /// accumulate (0 disables automatic purging).
  size_t purge_threshold_ops = 128;
  /// Take a checkpoint (and truncate the log) every N operations
  /// (0 = only on explicit Checkpoint() calls).
  size_t checkpoint_interval_ops = 0;
  /// Evict clean objects beyond this cache size (0 = unbounded).
  size_t cache_capacity_objects = 0;
  /// Log installation records (Section 5). Turning this off degrades the
  /// analysis pass's rSIs but never correctness.
  bool log_installs = true;
  /// Automatic hot-object detection: after this many writes without an
  /// intervening flush an object is treated as hot (installed by
  /// identity-write logging at checkpoints instead of flushed by the
  /// automatic purge; Section 4). 0 disables; MarkHot remains manual.
  uint64_t auto_hot_write_threshold = 0;
  /// Recovery-pass tuning (parallel partitioned REDO).
  RecoveryOptions recovery;
  /// How LogManager::Force maps force obligations onto device appends
  /// (group commit when not kImmediate).
  ForcePolicy wal_force_policy = ForcePolicy::kImmediate;
  /// Batch byte budget for ForcePolicy::kSizeThreshold.
  size_t wal_group_bytes = 1 << 16;
  /// Recovery-time budget, expressed as the maximum uninstalled-operation
  /// backlog (the bound on REDO work a crash can leave behind). 0 means
  /// unbounded. When the adaptive policy is enabled and the backlog
  /// exceeds the budget, maintenance asks the cache manager to install
  /// the oldest chains — peeling hot objects with proactive W_IP identity
  /// writes — until the backlog fits again (see
  /// CacheManager::EnforceRecoveryBudget).
  uint64_t recovery_budget = 0;
  /// Adaptive logging-policy engine (src/adapt/): per-object runtime
  /// choice of W_P / W_PL / W_L driven by an online cost model, plus the
  /// budget-driven W_IP requests above. Off by default.
  AdaptivePolicyOptions adaptive;
  /// Where installed object state durably lives. Under kLogStore the
  /// StableStore sees no object writes: installation is an index publish,
  /// reads fall through to the log, and the compactor + log truncation
  /// replace store-side space management. Validate() rejects kLogStore with
  /// log_installs = false, redo_test = kAlways or redo_threads > 1.
  StorageBackend backend = StorageBackend::kDualWrite;
  /// Log-as-database tuning; only read when backend == kLogStore.
  LogStoreOptions logstore;
  /// InvalidArgument for settings that cannot work together. Options are
  /// never rewritten: RecoveryEngine's Recover() and Execute() return
  /// this error instead.
  Status Validate() const;
};

}  // namespace loglog

#endif  // LOGLOG_ENGINE_OPTIONS_H_
