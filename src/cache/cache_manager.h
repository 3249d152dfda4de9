#ifndef LOGLOG_CACHE_CACHE_MANAGER_H_
#define LOGLOG_CACHE_CACHE_MANAGER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/install_target.h"
#include "cache/object_table.h"
#include "cache/policies.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/write_graph.h"
#include "ops/operation.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"

namespace loglog {

/// Counters for the cache-management experiments (Sections 3-4).
struct CacheStats {
  uint64_t purges = 0;
  uint64_t nodes_installed = 0;
  uint64_t ops_installed = 0;
  uint64_t identity_writes = 0;
  uint64_t identity_bytes_logged = 0;
  uint64_t flush_txns = 0;
  uint64_t flush_txn_values_logged = 0;
  uint64_t flush_txn_bytes_logged = 0;
  uint64_t checkpoints = 0;
  uint64_t evictions = 0;
  uint64_t installed_without_flush = 0;  // objects installed via Notx(n)
  // Recovery-budget enforcement (EnforceRecoveryBudget).
  uint64_t budget_installs = 0;           // nodes installed to fit budget
  uint64_t budget_identity_requests = 0;  // W_IP peels the budget asked for
  uint64_t budget_identity_drops = 0;     // requests denied by the cycle cap
  /// |vars(n)| at flush time — the atomic flush set size distribution.
  Histogram flush_set_sizes;
  /// |Writes(n)| at flush time (vars + notx).
  Histogram node_writes_sizes;
};

/// \brief The cache manager: volatile object state, the write graph, and
/// the install machinery of Figure 4 (PurgeCache) plus Section 4's
/// identity-write policies.
///
/// The CM's duty (Section 3) is to keep the stable database explainable:
/// it installs operations only in write-graph order, honoring the WAL
/// protocol, by installing the vars of minimal nodes into its
/// InstallTarget. It is shared by normal execution and recovery — the
/// redo pass applies operations through the same ApplyResults path, which
/// is what makes recovery idempotent under repeated crashes.
class CacheManager {
 public:
  /// `target` is where installed state lives; nullptr installs into the
  /// disk's StableStore under `flush_policy` (a StoreTarget).
  CacheManager(SimulatedDisk* disk, LogManager* log, GraphKind graph_kind,
               FlushPolicy flush_policy, bool log_installs,
               std::unique_ptr<InstallTarget> target = nullptr);

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  /// Latest value of an object (cache, else the install target). NotFound
  /// if it does not exist or has been deleted. `io_budget` bounds
  /// transient-I/O retries on the cache-miss read (kMaxIoRetries by
  /// default; the rollback path passes kRollbackIoRetries).
  Status GetValue(ObjectId id, ObjectValue* out,
                  int io_budget = kMaxIoRetries);
  /// GetValue without the copy: points `*out` at the cached entry (its
  /// value and version stamp), after the same fault-in and Touch. The
  /// pointer stays valid until the object is evicted, installed as a
  /// delete or rewritten — by ApplyResults, EvictTo, PurgeOne, FlushAll,
  /// EnforceRecoveryBudget or Checkpoint; fault-ins and Touches of other
  /// objects leave it valid.
  Status PeekValue(ObjectId id, const CachedObject** out,
                   int io_budget = kMaxIoRetries);

  /// Whether the object currently exists (cached tombstones considered).
  bool ObjectExists(ObjectId id);

  /// vSI of the latest version (cached if present, else stable).
  Lsn CurrentVsi(ObjectId id) const;
  /// rSI of a cached object (kInvalidLsn if clean or uncached).
  Lsn CurrentRsi(ObjectId id) const;

  /// Recovery completed a committed flush transaction by writing `id`'s
  /// frozen version (`vsi`; `exists` false for an erase) straight to the
  /// stable store. A cached version older than that — redo rebuilt it
  /// from the older stable version before the scan reached the flush —
  /// takes the completed version, so no later read or install brings the
  /// older one back. Newer or uncached versions are left alone.
  void AdoptCompletedFlush(ObjectId id, Slice value, Lsn vsi, bool exists);

  /// Applies an executed (already logged) operation's results: updates
  /// cached values/vSIs/rSIs and adds the operation to the write graph.
  /// `new_values` is aligned with op.writes; ignored for deletes.
  Status ApplyResults(const OperationDesc& op, Lsn lsn,
                      std::vector<ObjectValue> new_values);

  /// PurgeCache (Figure 4): installs one minimal write-graph node —
  /// forcing the log (WAL), flushing vars(n) under the configured
  /// FlushPolicy, advancing rSIs of all of Writes(n), and logging the
  /// installation. Under kIdentityWrites this may first inject W_IP
  /// operations to break the atomic flush set apart. NotFound if there is
  /// nothing to install.
  ///
  /// With allow_hot_flush false (the automatic purge path), nodes whose
  /// entire flush set is *hot* objects are skipped: Section 4's "hot
  /// objects will need to be retained in the cache in any event... we can
  /// decide to merely install operations on them via logging, without
  /// flushing them immediately". Under kIdentityWrites a hot object in a
  /// multi-object set is peeled by an identity write like any other (its
  /// node then waits); FlushAll (allow_hot_flush true) drains everything.
  Status PurgeOne(bool allow_hot_flush = true);

  /// Marks an object hot (see PurgeOne). Hot objects still flush on
  /// FlushAll and on explicit PurgeOne(true).
  void MarkHot(ObjectId id, bool hot);
  bool IsHot(ObjectId id) const { return hot_.contains(id); }

  /// Enables automatic hotness: an object becomes hot after `threshold`
  /// writes without an intervening flush, and cools down when flushed
  /// (0 disables; manual MarkHot always wins and never cools).
  void set_auto_hot_threshold(uint64_t threshold) {
    auto_hot_threshold_ = threshold;
  }

  /// Installs every node and flushes all remaining dirty objects.
  Status FlushAll();

  /// Recovery-budget enforcement (adaptive policy, Section 4's
  /// install-without-flush applied on demand): installs the oldest
  /// chains until at most `budget_ops` uninstalled operations remain.
  /// Under kIdentityWrites, hot vars are peeled with proactive W_IP
  /// identity writes so they install without leaving the cache; at most
  /// `identity_cap` W_IP injections are honored per call (one flush
  /// cycle) — requests beyond the cap are dropped, counted in
  /// stats().budget_identity_drops / cm.identity.budget_drops, and the
  /// backlog is retried next cycle. Staying over budget is never an
  /// error; only I/O and logging failures propagate.
  Status EnforceRecoveryBudget(uint64_t budget_ops, size_t identity_cap);

  /// Writes a (forced) checkpoint record with the dirty object table and
  /// truncates the stable log prefix no explanation still needs.
  /// `truncate_floor` additionally pins the log at the oldest record an
  /// active transaction may still need for rollback (its begin LSN):
  /// truncation never passes it, so a loser's backchain survives every
  /// checkpoint. kMaxLsn means no active transactions. `txn_watermark`
  /// is the highest transaction id issued so far (0 if none); the
  /// checkpoint record carries it so id allocation stays monotone even
  /// after truncation discards every transaction record.
  Status Checkpoint(Lsn truncate_floor = kMaxLsn,
                    uint64_t txn_watermark = 0);

  /// Evicts least-recently-used *clean* objects until at most `capacity`
  /// objects remain (dirty objects are never evicted; the paper requires
  /// an object be clean before leaving the cache).
  void EvictTo(size_t capacity);

  /// Where installed state lives (fixed at construction).
  InstallTarget& target() { return *target_; }

  /// The cached entry for `id` (tombstones included), faulting a clean
  /// copy in from the target on a miss. NotFound if it does not exist.
  Status Fetch(ObjectId id, CachedObject** out);

  /// Appends a W_IP identity write of `obj`'s value (a re-delete for a
  /// tombstone) *outside* the write graph, makes the record obj's version
  /// and returns its LSN. Callers add it to the graph or install it.
  Lsn LogIdentityWrite(ObjectId id, CachedObject* obj);

  /// Appends a kInstall record when install logging is on. Lazily logged
  /// (not forced): losing it merely costs extra redos.
  void LogInstall(std::vector<InstallEntry> vars,
                  std::vector<InstallEntry> notx = {});

  ObjectTable& table() { return table_; }
  const ObjectTable& table() const { return table_; }
  /// The rW write graph. Accessing it drains the pending batch first so
  /// callers always observe the graph as if maintenance were per-append.
  WriteGraph& graph() {
    DrainGraphBatch();
    return *graph_;
  }
  const WriteGraph& graph() const {
    DrainGraphBatch();
    return *graph_;
  }
  const CacheStats& stats() const { return stats_; }
  size_t uninstalled_ops() const {
    return graph_->op_count() + pending_graph_ops_.size();
  }

  /// Structural audit for tests: object-table/graph rSI agreement plus
  /// write-graph invariants.
  Status CheckInvariants();

 private:
  /// Installs vars(v) into the target and removes v from the graph; v
  /// must be minimal.
  Status InstallNode(NodeId v);
  /// Cache-miss path: reads the installed version from the target and
  /// populates the cache clean.
  Status FaultIn(ObjectId id, int io_budget, CachedObject** out);
  /// Flushed clean: the hotness window restarts (auto-hot cools).
  void Cool(ObjectId id, CachedObject* obj);
  /// The first var of `n` other than `keep` (n must have one).
  static ObjectId OtherVar(const GraphNode& n, ObjectId keep);
  /// Every operation of `n` is one of the `fresh` identity writes.
  static bool OnlyFresh(const GraphNode& n, const std::set<Lsn>& fresh);
  /// Every var of `n` is hot (true for an empty set).
  bool AllHot(const GraphNode& n) const;
  /// Section 4 install-without-flush: installs every minimal hot-only
  /// node by peeling its vars to zero with identity writes (one logged
  /// value per hot object) and installing the empty node. Run by
  /// Checkpoint so hot objects' rSIs advance without a single flush.
  Status InstallHotNodesByLogging();
  /// Logs a W_IP identity write for `id` and runs it through the graph,
  /// peeling it out of its node's vars.
  Status InjectIdentityWrite(ObjectId id);
  /// Picks the vars object of `v` to keep (not identity-write): the one
  /// with the largest cached value, maximizing saved log volume.
  ObjectId LargestVarsObject(NodeId v) const;
  /// Flushes the pending graph batch into the write graph in LSN order.
  /// Const because reads trigger it (the graph lives behind a pointer,
  /// and the batch is declared mutable): logically the graph already
  /// contains these operations.
  void DrainGraphBatch() const;

  /// Global-registry twins of the hot CacheStats counters (fetched once
  /// in the constructor; incremented beside the struct fields so metrics
  /// snapshots see the same quantities without touching CacheStats).
  struct Instruments {
    Counter* purges;
    Counter* nodes_installed;
    Counter* ops_installed;
    Counter* identity_writes;
    Counter* identity_bytes;
    Counter* evictions;
    Counter* checkpoints;
    Counter* budget_installs;
    Counter* budget_identity_requests;
    Counter* budget_identity_drops;
    Counter* graph_batches;
    Counter* graph_batched_ops;
    HistogramMetric* flush_set_size;
  };

  SimulatedDisk* disk_;
  LogManager* log_;
  std::unique_ptr<WriteGraph> graph_;
  ObjectTable table_;
  Instruments metrics_;
  FlushPolicy flush_policy_;
  bool log_installs_;
  std::unique_ptr<InstallTarget> target_;
  CacheStats stats_;
  std::set<ObjectId> hot_;
  std::set<ObjectId> auto_hot_;
  uint64_t auto_hot_threshold_ = 0;
  /// Graph insertions not yet applied, in LSN order (mutable: reads
  /// drain; see DrainGraphBatch).
  mutable std::vector<PendingOp> pending_graph_ops_;
};

}  // namespace loglog

#endif  // LOGLOG_CACHE_CACHE_MANAGER_H_
