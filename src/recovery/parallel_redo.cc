#include "recovery/parallel_redo.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/retry.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/function_registry.h"
#include "recovery/recovery_driver.h"
#include "recovery/redo_test.h"

namespace loglog {

namespace {

/// Union-find over dense node indices (one node per distinct object).
class UnionFind {
 public:
  int Make() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return parent_.back();
  }
  int Find(int a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];  // path halving
      a = parent_[a];
    }
    return a;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<int> parent_;
};

/// Every object a record can touch during redo (the conflict footprint).
void RecordObjects(const LogRecord& rec, std::vector<ObjectId>* out) {
  out->clear();
  if (rec.type == RecordType::kOperation ||
      rec.type == RecordType::kCompensation) {
    out->insert(out->end(), rec.op.reads.begin(), rec.op.reads.end());
    out->insert(out->end(), rec.op.writes.begin(), rec.op.writes.end());
  } else if (rec.type == RecordType::kFlushTxnBegin) {
    for (const FlushValue& fv : rec.flush_values) out->push_back(fv.id);
  }
}

/// Worker-private object view over one component, mirroring the cache
/// manager's cached-else-stable semantics exactly — every vSI a worker
/// consults and every value it reads is what the serial scan would have
/// seen at the same record, because all state a component's records can
/// observe belongs to the component.
class ComponentView final : public VsiView {
 public:
  ComponentView(StableStore* store, uint64_t* io_retries)
      : store_(store), io_retries_(io_retries) {}

  Lsn CurrentVsi(ObjectId x) const override {
    auto it = entries_.find(x);
    if (it != entries_.end()) return it->second.vsi;
    return store_->StableVsi(x);
  }

  /// CacheManager::GetValue semantics: a cached tombstone is NotFound; a
  /// miss loads (and caches) from the stable store; a missing stable
  /// object is NotFound without caching a tombstone.
  Status Get(ObjectId x, ObjectValue* out) {
    auto it = entries_.find(x);
    if (it != entries_.end()) {
      if (!it->second.exists) return Status::NotFound("object deleted");
      *out = it->second.value;
      return Status::OK();
    }
    StoredObject stored;
    LOGLOG_RETURN_IF_ERROR(RetryTransientIo(
        io_retries_, [&] { return store_->Read(x, &stored); }));
    Entry& e = entries_[x];
    e.value = std::move(stored.value);
    e.vsi = stored.vsi;
    e.exists = true;
    *out = e.value;
    return Status::OK();
  }

  void ApplyWrite(ObjectId x, const ObjectValue& v, Lsn lsn) {
    Entry& e = entries_[x];
    e.value = v;
    e.vsi = lsn;
    e.exists = true;
  }

  void ApplyDelete(ObjectId x, Lsn lsn) {
    Entry& e = entries_[x];
    e.value.clear();
    e.vsi = lsn;
    e.exists = false;
  }

 private:
  struct Entry {
    ObjectValue value;
    Lsn vsi = kInvalidLsn;
    bool exists = false;
  };
  StableStore* store_;
  uint64_t* io_retries_;
  std::unordered_map<ObjectId, Entry> entries_;
};

/// Cached progress-gauge pointers: workers update these live so a poller
/// watching recovery.progress.* sees per-record advance, not one jump at
/// the merge. Registry pointers are stable, so the static is safe.
struct ProgressGauges {
  Gauge* done;
  Gauge* redone;
  Gauge* bytes;
  Gauge* components_total;
  Gauge* components_done;
};

ProgressGauges& Progress() {
  static ProgressGauges g{
      MetricsRegistry::Global().GetGauge(
          metric::kRecoveryProgressRecordsDone),
      MetricsRegistry::Global().GetGauge(
          metric::kRecoveryProgressRecordsRedone),
      MetricsRegistry::Global().GetGauge(metric::kRecoveryProgressBytes),
      MetricsRegistry::Global().GetGauge(
          metric::kRecoveryProgressComponentsTotal),
      MetricsRegistry::Global().GetGauge(
          metric::kRecoveryProgressComponentsDone)};
  return g;
}

/// A redone operation's captured results (or a completed flush
/// transaction, whose frozen versions the cache adopts), applied to the
/// cache manager in global LSN order after the workers join.
struct AppliedOp {
  Lsn lsn = kInvalidLsn;
  const LogRecord* rec = nullptr;
  std::vector<ObjectValue> values;  // aligned with op.writes; empty: delete
};

/// Per-worker accumulator. Nothing here is shared while workers run.
struct WorkerLocal {
  ParallelRedoResult counters;
  std::vector<AppliedOp> applied;
  Status error;
  Lsn error_component = kMaxLsn;  // min LSN of the failing component

  void Fail(Status st, Lsn component_min_lsn) {
    if (error.ok() || component_min_lsn < error_component) {
      error = std::move(st);
      error_component = component_min_lsn;
    }
  }
};

/// Mirror of the serial RedoOperation (recovery_driver.cc) against a
/// component view: same trial-execution voiding, same preloads, but
/// results are captured for the post-join merge instead of going to the
/// cache immediately.
Status ReplayOp(RedoTestKind redo_test, const AnalysisResult& analysis,
                ComponentView* view, const LogRecord* rec,
                WorkerLocal* local) {
  const OperationDesc& op = rec->op;
  const Lsn lsn = rec->lsn;
  ProgressGauges& progress = Progress();
  RedoDecision decision = TestRedo(redo_test, op, lsn, analysis, *view);
  if (decision == RedoDecision::kSkipInstalled) {
    ++local->counters.ops_skipped_installed;
    progress.done->Add(1);
    return Status::OK();
  }
  if (decision == RedoDecision::kSkipUnexposed) {
    ++local->counters.ops_skipped_unexposed;
    progress.done->Add(1);
    return Status::OK();
  }
  if (op.op_class == OpClass::kDelete) {
    for (ObjectId x : op.writes) view->ApplyDelete(x, lsn);
    local->applied.push_back({lsn, rec, {}});
    ++local->counters.ops_redone;
    progress.done->Add(1);
    progress.redone->Add(1);
    return Status::OK();
  }
  std::vector<ObjectValue> read_values;
  read_values.reserve(op.reads.size());
  for (ObjectId r : op.reads) {
    if (view->CurrentVsi(r) >= lsn) {
      // The read object is newer than this operation: installed in every
      // explanation; re-execution would be erroneous.
      ++local->counters.ops_voided;
      progress.done->Add(1);
      return Status::OK();
    }
    ObjectValue v;
    Status st = view->Get(r, &v);
    if (st.IsNotFound()) {
      ++local->counters.ops_voided;  // input no longer exists
      progress.done->Add(1);
      return Status::OK();
    }
    LOGLOG_RETURN_IF_ERROR(st);
    read_values.push_back(std::move(v));
  }
  std::vector<ObjectValue> write_values(op.writes.size());
  for (size_t i = 0; i < op.writes.size(); ++i) {
    ObjectValue v;
    if (view->Get(op.writes[i], &v).ok()) write_values[i] = std::move(v);
  }
  Status st = FunctionRegistry::Global().Apply(op, read_values, &write_values);
  if (!st.ok()) {
    // Case (c) of Section 5: execution against inapplicable state raised
    // an error — void the replay.
    ++local->counters.ops_voided;
    progress.done->Add(1);
    return Status::OK();
  }
  uint64_t bytes = 0;
  for (size_t i = 0; i < op.writes.size(); ++i) {
    bytes += write_values[i].size();
    view->ApplyWrite(op.writes[i], write_values[i], lsn);
  }
  local->counters.redo_value_bytes += bytes;
  local->applied.push_back({lsn, rec, std::move(write_values)});
  ++local->counters.ops_redone;
  progress.done->Add(1);
  progress.redone->Add(1);
  progress.bytes->Add(static_cast<int64_t>(bytes));
  if (op.op_class == OpClass::kLogical) ++local->counters.expensive_redos;
  return Status::OK();
}

/// Mirror of the serial flush-transaction completion: re-apply the frozen
/// values to the stable store wherever it is behind. The store writes go
/// straight to the (thread-safe) store — any record that could observe
/// them shares an object with this one and thus sits in this component,
/// *after* this record in LSN order. The view adopts the completed
/// versions now and the cache at the merge, at this record's LSN.
Status CompleteFlushTxn(StableStore* store, const LogRecord* rec,
                        ComponentView* view, WorkerLocal* local) {
  bool applied = false;
  for (const FlushValue& fv : rec->flush_values) {
    if (fv.erase) {
      if (store->Exists(fv.id)) {
        LOGLOG_RETURN_IF_ERROR(
            RetryTransientIo(&local->counters.io_retries,
                             [&] { return store->Erase(fv.id); }));
        applied = true;
      }
    } else if (store->StableVsi(fv.id) < fv.vsi) {
      LOGLOG_RETURN_IF_ERROR(
          VerifiedStableWrite(store, &local->counters.io_retries, fv.id,
                              Slice(fv.value), fv.vsi));
      applied = true;
    }
  }
  for (const FlushValue& fv : rec->flush_values) {
    if (view->CurrentVsi(fv.id) >= fv.vsi) continue;
    if (fv.erase) {
      view->ApplyDelete(fv.id, fv.vsi);
    } else {
      view->ApplyWrite(fv.id, fv.value, fv.vsi);
    }
  }
  local->applied.push_back({rec->lsn, rec, {}});
  if (applied) ++local->counters.flush_txns_completed;
  return Status::OK();
}

}  // namespace

Status ParallelRedo(SimulatedDisk* disk, CacheManager* cm,
                    RedoTestKind redo_test, const AnalysisResult& analysis,
                    const std::vector<LogRecord>& work, int threads,
                    ParallelRedoResult* result) {
  *result = ParallelRedoResult{};
  if (work.empty()) return Status::OK();

  // Partition the workload into connected components: two records
  // conflict when they share any object.
  TraceSpan partition_span("redo.partition", "recovery");
  UnionFind uf;
  std::unordered_map<ObjectId, int> node_of;
  std::vector<ObjectId> ids;
  std::vector<int> item_node(work.size(), -1);
  for (size_t i = 0; i < work.size(); ++i) {
    RecordObjects(work[i], &ids);
    int first = -1;
    for (ObjectId x : ids) {
      auto [it, inserted] = node_of.try_emplace(x, -1);
      if (inserted) it->second = uf.Make();
      if (first < 0) {
        first = it->second;
      } else {
        uf.Union(first, it->second);
      }
    }
    item_node[i] = first;  // -1: empty footprint, nothing to replay
  }
  std::unordered_map<int, size_t> comp_of_root;
  std::vector<std::vector<const LogRecord*>> components;
  for (size_t i = 0; i < work.size(); ++i) {
    if (item_node[i] < 0) continue;
    int root = uf.Find(item_node[i]);
    auto [it, inserted] = comp_of_root.try_emplace(root, components.size());
    if (inserted) components.emplace_back();
    // `work` is LSN-ascending, so each component list is too: replay
    // within a component follows the serial scan's order.
    components[it->second].push_back(&work[i]);
  }
  result->components = components.size();
  MetricsRegistry::Global()
      .GetCounter(metric::kRecoveryComponents)
      ->Inc(result->components);
  Progress().components_total->Add(
      static_cast<int64_t>(components.size()));
  partition_span.AddArg("records", static_cast<uint64_t>(work.size()));
  partition_span.AddArg("components",
                        static_cast<uint64_t>(components.size()));
  partition_span.End();

  // Largest components first for load balance on the shared queue; ties
  // keep first-appearance (ascending min-LSN) order.
  std::vector<size_t> order(components.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return components[a].size() > components[b].size();
  });

  const size_t worker_count =
      std::min(static_cast<size_t>(std::max(threads, 1)), components.size());
  std::vector<WorkerLocal> locals(std::max<size_t>(worker_count, 1));
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  FaultInjector* inj = &disk->fault_injector();
  StableStore* store = &disk->store();

  auto run_worker = [&](WorkerLocal* local, size_t worker_index) {
    ScopedThreadName worker_name("redo-worker-" +
                                 std::to_string(worker_index));
    TraceSpan worker_span("redo.worker", "recovery",
                          {{"worker", std::to_string(worker_index)}});
    uint64_t claimed = 0;
    while (!abort.load(std::memory_order_relaxed)) {
      const size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= order.size()) break;
      const std::vector<const LogRecord*>& comp = components[order[k]];
      const Lsn min_lsn = comp.front()->lsn;
      ++claimed;
      TraceSpan comp_span("redo.component", "recovery",
                          {{"min_lsn", std::to_string(min_lsn)},
                           {"records", std::to_string(comp.size())}});
      Status st = RetryTransientIo(&local->counters.io_retries, [&] {
        return inj->MaybeFail(fault::kRedoWorker);
      });
      if (st.ok()) {
        ComponentView view(store, &local->counters.io_retries);
        for (const LogRecord* rec : comp) {
          // Compensation records replay exactly like forward operations.
          st = rec->type == RecordType::kFlushTxnBegin
                   ? CompleteFlushTxn(store, rec, &view, local)
                   : ReplayOp(redo_test, analysis, &view, rec, local);
          if (!st.ok()) break;
        }
      }
      if (!st.ok()) {
        local->Fail(std::move(st), min_lsn);
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      FlightRecorder::Global().Record(FlightEventType::kRedoComponent,
                                      min_lsn, comp.size(), worker_index);
      Progress().components_done->Add(1);
    }
    worker_span.AddArg("components", claimed);
  };

  if (worker_count <= 1) {
    run_worker(&locals[0], 0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(worker_count);
    for (size_t w = 0; w < worker_count; ++w) {
      pool.emplace_back(run_worker, &locals[w], w);
    }
    for (std::thread& t : pool) t.join();
  }

  // Merge. Retry accounting folds into the disk stats either way; on a
  // worker error the earliest affected component's status is surfaced and
  // the cache is left untouched (the run will be redone from scratch).
  Status error;
  Lsn error_at = kMaxLsn;
  for (const WorkerLocal& local : locals) {
    disk->stats().io_retries += local.counters.io_retries;
    result->io_retries += local.counters.io_retries;
    if (!local.error.ok() && local.error_component < error_at) {
      error = local.error;
      error_at = local.error_component;
    }
  }
  if (!error.ok()) return error;

  TraceSpan apply_span("redo.apply", "recovery");
  std::vector<AppliedOp> applied;
  for (WorkerLocal& local : locals) {
    result->ops_redone += local.counters.ops_redone;
    result->ops_skipped_installed += local.counters.ops_skipped_installed;
    result->ops_skipped_unexposed += local.counters.ops_skipped_unexposed;
    result->ops_voided += local.counters.ops_voided;
    result->flush_txns_completed += local.counters.flush_txns_completed;
    result->redo_value_bytes += local.counters.redo_value_bytes;
    result->expensive_redos += local.counters.expensive_redos;
    applied.insert(applied.end(),
                   std::make_move_iterator(local.applied.begin()),
                   std::make_move_iterator(local.applied.end()));
  }
  // Global LSN order rebuilds the cache and write graph exactly as the
  // serial scan's interleaved ApplyResults calls would have.
  std::sort(applied.begin(), applied.end(),
            [](const AppliedOp& a, const AppliedOp& b) { return a.lsn < b.lsn; });
  for (AppliedOp& a : applied) {
    if (a.rec->type == RecordType::kFlushTxnBegin) {
      for (const FlushValue& fv : a.rec->flush_values) {
        cm->AdoptCompletedFlush(fv.id, Slice(fv.value), fv.vsi, !fv.erase);
      }
      continue;
    }
    LOGLOG_RETURN_IF_ERROR(
        cm->ApplyResults(a.rec->op, a.lsn, std::move(a.values)));
  }
  apply_span.AddArg("ops", static_cast<uint64_t>(applied.size()));
  return Status::OK();
}

}  // namespace loglog
