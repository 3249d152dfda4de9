#include "cache/cache_manager.h"

#include <algorithm>
#include <cassert>

#include "common/retry.h"
#include "fault/fault_injector.h"
#include "graph/refined_write_graph.h"
#include "graph/write_graph_w.h"
#include "logstore/logstore.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "ops/op_builder.h"

namespace loglog {

namespace {

std::unique_ptr<WriteGraph> MakeGraph(GraphKind kind) {
  if (kind == GraphKind::kRefined) {
    return std::make_unique<RefinedWriteGraph>();
  }
  return std::make_unique<WriteGraphW>();
}

}  // namespace

CacheManager::CacheManager(SimulatedDisk* disk, LogManager* log,
                           GraphKind graph_kind, FlushPolicy flush_policy,
                           bool log_installs,
                           std::unique_ptr<InstallTarget> target)
    : disk_(disk),
      log_(log),
      graph_(MakeGraph(graph_kind)),
      flush_policy_(flush_policy),
      log_installs_(log_installs),
      target_(std::move(target)) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  metrics_.purges = reg.GetCounter(metric::kCmPurges);
  metrics_.nodes_installed = reg.GetCounter(metric::kCmNodesInstalled);
  metrics_.ops_installed = reg.GetCounter(metric::kCmOpsInstalled);
  metrics_.identity_writes = reg.GetCounter(metric::kCmIdentityWrites);
  metrics_.identity_bytes = reg.GetCounter(metric::kCmIdentityBytes);
  metrics_.evictions = reg.GetCounter(metric::kCmEvictions);
  metrics_.checkpoints = reg.GetCounter(metric::kCmCheckpoints);
  metrics_.budget_installs = reg.GetCounter(metric::kCmBudgetInstalls);
  metrics_.budget_identity_requests =
      reg.GetCounter(metric::kCmIdentityBudgetRequests);
  metrics_.budget_identity_drops =
      reg.GetCounter(metric::kCmIdentityBudgetDrops);
  metrics_.graph_batches = reg.GetCounter(metric::kCmGraphBatches);
  metrics_.graph_batched_ops = reg.GetCounter(metric::kCmGraphBatchedOps);
  metrics_.flush_set_size = reg.GetHistogram(metric::kCmFlushSetSize);
  if (target_ == nullptr) {
    target_ = std::make_unique<StoreTarget>(disk_, log_, flush_policy_);
  }
}

Status CacheManager::GetValue(ObjectId id, ObjectValue* out,
                              int io_budget) {
  const CachedObject* obj = nullptr;
  LOGLOG_RETURN_IF_ERROR(PeekValue(id, &obj, io_budget));
  *out = obj->value();
  return Status::OK();
}

Status CacheManager::PeekValue(ObjectId id, const CachedObject** out,
                               int io_budget) {
  CachedObject* obj = table_.Find(id);
  if (obj == nullptr) {
    LOGLOG_RETURN_IF_ERROR(FaultIn(id, io_budget, &obj));
  } else if (!obj->exists) {
    return Status::NotFound("object deleted");
  } else {
    table_.Touch(obj);
  }
  *out = obj;
  return Status::OK();
}

Status CacheManager::Fetch(ObjectId id, CachedObject** out) {
  *out = table_.Find(id);
  if (*out != nullptr) return Status::OK();
  return FaultIn(id, kMaxIoRetries, out);
}

Status CacheManager::FaultIn(ObjectId id, int io_budget, CachedObject** out) {
  StoredObject stored;
  LOGLOG_RETURN_IF_ERROR(target_->Load(id, io_budget, &stored));
  CachedObject& obj = table_.GetOrCreate(id);
  obj.SetValue(std::move(stored.value));
  obj.vsi = stored.vsi;
  obj.rsi = kInvalidLsn;
  obj.exists = true;
  table_.Touch(&obj);
  // An installed version is a full image by construction.
  obj.last_full_image = true;
  *out = &obj;
  return Status::OK();
}

bool CacheManager::ObjectExists(ObjectId id) {
  const CachedObject* obj = table_.Find(id);
  return obj != nullptr ? obj->exists : target_->Exists(id);
}

Lsn CacheManager::CurrentVsi(ObjectId id) const {
  const CachedObject* obj = table_.Find(id);
  return obj != nullptr ? obj->vsi : target_->StableVsi(id);
}

void CacheManager::AdoptCompletedFlush(ObjectId id, Slice value, Lsn vsi,
                                       bool exists) {
  CachedObject* obj = table_.Find(id);
  if (obj == nullptr || obj->vsi >= vsi) return;
  obj->SetValue(exists ? value.ToBytes() : ObjectValue{});
  obj->vsi = vsi;
  obj->exists = exists;
}

Lsn CacheManager::CurrentRsi(ObjectId id) const {
  const CachedObject* obj = table_.Find(id);
  return obj == nullptr ? kInvalidLsn : obj->rsi;
}

Status CacheManager::ApplyResults(const OperationDesc& op, Lsn lsn,
                                  std::vector<ObjectValue> new_values) {
  if (op.op_class != OpClass::kDelete &&
      new_values.size() != op.writes.size()) {
    return Status::InvalidArgument("result values do not match writeset");
  }
  for (size_t i = 0; i < op.writes.size(); ++i) {
    CachedObject& obj = table_.GetOrCreate(op.writes[i]);
    if (op.op_class == OpClass::kDelete) {
      obj.SetValue({});
      obj.exists = false;
    } else {
      obj.SetValue(std::move(new_values[i]));
      obj.exists = true;
    }
    obj.vsi = lsn;
    if (obj.rsi == kInvalidLsn) obj.rsi = lsn;
    table_.SetDirty(&obj, true);
    table_.Touch(&obj);
    obj.last_full_image = IsFullImageOp(op);
    ++obj.writes_since_clean;
    if (auto_hot_threshold_ > 0 &&
        obj.writes_since_clean >= auto_hot_threshold_ &&
        auto_hot_.insert(op.writes[i]).second) {
      hot_.insert(op.writes[i]);
    }
  }
  // rW maintenance (union-find merges, edge insertion, SCC collapse) is
  // amortized across a batch: insertions queue here and drain in LSN
  // order the moment anything reads the graph, so observable state never
  // differs from per-append insertion.
  pending_graph_ops_.push_back(PendingOp::FromDesc(lsn, op));
  return Status::OK();
}

void CacheManager::DrainGraphBatch() const {
  if (pending_graph_ops_.empty()) return;
  for (const PendingOp& op : pending_graph_ops_) {
    graph_->AddOperation(op);
  }
  metrics_.graph_batches->Inc();
  metrics_.graph_batched_ops->Inc(pending_graph_ops_.size());
  pending_graph_ops_.clear();
}

ObjectId CacheManager::LargestVarsObject(NodeId v) const {
  const GraphNode* node = graph_->Find(v);
  assert(node != nullptr);
  ObjectId best = kInvalidObjectId;
  size_t best_size = 0;
  for (ObjectId x : node->vars) {
    const CachedObject* obj = table_.Find(x);
    size_t size = obj == nullptr ? 0 : obj->value().size();
    if (best == kInvalidObjectId || size > best_size) {
      best = x;
      best_size = size;
    }
  }
  return best;
}

Status CacheManager::InjectIdentityWrite(ObjectId id) {
  // The injected write must be visible to the caller's next graph read
  // (flush loops re-choose the minimal node after every injection), so
  // it bypasses the batch — after draining, to keep LSN order.
  DrainGraphBatch();
  CachedObject* obj = table_.Find(id);
  if (obj == nullptr) {
    return Status::FailedPrecondition("identity write of uncached object");
  }
  // Enter the graph exactly like a normal blind write of `id`; the value
  // is unchanged.
  PendingOp blind;
  blind.lsn = LogIdentityWrite(id, obj);
  blind.writes = {id};
  blind.blind = {id};
  table_.Touch(obj);
  graph_->AddOperation(blind);
  return Status::OK();
}

Lsn CacheManager::LogIdentityWrite(ObjectId id, CachedObject* obj) {
  // A deleted-but-uninstalled object is "identity written" by re-logging
  // the delete: the blind re-delete peels it out of a node's vars just
  // like an identity value write would.
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.op = obj->exists ? MakeIdentityWrite(id, Slice(obj->value()))
                       : MakeDelete(id);
  Lsn lsn = log_->Append(std::move(rec));
  ++stats_.identity_writes;
  stats_.identity_bytes_logged += obj->value().size();
  metrics_.identity_writes->Inc();
  metrics_.identity_bytes->Inc(obj->value().size());
  // W_IP records (and re-deletes) are full images.
  obj->vsi = lsn;
  obj->last_full_image = true;
  return lsn;
}

void CacheManager::LogInstall(std::vector<InstallEntry> vars,
                              std::vector<InstallEntry> notx) {
  if (!log_installs_) return;
  LogRecord install;
  install.type = RecordType::kInstall;
  install.installed_vars = std::move(vars);
  install.installed_notx = std::move(notx);
  log_->Append(std::move(install));
}

void CacheManager::MarkHot(ObjectId id, bool hot) {
  if (hot) {
    hot_.insert(id);
  } else {
    hot_.erase(id);
  }
}

ObjectId CacheManager::OtherVar(const GraphNode& n, ObjectId keep) {
  auto it = std::find_if(n.vars.begin(), n.vars.end(),
                         [&](ObjectId x) { return x != keep; });
  assert(it != n.vars.end());
  return *it;
}

bool CacheManager::OnlyFresh(const GraphNode& n, const std::set<Lsn>& fresh) {
  return std::all_of(n.ops.begin(), n.ops.end(),
                     [&](Lsn lsn) { return fresh.contains(lsn); });
}

bool CacheManager::AllHot(const GraphNode& n) const {
  return std::all_of(n.vars.begin(), n.vars.end(),
                     [&](ObjectId x) { return hot_.contains(x); });
}

Status CacheManager::PurgeOne(bool allow_hot_flush) {
  DrainGraphBatch();
  if (graph_->empty()) return Status::NotFound("nothing to install");
  ++stats_.purges;
  metrics_.purges->Inc();
  // Under kIdentityWrites, peel multi-object flush sets apart first. Each
  // round either installs a minimal node (|vars| <= 1) or injects one
  // identity write; injections can add predecessors or collapse cycles,
  // so the minimal node is re-chosen every round. Progress: every
  // iteration either removes a node or strictly shrinks some vars set.
  for (int guard = 0; guard < 1 << 20; ++guard) {
    // Choose the minimal node with the oldest operation, skipping (when
    // hot objects are protected) nodes whose flush set is hot-only.
    bool hot_only_seen = false;
    NodeId v = graph_->OldestMinimalNode([&](const GraphNode& n) {
      if (allow_hot_flush || n.vars.empty() || !AllHot(n)) return true;
      hot_only_seen = true;
      return false;
    });
    if (v == kNoNode) {
      // Only hot-only nodes remain. Automatic purging defers them: they
      // stay cached and uninstalled until FlushAll, an explicit
      // PurgeOne(true), or Checkpoint (which installs them by logging —
      // Section 4's install-without-flush).
      return Status::NotFound(hot_only_seen ? "only hot flush sets remain"
                                            : "nothing to install");
    }
    const GraphNode* node = graph_->Find(v);
    if (node->vars.size() <= target_->MaxFlushSet()) return InstallNode(v);
    // Keep the largest object (sparing its value from the log),
    // preferring a non-hot keeper so hot objects stay unflushed.
    ObjectId keep = LargestVarsObject(v);
    if (!allow_hot_flush && hot_.contains(keep)) {
      auto cool = std::find_if(node->vars.begin(), node->vars.end(),
                               [&](ObjectId x) { return !hot_.contains(x); });
      if (cool != node->vars.end()) keep = *cool;
    }
    LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(OtherVar(*node, keep)));
  }
  return Status::Aborted("identity-write peeling did not converge");
}

Status CacheManager::InstallNode(NodeId v) {
  const GraphNode* node = graph_->Find(v);
  if (node == nullptr) return Status::NotFound("no such node");
  if (!node->preds.empty()) {
    return Status::FailedPrecondition("node has uninstalled predecessors");
  }
  // Vars the target cannot install as they stand (the log store publishes
  // records, which must be full images) get a W_IP identity write first;
  // its record carries the value. Under the refined graph the injection
  // peels the object into a fresh successor node, which installs it on
  // its own turn; under W it stays in this node but now installable.
  // Either way each round strictly shrinks the set of such vars, so the
  // loop terminates.
  for (int guard = 0; guard < 1 << 20; ++guard) {
    auto relog = std::find_if(node->vars.begin(), node->vars.end(),
                              [&](ObjectId x) {
                                const CachedObject* obj = table_.Find(x);
                                return obj != nullptr &&
                                       !target_->Installable(*obj);
                              });
    if (relog == node->vars.end()) break;
    LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(*relog));
    // Injection can add edges or collapse cycles; re-check each round.
    graph_->Normalize();
    node = graph_->Find(v);
    // Injections merged the node away; its operations install later.
    if (node == nullptr) return Status::OK();
  }
  // Peeling added fan-in; this node installs on a later purge.
  if (!node->preds.empty()) return Status::OK();

  // WAL: every operation being installed must be stable first — and so
  // must every blind write whose record this installation counts on to
  // regenerate an unexposed (notx) object after a crash.
  LOGLOG_RETURN_IF_ERROR(
      log_->Force(std::max(node->MaxOpLsn(), node->notx_force_lsn)));
  LOGLOG_RETURN_IF_ERROR(
      disk_->fault_injector().MaybeFail(fault::kCmAfterWalForce));

  stats_.flush_set_sizes.Add(node->vars.size());
  stats_.node_writes_sizes.Add(node->vars.size() + node->notx.size());
  metrics_.flush_set_size->Observe(node->vars.size());
  TraceSpan install_span("cm.install_node", "cache");
  install_span.AddArg("vars", static_cast<uint64_t>(node->vars.size()));
  install_span.AddArg("notx", static_cast<uint64_t>(node->notx.size()));

  // Install the current cached versions of vars(n).
  std::vector<ObjectWrite> writes;
  writes.reserve(node->vars.size());
  for (ObjectId x : node->vars) {
    const CachedObject* obj = table_.Find(x);
    if (obj == nullptr) return Status::Corruption("vars object not cached");
    writes.push_back(
        ObjectWrite{x, Slice(obj->value()), obj->vsi, !obj->exists});
  }
  LOGLOG_RETURN_IF_ERROR(target_->InstallSet(writes, &stats_));

  // Remove the node: its operations are installed.
  InstallResult result;
  LOGLOG_RETURN_IF_ERROR(graph_->RemoveNode(v, &result));
  ++stats_.nodes_installed;
  stats_.ops_installed += result.installed_ops.size();
  metrics_.nodes_installed->Inc();
  metrics_.ops_installed->Inc(result.installed_ops.size());
  stats_.installed_without_flush += result.unflushed_objects.size();

  // Advance rSIs for all of Writes(n) = vars ∪ notx (Section 5): an
  // object's rSI becomes the lSI of its first *uninstalled* writer.
  std::vector<InstallEntry> installed_vars;
  std::vector<InstallEntry> installed_notx;
  for (ObjectId x : result.flush_objects) {
    CachedObject* obj = table_.Find(x);
    assert(obj != nullptr);
    Lsn rsi = graph_->FirstUninstalledWriter(x);
    obj->rsi = rsi;
    table_.SetDirty(obj, rsi != kInvalidLsn);
    if (!obj->dirty()) Cool(x, obj);
    installed_vars.push_back(InstallEntry{x, rsi});
    if (!obj->exists && !obj->dirty()) {
      // Installed delete: the object leaves the object table.
      table_.Erase(x);
    }
  }
  for (ObjectId x : result.unflushed_objects) {
    CachedObject* obj = table_.Find(x);
    if (obj == nullptr) continue;
    Lsn rsi = graph_->FirstUninstalledWriter(x);
    // Unexposed objects stay dirty: the cached version was produced by a
    // later (uninstalled) blind write and has not been flushed.
    obj->rsi = rsi;
    table_.SetDirty(obj, true);
    installed_notx.push_back(InstallEntry{x, rsi});
  }
  LogInstall(std::move(installed_vars), std::move(installed_notx));
  return Status::OK();
}

void CacheManager::Cool(ObjectId id, CachedObject* obj) {
  obj->writes_since_clean = 0;
  if (auto_hot_.erase(id) > 0) hot_.erase(id);
}

Status CacheManager::FlushAll() {
  while (true) {
    Status st = PurgeOne();
    if (st.IsNotFound()) break;
    LOGLOG_RETURN_IF_ERROR(st);
  }
  // With an empty graph every remaining dirty object has no uninstalled
  // writers (install-without-flush leftovers); install each directly —
  // after a W_IP re-log if the target cannot take its record as it
  // stands.
  std::vector<ObjectId> dirty;
  table_.ForEach([&](ObjectId id, CachedObject& obj) {
    if (obj.dirty()) dirty.push_back(id);
  });
  for (ObjectId id : dirty) {
    CachedObject* obj = table_.Find(id);
    if (!target_->Installable(*obj)) LogIdentityWrite(id, obj);
    LOGLOG_RETURN_IF_ERROR(log_->Force(obj->vsi));
    LOGLOG_RETURN_IF_ERROR(target_->WriteBack(
        ObjectWrite{id, Slice(obj->value()), obj->vsi, !obj->exists}));
    table_.SetDirty(obj, false);
    obj->rsi = kInvalidLsn;
    Cool(id, obj);
    if (target_->NeedsInstallEvidence()) {
      // Marks this install for recovery's rebuild of the target.
      LogInstall({InstallEntry{id, kInvalidLsn}});
    }
    if (!obj->exists) table_.Erase(id);
  }
  return Status::OK();
}

Status CacheManager::InstallHotNodesByLogging() {
  if (flush_policy_ != FlushPolicy::kIdentityWrites) return Status::OK();
  // Install every currently-minimal hot-only node without flushing: peel
  // each of its vars to zero with identity writes (their values go to
  // the log once), then install the empty node. Repeats until no minimal
  // hot-only node remains; each round installs one node, so it
  // terminates.
  // The identity writes injected here create fresh hot-only nodes of
  // their own; they carry this checkpoint's rSIs and must not be chased.
  std::set<Lsn> fresh_identity_ops;
  while (true) {
    NodeId target = kNoNode;
    for (NodeId id : graph_->MinimalNodes()) {
      const GraphNode* n = graph_->Find(id);
      if (n->vars.empty()) continue;
      if (OnlyFresh(*n, fresh_identity_ops)) continue;
      if (AllHot(*n)) {
        target = id;
        break;
      }
    }
    if (target == kNoNode) return Status::OK();
    while (true) {
      const GraphNode* n = graph_->Find(target);
      if (n == nullptr || n->vars.empty()) break;
      LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(*n->vars.begin()));
      fresh_identity_ops.insert(log_->last_assigned_lsn());
      // Peeling can merge nodes (cycles); re-check the node each round.
      graph_->Normalize();
    }
    // Peeling may have added predecessors (inverse write-read edges from
    // readers of the peeled values). Install only if still minimal; an
    // empty-vars node left behind installs via normal purging once its
    // predecessors go, and the next outer round skips it.
    const GraphNode* after = graph_->Find(target);
    if (after != nullptr && after->preds.empty()) {
      LOGLOG_RETURN_IF_ERROR(InstallNode(target));
    }
  }
}

Status CacheManager::EnforceRecoveryBudget(uint64_t budget_ops,
                                           size_t identity_cap) {
  if (uninstalled_ops() <= budget_ops) return Status::OK();
  DrainGraphBatch();
  TraceSpan span("cm.enforce_budget", "cache");
  span.AddArg("backlog", static_cast<uint64_t>(graph_->op_count()));
  // Flush policies with native multi-object atomicity drain the backlog
  // by ordinary (hot-inclusive) purging; no identity writes involved.
  if (flush_policy_ != FlushPolicy::kIdentityWrites) {
    while (graph_->op_count() > budget_ops) {
      Status st = PurgeOne(true);
      if (st.IsNotFound()) break;
      LOGLOG_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }
  // Proactive W_IP path: install the oldest chains, peeling hot vars
  // with identity writes so they install without a flush (Section 4's
  // install-without-flush, applied on demand instead of at checkpoints).
  // Identity writes injected here form fresh hot-only nodes carrying
  // already-advanced rSIs; chasing them would spin.
  std::set<Lsn> fresh_identity_ops;
  std::set<NodeId> deferred;  // gained preds while peeling; retry next cycle
  size_t identity_used = 0;
  while (graph_->op_count() > budget_ops) {
    // Oldest eligible minimal node = the head of the longest-standing
    // redo chain, exactly what the budget wants installed first.
    NodeId v = kNoNode;
    Lsn best = kMaxLsn;
    for (NodeId id : graph_->MinimalNodes()) {
      if (deferred.contains(id)) continue;
      const GraphNode* n = graph_->Find(id);
      if (OnlyFresh(*n, fresh_identity_ops)) continue;
      if (n->MinOpLsn() < best) {
        best = n->MinOpLsn();
        v = id;
      }
    }
    if (v == kNoNode) break;  // nothing installable left this cycle
    // Peel every hot var (so the node installs without flushing them)
    // and, beyond that, down to a single keeper.
    bool out_of_identity_budget = false;
    while (true) {
      const GraphNode* n = graph_->Find(v);
      if (n == nullptr) break;
      auto hot = std::find_if(n->vars.begin(), n->vars.end(),
                              [&](ObjectId x) { return hot_.contains(x); });
      ObjectId peel = hot != n->vars.end() ? *hot : kInvalidObjectId;
      if (peel == kInvalidObjectId && n->vars.size() > 1) {
        peel = OtherVar(*n, LargestVarsObject(v));
      }
      if (peel == kInvalidObjectId) break;  // flushable as-is
      ++stats_.budget_identity_requests;
      metrics_.budget_identity_requests->Inc();
      if (identity_used >= identity_cap) {
        // Backpressure: the per-cycle W_IP allowance is spent. Drop the
        // request and resume on the next maintenance cycle.
        ++stats_.budget_identity_drops;
        metrics_.budget_identity_drops->Inc();
        out_of_identity_budget = true;
        break;
      }
      ++identity_used;
      LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(peel));
      fresh_identity_ops.insert(log_->last_assigned_lsn());
      // Peeling can merge nodes (cycles); re-check the node each round.
      graph_->Normalize();
    }
    if (out_of_identity_budget) break;
    const GraphNode* after = graph_->Find(v);
    if (after == nullptr) continue;  // merged away; re-scan
    if (!after->preds.empty()) {
      // Peeling added fan-in (readers of the peeled values); leave the
      // node for a later cycle and work on another chain.
      deferred.insert(v);
      continue;
    }
    ++stats_.budget_installs;
    metrics_.budget_installs->Inc();
    LOGLOG_RETURN_IF_ERROR(InstallNode(v));
  }
  span.AddArg("identity_used", static_cast<uint64_t>(identity_used));
  span.AddArg("backlog_after", static_cast<uint64_t>(graph_->op_count()));
  return Status::OK();
}

Status CacheManager::Checkpoint(Lsn truncate_floor, uint64_t txn_watermark) {
  DrainGraphBatch();
  // Advance hot objects' rSIs first: their operations install via
  // logging so the checkpoint can truncate past them without a flush
  // (Section 4: "merely install operations on them via logging, without
  // flushing them immediately").
  LOGLOG_RETURN_IF_ERROR(InstallHotNodesByLogging());
  ++stats_.checkpoints;
  metrics_.checkpoints->Inc();
  TraceSpan span("cm.checkpoint", "cache");
  // The target may log state of its own that the truncation must keep.
  Lsn target_floor = target_->BeginCheckpoint();
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.dot = table_.DirtySnapshot();
  rec.txn_id = txn_watermark;
  Lsn min_rsi = kMaxLsn;
  for (const DotEntry& e : rec.dot) {
    if (e.rsi != kInvalidLsn) min_rsi = std::min(min_rsi, e.rsi);
  }
  Lsn ckpt_lsn = log_->Append(std::move(rec));
  LOGLOG_RETURN_IF_ERROR(log_->Force(ckpt_lsn));
  FlightRecorder::Global().Record(FlightEventType::kCheckpoint, ckpt_lsn);
  // Everything before min(first rSI, the checkpoint itself) is installed
  // in every explanation of the stable state and can be truncated — but
  // never past an active transaction's begin record (truncate_floor): a
  // rollback, at runtime or of a loser after a crash, must still find
  // the full backchain on the retained log.
  log_->TruncateBefore(
      std::min({min_rsi, ckpt_lsn, truncate_floor, target_floor}));
  target_->EndCheckpoint();
  return Status::OK();
}

void CacheManager::EvictTo(size_t capacity) {
  while (table_.size() > capacity) {
    ObjectId victim = table_.OldestClean();
    if (victim == kInvalidObjectId) return;  // everything dirty
    table_.Erase(victim);
    ++stats_.evictions;
    metrics_.evictions->Inc();
  }
}

Status CacheManager::CheckInvariants() {
  DrainGraphBatch();
  LOGLOG_RETURN_IF_ERROR(graph_->CheckInvariants());
  Status out = Status::OK();
  table_.ForEach([&](ObjectId id, const CachedObject& obj) {
    if (!out.ok()) return;
    Lsn first = graph_->FirstUninstalledWriter(id);
    if (obj.dirty() && obj.rsi == kInvalidLsn) {
      out = Status::Corruption("dirty object without rSI");
    }
    if (first != kInvalidLsn && obj.rsi == kInvalidLsn) {
      out = Status::Corruption("uninstalled writer but clean rSI");
    }
    if (first != kInvalidLsn && obj.rsi > first) {
      out = Status::Corruption("rSI later than first uninstalled writer");
    }
  });
  if (out.ok()) {
    HealthRegistry::Global().Set(health::kCacheManager, HealthState::kOk);
  } else {
    HealthRegistry::Global().Set(health::kCacheManager,
                                 HealthState::kFailing, out.ToString());
  }
  return out;
}

}  // namespace loglog
