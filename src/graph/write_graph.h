#ifndef LOGLOG_GRAPH_WRITE_GRAPH_H_
#define LOGLOG_GRAPH_WRITE_GRAPH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/pending_op.h"

namespace loglog {

/// Identifier of a write-graph node.
using NodeId = uint64_t;
inline constexpr NodeId kNoNode = 0;

/// \brief A write-graph node.
///
/// Objects in vars(n) must be flushed (atomically, as one set) to install
/// the operations in ops(n). In the refined graph rW, Writes(n) may exceed
/// vars(n): the difference Notx(n) holds objects whose last values became
/// unexposed — they are *installed* by the flush without being written.
struct GraphNode {
  NodeId id = kNoNode;
  /// Uninstalled operations associated with the node (ascending LSN).
  std::set<Lsn> ops;
  /// Objects that must be flushed to install ops — vars(n).
  std::set<ObjectId> vars;
  /// Unexposed written objects — Notx(n) = Writes(n) − vars(n).
  std::set<ObjectId> notx;
  /// Edges: this node must be installed before each successor.
  std::set<NodeId> succs;
  std::set<NodeId> preds;
  /// Highest LSN of a blind write that peeled an object off vars into
  /// notx. Installing this node relies on those records to regenerate
  /// the unexposed values, so the WAL force at installation must cover
  /// them too — forcing only MaxOpLsn() would let a crash lose the
  /// regenerating record while the peeled object's stale value is
  /// already "installed" and unrecoverable.
  Lsn notx_force_lsn = kInvalidLsn;

  Lsn MinOpLsn() const { return ops.empty() ? kMaxLsn : *ops.begin(); }
  Lsn MaxOpLsn() const { return ops.empty() ? kInvalidLsn : *ops.rbegin(); }
};

/// What installing (removing) a node means for the cache manager.
struct InstallResult {
  /// Operations installed, ascending LSN.
  std::vector<Lsn> installed_ops;
  /// Objects that must be flushed atomically (vars(n)).
  std::vector<ObjectId> flush_objects;
  /// Objects installed without flushing (Notx(n)); they stay dirty.
  std::vector<ObjectId> unflushed_objects;
};

/// Construction/installation counters for the experiments on graph shape.
struct GraphStats {
  uint64_t ops_added = 0;
  uint64_t merges = 0;            // first-collapse node merges
  uint64_t cycle_collapses = 0;   // SCCs of size > 1 collapsed
  uint64_t cycle_nodes_merged = 0;
  uint64_t ww_edges = 0;          // write-write edges added (rW step 4)
  uint64_t inverse_wr_edges = 0;  // inverse write-read edges (rW step 4)
  uint64_t rw_edges = 0;          // read-write edges
  uint64_t vars_removed = 0;      // objects peeled off vars by blind writes
};

/// \brief Common machinery for the write graph `W` (Figure 3) and the
/// refined write graph `rW` (Figure 6).
///
/// Tracks, per object, the uninstalled readers/writers and the readers of
/// the last write (Lastw), from which both graphs derive their edges.
/// Subclasses implement AddOperation; installation (PurgeCache's removal
/// of a minimal node) is shared.
class WriteGraph {
 public:
  virtual ~WriteGraph() = default;

  /// Incorporates a newly logged, uninstalled operation.
  virtual void AddOperation(const PendingOp& op) = 0;

  /// Human-readable kind, for stats output.
  virtual const char* Kind() const = 0;

  /// Makes the graph acyclic by collapsing strongly connected components
  /// (the second collapse of Figure 3). Idempotent. Only a node that a
  /// new edge entered, or that received a merge, can lie on a new cycle,
  /// so Normalize searches forward from those suspects alone and runs
  /// the full Tarjan pass only when one of them reaches itself (or when
  /// the suspects outnumber the nodes).
  void Normalize();

  /// A node with no predecessors (after Normalize), deterministically the
  /// one containing the oldest operation; kNoNode if the graph is empty.
  NodeId MinimalNode();

  /// The first minimal node (after Normalize), in ascending (MinOpLsn,
  /// id) order, for which `accept` holds; kNoNode if none does. Costs
  /// O(log n) plus one `accept` call per node it passes over. `accept`
  /// must not change the graph.
  NodeId OldestMinimalNode(
      const std::function<bool(const GraphNode&)>& accept);

  /// All minimal nodes (after Normalize), in ascending id order.
  std::vector<NodeId> MinimalNodes();

  /// Installs the operations of a minimal node: removes the node and all
  /// bookkeeping for its ops. Caller must have flushed vars(n) (or be
  /// PurgeCache about to). Fails if the node has predecessors.
  Status RemoveNode(NodeId id, InstallResult* result);

  /// Node whose vars contain `id`, or kNoNode.
  NodeId NodeOwningVar(ObjectId id) const;

  /// Node containing operation `lsn`, or kNoNode.
  NodeId NodeOfOp(Lsn lsn) const;

  /// LSN of the earliest uninstalled operation writing `id`, or
  /// kInvalidLsn if none: exactly the object's rSI after its current
  /// writers install (Section 5).
  Lsn FirstUninstalledWriter(ObjectId id) const;

  /// True while any uninstalled operation has read `id`. A new writer of
  /// the object must not install ahead of such readers (the rW edge
  /// discipline); out-of-graph writers — the log-store compactor's W_IP
  /// rewrites — consult this to stay within it.
  bool HasUninstalledReader(ObjectId id) const;

  /// The node and all its (transitive) predecessors in installation order
  /// (predecessors first) — what must be installed to get `id` flushed.
  std::vector<NodeId> InstallClosure(NodeId id);

  const GraphNode* Find(NodeId id) const;
  bool empty() const { return nodes_.empty(); }
  size_t node_count() const { return nodes_.size(); }
  size_t op_count() const { return op_node_.size(); }

  const GraphStats& stats() const { return stats_; }

  /// Checks structural invariants (unique vars owner, edge symmetry,
  /// the minimal-node order, acyclicity after Normalize). Test/debug
  /// use.
  Status CheckInvariants();

  std::string DebugString() const;

 protected:
  struct ObjectState {
    /// Uninstalled ops that read the object (read-write edge sources).
    std::set<Lsn> readers;
    /// Uninstalled ops that write the object (rSI bookkeeping).
    std::set<Lsn> writers;
    /// Uninstalled ops that read the object's *current* (last-written)
    /// value — the readers of Lastw(p, X) in Figure 6.
    std::set<Lsn> readers_of_last_write;
    /// Node holding the object in vars, if any.
    NodeId vars_owner = kNoNode;
  };

  NodeId NewNode();
  GraphNode& Node(NodeId id);
  const GraphNode& Node(NodeId id) const;
  /// Adds edge from → to (from installs first); ignores self-edges.
  void AddEdge(NodeId from, NodeId to);
  /// Merges node `src` into `dst` (ops, vars, notx, edges, ownership).
  void MergeInto(NodeId dst, NodeId src);
  /// Registers op bookkeeping common to both graphs (readers/writers/
  /// last-write tracking, op->node). Call after the op's node is final.
  void TrackOp(const PendingOp& op, NodeId node);
  ObjectState& ObjState(ObjectId id) { return objects_[id]; }
  /// The full Tarjan pass: collapses every strongly connected component
  /// of size > 1 and clears the cycle suspects.
  void CollapseCycles();

  std::map<NodeId, GraphNode> nodes_;
  std::unordered_map<Lsn, PendingOp> pending_ops_;
  std::unordered_map<Lsn, NodeId> op_node_;
  std::unordered_map<ObjectId, ObjectState> objects_;
  GraphStats stats_;
  NodeId next_node_id_ = 1;

 private:
  /// A cycle lies among the nodes reachable from the suspects, which
  /// (the graph being acyclic before them) is exactly when some suspect
  /// reaches itself. O(nodes + edges reachable from the suspects).
  bool CycleReachableFromSuspects() const;
  /// Files `n` in sources_ if it has no predecessors (Source), or takes
  /// it out (Unsource); call around every change to n's preds or ops.
  void Source(const GraphNode& n);
  void Unsource(const GraphNode& n);

  /// Nodes a new edge entered or a merge grew since the last Normalize
  /// (may repeat, or name nodes since merged away or installed).
  std::vector<NodeId> cycle_suspects_;
  /// Nodes with no predecessors as (MinOpLsn, id), oldest first.
  std::set<std::pair<Lsn, NodeId>> sources_;
};

}  // namespace loglog

#endif  // LOGLOG_GRAPH_WRITE_GRAPH_H_
