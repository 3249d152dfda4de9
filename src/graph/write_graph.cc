#include "graph/write_graph.h"

#include <algorithm>
#include <cassert>

namespace loglog {

NodeId WriteGraph::NewNode() {
  NodeId id = next_node_id_++;
  GraphNode& n = nodes_[id];
  n.id = id;
  Source(n);
  return id;
}

GraphNode& WriteGraph::Node(NodeId id) {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return it->second;
}

const GraphNode& WriteGraph::Node(NodeId id) const {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return it->second;
}

void WriteGraph::Source(const GraphNode& n) {
  if (n.preds.empty()) sources_.emplace(n.MinOpLsn(), n.id);
}

void WriteGraph::Unsource(const GraphNode& n) {
  if (n.preds.empty()) sources_.erase({n.MinOpLsn(), n.id});
}

void WriteGraph::AddEdge(NodeId from, NodeId to) {
  if (from == to || from == kNoNode || to == kNoNode) return;
  if (!Node(from).succs.insert(to).second) return;  // already there
  GraphNode& t = Node(to);
  Unsource(t);
  t.preds.insert(from);
  // Any cycle the edge closes runs through `to`.
  cycle_suspects_.push_back(to);
}

void WriteGraph::MergeInto(NodeId dst, NodeId src) {
  if (dst == src) return;
  GraphNode& d = Node(dst);
  GraphNode& s = Node(src);
  Unsource(d);
  Unsource(s);
  ++stats_.merges;
  for (Lsn lsn : s.ops) {
    d.ops.insert(lsn);
    op_node_[lsn] = dst;
  }
  for (ObjectId x : s.vars) {
    d.vars.insert(x);
    objects_[x].vars_owner = dst;
  }
  for (ObjectId x : s.notx) d.notx.insert(x);
  // vars wins over notx inside one node.
  for (ObjectId x : d.vars) d.notx.erase(x);
  d.notx_force_lsn = std::max(d.notx_force_lsn, s.notx_force_lsn);
  for (NodeId t : s.succs) {
    Node(t).preds.erase(src);
    if (t != dst) {
      d.succs.insert(t);
      Node(t).preds.insert(dst);
    }
  }
  for (NodeId f : s.preds) {
    Node(f).succs.erase(src);
    if (f != dst) {
      d.preds.insert(f);
      Node(f).succs.insert(dst);
    }
  }
  nodes_.erase(src);
  Source(d);
  // A path between the two nodes becomes a cycle through `dst`.
  cycle_suspects_.push_back(dst);
}

void WriteGraph::TrackOp(const PendingOp& op, NodeId node) {
  ++stats_.ops_added;
  pending_ops_[op.lsn] = op;
  op_node_[op.lsn] = node;
  GraphNode& n = Node(node);
  Unsource(n);
  n.ops.insert(op.lsn);
  Source(n);
  for (ObjectId r : op.reads) {
    ObjectState& st = objects_[r];
    st.readers.insert(op.lsn);
    st.readers_of_last_write.insert(op.lsn);
  }
  for (ObjectId w : op.writes) {
    ObjectState& st = objects_[w];
    st.writers.insert(op.lsn);
    // This op's write creates a fresh value with no readers yet. (If the
    // op also reads w — exposed — it read the *previous* value, which
    // lives in the same node after merging, so dropping it is safe.)
    st.readers_of_last_write.clear();
  }
}

void WriteGraph::Normalize() {
  if (cycle_suspects_.empty()) return;
  // The graph was acyclic at the last Normalize, and every cycle since
  // runs through a suspect; if none reaches itself there is none.
  if (cycle_suspects_.size() > nodes_.size() ||
      CycleReachableFromSuspects()) {
    CollapseCycles();
  }
  cycle_suspects_.clear();
}

bool WriteGraph::CycleReachableFromSuspects() const {
  // Three-colour DFS from every suspect, colours shared across roots:
  // each node and edge reachable from the suspects is visited once.
  enum : uint8_t { kOnPath, kDone };
  struct Frame {
    NodeId v;
    std::set<NodeId>::const_iterator next, end;
  };
  std::unordered_map<NodeId, uint8_t> colour;
  std::vector<Frame> path;
  for (NodeId s : cycle_suspects_) {
    auto it = nodes_.find(s);
    if (it == nodes_.end()) continue;  // merged away or installed since
    if (!colour.try_emplace(s, kOnPath).second) continue;
    path.push_back({s, it->second.succs.begin(), it->second.succs.end()});
    while (!path.empty()) {
      Frame& f = path.back();
      if (f.next == f.end) {
        colour[f.v] = kDone;
        path.pop_back();
        continue;
      }
      NodeId w = *f.next++;
      auto [cit, fresh] = colour.try_emplace(w, kOnPath);
      if (!fresh) {
        if (cit->second == kOnPath) return true;  // back edge: a cycle
        continue;
      }
      const GraphNode& n = Node(w);
      path.push_back({w, n.succs.begin(), n.succs.end()});
    }
  }
  return false;
}

void WriteGraph::CollapseCycles() {
  // Iterative Tarjan SCC; collapse components of size > 1 (the second
  // collapse of Figure 3, applied equally to rW per Section 3).
  std::unordered_map<NodeId, int> index, lowlink;
  std::unordered_map<NodeId, bool> on_stack;
  std::vector<NodeId> stack;
  std::vector<std::vector<NodeId>> components;
  int counter = 0;

  struct Frame {
    NodeId v;
    std::vector<NodeId> succs;
    size_t next = 0;
  };

  std::vector<NodeId> all;
  all.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) all.push_back(id);

  for (NodeId root : all) {
    if (index.contains(root)) continue;
    std::vector<Frame> frames;
    frames.push_back({root,
                      {Node(root).succs.begin(), Node(root).succs.end()},
                      0});
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < f.succs.size()) {
        NodeId w = f.succs[f.next++];
        if (!index.contains(w)) {
          index[w] = lowlink[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(
              {w, {Node(w).succs.begin(), Node(w).succs.end()}, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          std::vector<NodeId> comp;
          while (true) {
            NodeId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp.push_back(w);
            if (w == f.v) break;
          }
          if (comp.size() > 1) components.push_back(std::move(comp));
        }
        NodeId v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }

  for (const std::vector<NodeId>& comp : components) {
    ++stats_.cycle_collapses;
    stats_.cycle_nodes_merged += comp.size();
    NodeId dst = comp[0];
    for (size_t i = 1; i < comp.size(); ++i) MergeInto(dst, comp[i]);
  }
  cycle_suspects_.clear();  // MergeInto added some; the result is acyclic.
}

NodeId WriteGraph::MinimalNode() {
  Normalize();
  return sources_.empty() ? kNoNode : sources_.begin()->second;
}

NodeId WriteGraph::OldestMinimalNode(
    const std::function<bool(const GraphNode&)>& accept) {
  Normalize();
  for (const auto& [lsn, id] : sources_) {
    if (accept(Node(id))) return id;
  }
  return kNoNode;
}

std::vector<NodeId> WriteGraph::MinimalNodes() {
  Normalize();
  std::vector<NodeId> out;
  out.reserve(sources_.size());
  for (const auto& [lsn, id] : sources_) out.push_back(id);
  std::ranges::sort(out);
  return out;
}

Status WriteGraph::RemoveNode(NodeId id, InstallResult* result) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Status::NotFound("no such node");
  GraphNode& n = it->second;
  if (!n.preds.empty()) {
    return Status::FailedPrecondition(
        "cannot install a node with uninstalled predecessors");
  }
  result->installed_ops.assign(n.ops.begin(), n.ops.end());
  result->flush_objects.assign(n.vars.begin(), n.vars.end());
  result->unflushed_objects.assign(n.notx.begin(), n.notx.end());
  sources_.erase({n.MinOpLsn(), id});

  // Only the states of objects this node's ops and vars touched can
  // become empty.
  std::vector<ObjectId> touched(n.vars.begin(), n.vars.end());
  for (Lsn lsn : n.ops) {
    const PendingOp& op = pending_ops_.at(lsn);
    touched.insert(touched.end(), op.reads.begin(), op.reads.end());
    touched.insert(touched.end(), op.writes.begin(), op.writes.end());
    for (ObjectId r : op.reads) {
      auto oit = objects_.find(r);
      if (oit != objects_.end()) {
        oit->second.readers.erase(lsn);
        oit->second.readers_of_last_write.erase(lsn);
      }
    }
    for (ObjectId w : op.writes) {
      auto oit = objects_.find(w);
      if (oit != objects_.end()) oit->second.writers.erase(lsn);
    }
    op_node_.erase(lsn);
    pending_ops_.erase(lsn);
  }
  for (ObjectId x : n.vars) {
    ObjectState& st = objects_[x];
    if (st.vars_owner == id) st.vars_owner = kNoNode;
  }
  for (NodeId s : n.succs) {
    GraphNode& succ = Node(s);
    succ.preds.erase(id);
    Source(succ);
  }
  nodes_.erase(it);

  // Garbage-collect the touched object states left empty.
  for (ObjectId x : touched) {
    auto oit = objects_.find(x);
    if (oit == objects_.end()) continue;
    const ObjectState& st = oit->second;
    if (st.readers.empty() && st.writers.empty() &&
        st.readers_of_last_write.empty() && st.vars_owner == kNoNode) {
      objects_.erase(oit);
    }
  }
  return Status::OK();
}

NodeId WriteGraph::NodeOwningVar(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? kNoNode : it->second.vars_owner;
}

NodeId WriteGraph::NodeOfOp(Lsn lsn) const {
  auto it = op_node_.find(lsn);
  return it == op_node_.end() ? kNoNode : it->second;
}

Lsn WriteGraph::FirstUninstalledWriter(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end() || it->second.writers.empty()) return kInvalidLsn;
  return *it->second.writers.begin();
}

bool WriteGraph::HasUninstalledReader(ObjectId id) const {
  auto it = objects_.find(id);
  return it != objects_.end() && !it->second.readers.empty();
}

std::vector<NodeId> WriteGraph::InstallClosure(NodeId id) {
  Normalize();
  // Gather the node and all transitive predecessors.
  std::set<NodeId> need;
  std::vector<NodeId> work = {id};
  while (!work.empty()) {
    NodeId v = work.back();
    work.pop_back();
    if (!need.insert(v).second) continue;
    for (NodeId p : Node(v).preds) work.push_back(p);
  }
  // Kahn topological order within the subgraph (predecessors first).
  std::map<NodeId, size_t> degree;
  for (NodeId v : need) {
    size_t d = 0;
    for (NodeId p : Node(v).preds) {
      if (need.contains(p)) ++d;
    }
    degree[v] = d;
  }
  std::vector<NodeId> order;
  std::vector<NodeId> ready;
  for (const auto& [v, d] : degree) {
    if (d == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    NodeId v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (NodeId s : Node(v).succs) {
      auto dit = degree.find(s);
      if (dit != degree.end() && --dit->second == 0) ready.push_back(s);
    }
  }
  assert(order.size() == need.size());
  return order;
}

const GraphNode* WriteGraph::Find(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Status WriteGraph::CheckInvariants() {
  Normalize();
  std::unordered_map<ObjectId, NodeId> seen_vars;
  for (const auto& [id, n] : nodes_) {
    for (ObjectId x : n.vars) {
      if (seen_vars.contains(x)) {
        return Status::Corruption("object in vars of two nodes");
      }
      seen_vars[x] = id;
      auto oit = objects_.find(x);
      if (oit == objects_.end() || oit->second.vars_owner != id) {
        return Status::Corruption("vars_owner out of sync");
      }
    }
    for (ObjectId x : n.notx) {
      if (n.vars.contains(x)) {
        return Status::Corruption("object both vars and notx in one node");
      }
    }
    for (NodeId s : n.succs) {
      const GraphNode* sn = Find(s);
      if (sn == nullptr || !sn->preds.contains(id)) {
        return Status::Corruption("asymmetric edge");
      }
    }
    for (Lsn lsn : n.ops) {
      auto oit = op_node_.find(lsn);
      if (oit == op_node_.end() || oit->second != id) {
        return Status::Corruption("op_node out of sync");
      }
    }
  }
  // The source order holds exactly the nodes without predecessors, each
  // under its current oldest op.
  size_t sources = 0;
  for (const auto& [id, n] : nodes_) {
    if (!n.preds.empty()) continue;
    ++sources;
    if (!sources_.contains({n.MinOpLsn(), id})) {
      return Status::Corruption("minimal node missing from source order");
    }
  }
  if (sources != sources_.size()) {
    return Status::Corruption("source order holds a stale entry");
  }
  // Acyclicity: Kahn over the whole graph must consume every node.
  std::map<NodeId, size_t> degree;
  std::vector<NodeId> ready;
  for (const auto& [id, n] : nodes_) {
    degree[id] = n.preds.size();
    if (n.preds.empty()) ready.push_back(id);
  }
  size_t seen = 0;
  while (!ready.empty()) {
    NodeId v = ready.back();
    ready.pop_back();
    ++seen;
    for (NodeId s : Node(v).succs) {
      if (--degree[s] == 0) ready.push_back(s);
    }
  }
  if (seen != nodes_.size()) {
    return Status::Corruption("write graph has a cycle after Normalize");
  }
  return Status::OK();
}

std::string WriteGraph::DebugString() const {
  std::string out = std::string(Kind()) + " nodes=" +
                    std::to_string(nodes_.size()) + "\n";
  for (const auto& [id, n] : nodes_) {
    out += "  node " + std::to_string(id) + ": ops={";
    for (Lsn lsn : n.ops) out += std::to_string(lsn) + ",";
    out += "} vars={";
    for (ObjectId x : n.vars) out += std::to_string(x) + ",";
    out += "} notx={";
    for (ObjectId x : n.notx) out += std::to_string(x) + ",";
    out += "} preds={";
    for (NodeId p : n.preds) out += std::to_string(p) + ",";
    out += "} succs={";
    for (NodeId s : n.succs) out += std::to_string(s) + ",";
    out += "}\n";
  }
  return out;
}

}  // namespace loglog
