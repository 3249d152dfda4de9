#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "common/random.h"
#include "graph/refined_write_graph.h"
#include "graph/write_graph_w.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"
#include "storage/stable_store.h"

namespace loglog {
namespace {

// Randomized structural fuzz: arbitrary read/write-set operations keep
// both graphs' invariants intact, every operation installs exactly once,
// and minimal-node installation always makes progress.
class GraphFuzzTest : public testing::TestWithParam<uint64_t> {};

PendingOp RandomOp(Random& rng, Lsn lsn, ObjectId universe) {
  OperationDesc d;
  size_t n_writes = 1 + rng.Uniform(3);
  size_t n_reads = rng.Uniform(4);
  while (d.writes.size() < n_writes) {
    ObjectId x = 1 + rng.Uniform(universe);
    if (!d.WritesObject(x)) d.writes.push_back(x);
  }
  while (d.reads.size() < n_reads) {
    ObjectId x = 1 + rng.Uniform(universe);
    if (!d.ReadsObject(x)) d.reads.push_back(x);
  }
  return PendingOp::FromDesc(lsn, d);
}

TEST_P(GraphFuzzTest, InvariantsAndFullDrain) {
  Random rng(GetParam());
  for (WriteGraph* graph :
       std::initializer_list<WriteGraph*>{new WriteGraphW,
                                          new RefinedWriteGraph}) {
    std::unique_ptr<WriteGraph> owned(graph);
    std::set<Lsn> pending;
    Lsn next_lsn = 1;
    size_t installed = 0;
    for (int round = 0; round < 400; ++round) {
      if (pending.size() < 40 || !rng.OneIn(3)) {
        PendingOp op = RandomOp(rng, next_lsn++, /*universe=*/12);
        pending.insert(op.lsn);
        graph->AddOperation(op);
      } else {
        NodeId v = graph->MinimalNode();
        ASSERT_NE(v, kNoNode);
        InstallResult result;
        ASSERT_TRUE(graph->RemoveNode(v, &result).ok());
        for (Lsn lsn : result.installed_ops) {
          ASSERT_EQ(pending.erase(lsn), 1u) << "op installed twice";
          ++installed;
        }
      }
      if (round % 16 == 0) {
        ASSERT_EQ(graph->CheckInvariants().ToString(), "OK")
            << graph->Kind() << " seed=" << GetParam();
      }
    }
    // Drain: minimal-node installation must terminate with every op
    // installed exactly once.
    while (!graph->empty()) {
      NodeId v = graph->MinimalNode();
      ASSERT_NE(v, kNoNode);
      InstallResult result;
      ASSERT_TRUE(graph->RemoveNode(v, &result).ok());
      for (Lsn lsn : result.installed_ops) {
        ASSERT_EQ(pending.erase(lsn), 1u);
        ++installed;
      }
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(installed, static_cast<size_t>(next_lsn - 1));
  }
}

// The reference graph for the deferred cycle checks: the same rules,
// but every read runs the full Tarjan pass, and the oldest minimal node
// comes from a scan of every node (PurgeOne's pick before the source
// order existed).
template <typename G>
class EagerGraph : public G {
 public:
  void FullTarjan() { this->CollapseCycles(); }

  NodeId ScanOldestMinimal(
      const std::function<bool(const GraphNode&)>& accept) const {
    NodeId best = kNoNode;
    Lsn best_lsn = kMaxLsn;
    for (const auto& [id, n] : this->nodes_) {
      if (!n.preds.empty() || !accept(n)) continue;
      if (n.MinOpLsn() < best_lsn) {
        best_lsn = n.MinOpLsn();
        best = id;
      }
    }
    return best;
  }
};

// Each step adds a burst of ops (several edges and merges before the next
// read) or installs a random minimal node; after every step the graph
// under test must match the eager reference node for node.
template <typename G>
void DeferredChecksMatchEager(uint64_t seed) {
  Random rng(seed);
  G graph;
  EagerGraph<G> reference;
  std::set<ObjectId> hot;
  Lsn next_lsn = 1;
  size_t cycles_seen = 0;
  for (int step = 0; step < 300; ++step) {
    if (reference.op_count() < 30 || !rng.OneIn(3)) {
      for (uint64_t i = 0, n = 1 + rng.Uniform(4); i < n; ++i) {
        Random op_rng(rng.Next());
        Random ref_rng = op_rng;
        graph.AddOperation(RandomOp(op_rng, next_lsn, 10));
        reference.AddOperation(RandomOp(ref_rng, next_lsn, 10));
        ++next_lsn;
      }
    } else {
      reference.FullTarjan();
      std::vector<NodeId> minimal = reference.MinimalNodes();
      ASSERT_EQ(graph.MinimalNodes(), minimal) << "step " << step;
      ASSERT_FALSE(minimal.empty());
      NodeId v = minimal[rng.Uniform(minimal.size())];
      InstallResult got, want;
      ASSERT_TRUE(graph.RemoveNode(v, &got).ok());
      ASSERT_TRUE(reference.RemoveNode(v, &want).ok());
      ASSERT_EQ(got.installed_ops, want.installed_ops);
    }
    uint64_t collapses = reference.stats().cycle_collapses;
    reference.FullTarjan();
    cycles_seen += reference.stats().cycle_collapses - collapses;
    ASSERT_EQ(graph.CheckInvariants().ToString(), "OK")
        << graph.Kind() << " step " << step;
    ASSERT_EQ(graph.DebugString(), reference.DebugString())
        << graph.Kind() << " step " << step;
    ASSERT_EQ(graph.stats().cycle_collapses,
              reference.stats().cycle_collapses);

    // PurgeOne's pick, with and without a hot-only filter, is the old
    // min-MinOpLsn scan.
    hot.clear();
    for (ObjectId x = 1; x <= 10; ++x) {
      if (rng.OneIn(2)) hot.insert(x);
    }
    auto not_hot_only = [&](const GraphNode& n) {
      return n.vars.empty() ||
             !std::all_of(n.vars.begin(), n.vars.end(),
                          [&](ObjectId x) { return hot.contains(x); });
    };
    auto any = [](const GraphNode&) { return true; };
    ASSERT_EQ(graph.MinimalNode(), reference.ScanOldestMinimal(any));
    ASSERT_EQ(graph.OldestMinimalNode(not_hot_only),
              reference.ScanOldestMinimal(not_hot_only));
  }
  // The op streams must actually close cycles for the check to bite.
  EXPECT_GT(cycles_seen, 0u) << graph.Kind();
}

TEST_P(GraphFuzzTest, DeferredCycleChecksMatchEagerTarjan) {
  DeferredChecksMatchEager<WriteGraphW>(GetParam());
  DeferredChecksMatchEager<RefinedWriteGraph>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzzTest,
                         testing::Values(101, 202, 303, 404, 505, 606, 707,
                                         808));

// Differential property: for the same op stream, rW never flushes more
// objects than W does (vars(n) in rW is a refinement), measured as the
// total number of object-flush slots over a full drain.
TEST(GraphDifferentialTest, RefinedFlushesNoMoreObjects) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Random rng_w(seed), rng_rw(seed);
    WriteGraphW w;
    RefinedWriteGraph rw;
    for (Lsn lsn = 1; lsn <= 200; ++lsn) {
      w.AddOperation(RandomOp(rng_w, lsn, 10));
      rw.AddOperation(RandomOp(rng_rw, lsn, 10));
    }
    auto drain = [](WriteGraph& g) {
      uint64_t flushed = 0;
      while (!g.empty()) {
        InstallResult r;
        EXPECT_TRUE(g.RemoveNode(g.MinimalNode(), &r).ok());
        flushed += r.flush_objects.size();
      }
      return flushed;
    };
    uint64_t w_flushed = drain(w);
    uint64_t rw_flushed = drain(rw);
    EXPECT_LE(rw_flushed, w_flushed) << "seed " << seed;
  }
}

// The WAL auditor actually detects violations (self-test of the fixture
// used throughout the crash matrix).
TEST(WalAuditorTest, FlagsUnloggedFlush) {
  CrashHarness harness(EngineOptions{}, 1);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "x")).ok());
  // Sneak a write past the WAL: vSI 999 was never forced.
  harness.disk().store().Write(1, "illegal", 999);
  EXPECT_TRUE(harness.disk().store().audit_status().IsCorruption());
}

}  // namespace
}  // namespace loglog
