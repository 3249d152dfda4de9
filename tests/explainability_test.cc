#include <gtest/gtest.h>

#include "common/random.h"
#include "explain/explainability.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"
#include "wal/log_manager.h"

namespace loglog {
namespace {

constexpr ObjectId kX = 1, kY = 2, kZ = 3;

std::map<ObjectId, ObjectValue> Init() {
  return {{kX, {'x'}}, {kY, {'y'}}, {kZ, {'z'}}};
}

// Figure 1(a): A: Y <- f(X,Y); B: X <- g(Y). Flushing Y first (A
// installed, B not) is explainable; flushing only B's X while A's Y is
// missing is NOT — exactly the flush-order argument of Section 1.
TEST(ExplainabilityTest, Figure1FlushOrders) {
  std::vector<OperationDesc> history = {
      MakeAppRead(kY, kX),              // A: Y = f(X, Y)
      MakeAppWrite(kY, kX, 8, 7),       // B: X = g(Y)
  };
  ExplainabilityChecker checker(history, Init());

  // Nothing flushed: the empty prefix set explains the initial state.
  EXPECT_TRUE(checker.Explains({}, Init()));
  // A installed (its Y flushed): {A} explains it.
  EXPECT_TRUE(checker.Explains({0}, checker.StateAfter({0})));
  // Both installed.
  EXPECT_TRUE(checker.Explains({0, 1}, checker.StateAfter({0, 1})));
  // {B} alone is not even a prefix set: A read X which B writes.
  EXPECT_FALSE(checker.IsPrefixSet({1}));

  // The bad stable state: B's X flushed but A's Y not. No explanation.
  std::map<ObjectId, ObjectValue> bad = Init();
  bad[kX] = checker.StateAfter({0, 1})[kX];
  EXPECT_FALSE(checker.FindExplanation(bad).has_value());

  // The good stable state: A's Y flushed, X still old. Explained by {A}.
  std::map<ObjectId, ObjectValue> good = Init();
  good[kY] = checker.StateAfter({0})[kY];
  auto witness = checker.FindExplanation(good);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, (std::set<size_t>{0}));
}

// Figure 5/7: A writes {X,Y}; C blind-writes X. A state holding A's Y
// with the ORIGINAL X is explainable by {A} — X is unexposed (C, the
// earliest outside op touching X, writes it blindly). This is precisely
// why rW may flush Y alone.
TEST(ExplainabilityTest, UnexposedObjectsNeedNoCorrectValue) {
  std::vector<OperationDesc> history;
  OperationDesc a = MakeXorMerge(kY, {kX});  // reads X, writes Y
  history.push_back(a);
  history.push_back(MakePhysicalWrite(kX, "blind"));  // C
  ExplainabilityChecker checker(history, Init());

  std::map<ObjectId, ObjectValue> state = Init();
  state[kY] = checker.StateAfter({0})[kY];
  // X keeps its initial value even though... that is fine: with I={A},
  // X's only outside toucher is C, which writes blindly -> unexposed.
  std::set<ObjectId> exposed = checker.ExposedBy({0});
  EXPECT_FALSE(exposed.contains(kX));
  EXPECT_TRUE(exposed.contains(kY));
  EXPECT_TRUE(checker.Explains({0}, state));

  // Even a GARBAGE X is explainable — unexposed means "value irrelevant".
  state[kX] = {0xde, 0xad};
  EXPECT_TRUE(checker.Explains({0}, state));

  // But once C is in I, X is exposed and the garbage is rejected.
  EXPECT_FALSE(checker.Explains({0, 1}, state));
}

TEST(ExplainabilityTest, DeletesExplainAbsence) {
  std::vector<OperationDesc> history = {
      MakeCreate(kX, "temp"),
      MakeDelete(kX),
  };
  ExplainabilityChecker checker(history);
  // All installed: X must be absent.
  EXPECT_TRUE(checker.Explains({0, 1}, {}));
  std::map<ObjectId, ObjectValue> lingering = {{kX, {'t'}}};
  EXPECT_FALSE(checker.Explains({0, 1}, lingering));
  // Only the create installed: X must hold the created value.
  EXPECT_TRUE(
      checker.Explains({0}, {{kX, ObjectValue{'t', 'e', 'm', 'p'}}}));
}

// Property: every state reachable by installing a prefix set in order is
// explainable (Theorem 1's invariant), across random small histories.
TEST(ExplainabilityTest, InstalledPrefixStatesAreExplainable) {
  Random rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<OperationDesc> history;
    for (int i = 0; i < 10; ++i) {
      switch (rng.Uniform(4)) {
        case 0:
          history.push_back(MakeAppRead(1 + rng.Uniform(3),
                                        1 + rng.Uniform(3)));
          break;
        case 1:
          history.push_back(MakeAppWrite(1 + rng.Uniform(3),
                                         1 + rng.Uniform(3), 4,
                                         rng.Next()));
          break;
        case 2:
          history.push_back(
              MakePhysicalWrite(1 + rng.Uniform(3), "pv"));
          break;
        default:
          history.push_back(MakeAppExecute(1 + rng.Uniform(3), rng.Next()));
          break;
      }
      // Self-reads of the same object id are fine; drop malformed dups.
      if (!history.back().Validate().ok()) history.pop_back();
    }
    ExplainabilityChecker checker(history, Init());
    // Build a random prefix set by greedy closure.
    std::set<size_t> prefix;
    for (size_t i = 0; i < history.size(); ++i) {
      bool preds_in = true;
      for (size_t p : checker.preds()[i]) {
        if (!prefix.contains(p)) preds_in = false;
      }
      if (preds_in && rng.OneIn(2)) prefix.insert(i);
    }
    ASSERT_TRUE(checker.IsPrefixSet(prefix));
    EXPECT_TRUE(checker.Explains(prefix, checker.StateAfter(prefix)))
        << "trial " << trial;
  }
}

// Theorem 3, checked against the real cache manager: every stable state
// PurgeCache produces mid-workload is explainable by some prefix set of
// the stable history. The exhaustive oracle re-derives Section 2's
// definitions with no knowledge of the engine.
struct CmParam {
  GraphKind graph;
  FlushPolicy flush;
  uint64_t seed;
};

class CmExplainabilityTest : public testing::TestWithParam<CmParam> {};

TEST_P(CmExplainabilityTest, EveryFlushedStateIsExplainable) {
  const CmParam& p = GetParam();
  EngineOptions opts;
  opts.graph_kind = p.graph;
  opts.flush_policy = p.flush;
  opts.purge_threshold_ops = 0;  // explicit purging only
  opts.log_installs = false;     // keep the history to operations
  if (p.graph == GraphKind::kW && p.flush == FlushPolicy::kIdentityWrites) {
    // The engine rejects this pair instead of silently running it as
    // kNativeAtomic (which the matrix covers on its own).
    ASSERT_TRUE(opts.Validate().IsInvalidArgument());
    return;
  }
  CrashHarness harness(opts, p.seed);
  Random rng(p.seed * 13 + 1);

  // A small tangle of logical operations over three objects.
  ASSERT_TRUE(harness.Execute(MakeCreate(kX, "xx")).ok());
  ASSERT_TRUE(harness.Execute(MakeCreate(kY, "yy")).ok());
  ASSERT_TRUE(harness.Execute(MakeCreate(kZ, "zz")).ok());
  for (int i = 0; i < 8; ++i) {
    ObjectId a = 1 + rng.Uniform(3);
    ObjectId b = 1 + rng.Uniform(3);
    switch (rng.Uniform(3)) {
      case 0:
        if (a != b) {
          ASSERT_TRUE(harness.Execute(MakeAppRead(a, b)).ok());
        }
        break;
      case 1:
        if (a != b) {
          ASSERT_TRUE(
              harness.Execute(MakeAppWrite(a, b, 4, rng.Next())).ok());
        }
        break;
      default:
        ASSERT_TRUE(harness.Execute(MakeAppExecute(a, rng.Next())).ok());
        break;
    }
  }

  // Flush a random number of nodes, then examine the stable state.
  int purges = static_cast<int>(rng.Uniform(5));
  for (int i = 0; i < purges; ++i) {
    Status st = harness.engine().PurgeOne();
    if (st.IsNotFound()) break;
    ASSERT_TRUE(st.ok());
  }
  ASSERT_TRUE(harness.engine().log().ForceAll().ok());

  // The stable history: every operation record on the stable log.
  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(LogManager::ReadStable(harness.disk().log(), &records, &torn,
                                     &next, &valid_end)
                  .ok());
  std::vector<OperationDesc> history;
  for (const LogRecord& rec : records) {
    if (rec.type == RecordType::kOperation) history.push_back(rec.op);
  }
  ASSERT_LE(history.size(), 20u);  // keep the oracle tractable

  std::map<ObjectId, ObjectValue> stable;
  harness.disk().store().ForEach(
      [&](ObjectId id, const StoredObject& obj) {
        stable[id] = obj.value;
      });

  ExplainabilityChecker checker(history);
  auto witness = checker.FindExplanation(stable);
  EXPECT_TRUE(witness.has_value())
      << "no prefix set explains the stable state after " << purges
      << " purges (history " << history.size() << " ops)";
}

std::vector<CmParam> CmMatrix() {
  std::vector<CmParam> out;
  for (GraphKind gk : {GraphKind::kRefined, GraphKind::kW}) {
    for (FlushPolicy fp :
         {FlushPolicy::kNativeAtomic, FlushPolicy::kIdentityWrites,
          FlushPolicy::kFlushTransaction}) {
      for (uint64_t seed : {1u, 2u, 3u, 4u}) {
        out.push_back({gk, fp, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CmExplainabilityTest, testing::ValuesIn(CmMatrix()),
    [](const testing::TestParamInfo<CmParam>& info) {
      const CmParam& p = info.param;
      std::string s = p.graph == GraphKind::kRefined ? "RW" : "W";
      s += p.flush == FlushPolicy::kIdentityWrites
               ? "Ident"
               : (p.flush == FlushPolicy::kFlushTransaction ? "Ftxn"
                                                            : "Native");
      return s + "S" + std::to_string(p.seed);
    });

}  // namespace
}  // namespace loglog
