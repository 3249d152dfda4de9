#include <gtest/gtest.h>

#include "sim/crash_harness.h"
#include "sim/workload.h"

namespace loglog {
namespace {

// The harshest configuration matrix: checkpointing + log truncation +
// torn tails + cache pressure + repeated crashes, all at once, across
// representative policy corners. Complements the broad crash matrix.
struct StressParam {
  GraphKind graph;
  FlushPolicy flush;
  RedoTestKind redo;
  uint64_t seed;
};

std::string StressName(const testing::TestParamInfo<StressParam>& info) {
  const StressParam& p = info.param;
  std::string s = p.graph == GraphKind::kRefined ? "RW" : "W";
  s += p.flush == FlushPolicy::kIdentityWrites
           ? "Ident"
           : (p.flush == FlushPolicy::kFlushTransaction ? "Ftxn" : "Native");
  s += p.redo == RedoTestKind::kRsiFixpoint
           ? "Fix"
           : (p.redo == RedoTestKind::kRsiGeneralized ? "Rsi" : "Vsi");
  s += "S" + std::to_string(p.seed);
  return s;
}

class StressMatrixTest : public testing::TestWithParam<StressParam> {};

TEST_P(StressMatrixTest, LongRunWithEverythingEnabled) {
  const StressParam& p = GetParam();
  EngineOptions opts;
  opts.graph_kind = p.graph;
  opts.flush_policy = p.flush;
  opts.redo_test = p.redo;
  opts.purge_threshold_ops = 16;
  opts.checkpoint_interval_ops = 45;
  opts.cache_capacity_objects = 24;
  if (p.graph == GraphKind::kW && p.flush == FlushPolicy::kIdentityWrites) {
    // The engine rejects this pair instead of silently running it as
    // kNativeAtomic (which the matrix covers on its own).
    ASSERT_TRUE(opts.Validate().IsInvalidArgument());
    return;
  }

  CrashHarness harness(opts, p.seed);
  MixedWorkloadOptions wopts;
  wopts.seed = p.seed * 104729 + 11;
  wopts.w_temp_create = 3;
  wopts.w_temp_delete = 3;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(harness.Execute(op).ok());
  }

  for (int round = 0; round < 6; ++round) {
    int ops = 60 + static_cast<int>(harness.rng().Uniform(120));
    for (int i = 0; i < ops; ++i) {
      Status st = harness.Execute(workload.Next());
      ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    bool tear = harness.rng().OneIn(2);
    harness.Crash(tear);
    RecoveryStats stats;
    ASSERT_TRUE(harness.Recover(&stats).ok());
    Status verdict = harness.VerifyAgainstReference();
    ASSERT_TRUE(verdict.ok())
        << "round " << round << " tear=" << tear << ": "
        << verdict.ToString() << "\n"
        << stats.ToString();
    ASSERT_TRUE(harness.engine().cache().CheckInvariants().ok());
  }
}

std::vector<StressParam> StressMatrix() {
  std::vector<StressParam> out;
  for (GraphKind gk : {GraphKind::kRefined, GraphKind::kW}) {
    for (FlushPolicy fp :
         {FlushPolicy::kIdentityWrites, FlushPolicy::kNativeAtomic,
          FlushPolicy::kFlushTransaction}) {
      for (RedoTestKind rt :
           {RedoTestKind::kVsi, RedoTestKind::kRsiGeneralized,
            RedoTestKind::kRsiFixpoint}) {
        for (uint64_t seed : {7u, 8u, 9u}) {
          out.push_back({gk, fp, rt, seed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Corners, StressMatrixTest,
                         testing::ValuesIn(StressMatrix()), StressName);

}  // namespace
}  // namespace loglog
