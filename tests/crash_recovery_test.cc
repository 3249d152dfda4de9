#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/crash_harness.h"
#include "sim/workload.h"

namespace loglog {
namespace {

// The central recoverability property (Theorems 1-3): after a crash at an
// arbitrary point, Recover() + FlushAll() leaves the stable database equal
// to the sequential execution of the stable log — for every combination
// of logging mode, write graph, flush policy and REDO test.

struct MatrixParam {
  LoggingMode logging;
  GraphKind graph;
  FlushPolicy flush;
  RedoTestKind redo;
  uint64_t seed;
  /// Adaptive logging policy (src/adapt/) on top of the base mode, with
  /// an optional recovery budget driving proactive W_IP installs.
  bool adaptive = false;
  uint64_t budget = 0;
};

std::string ParamName(const testing::TestParamInfo<MatrixParam>& info) {
  const MatrixParam& p = info.param;
  std::string s;
  s += p.logging == LoggingMode::kLogical ? "Logical" : "Physio";
  s += p.graph == GraphKind::kRefined ? "RW" : "W";
  switch (p.flush) {
    case FlushPolicy::kNativeAtomic:
      s += "Native";
      break;
    case FlushPolicy::kIdentityWrites:
      s += "Ident";
      break;
    case FlushPolicy::kFlushTransaction:
      s += "Ftxn";
      break;
    case FlushPolicy::kShadow:
      s += "Shadow";
      break;
  }
  switch (p.redo) {
    case RedoTestKind::kAlways:
      s += "Always";
      break;
    case RedoTestKind::kVsi:
      s += "Vsi";
      break;
    case RedoTestKind::kRsiGeneralized:
      s += "Rsi";
      break;
    case RedoTestKind::kRsiFixpoint:
      s += "Fix";
      break;
  }
  if (p.adaptive) {
    s += p.budget > 0 ? "AdaptBudget" : "Adapt";
  }
  s += "S" + std::to_string(p.seed);
  return s;
}

// Tight thresholds so the mixed workload actually flips classes: the
// matrix must cover histories where W_L, promoted W_PL/W_P and decision
// records interleave with crashes.
AdaptivePolicyOptions MatrixAdaptiveOptions() {
  AdaptivePolicyOptions a;
  a.enabled = true;
  a.hot_interval_writes = 8.0;
  a.cold_interval_writes = 24.0;
  a.small_value_bytes = 32;
  a.large_value_bytes = 96;
  a.max_chain_depth = 16;
  a.decision_cooldown_writes = 4;
  return a;
}

class CrashMatrixTest : public testing::TestWithParam<MatrixParam> {};

TEST_P(CrashMatrixTest, RecoversAtRandomCrashPoints) {
  const MatrixParam& p = GetParam();
  EngineOptions opts;
  opts.logging_mode = p.logging;
  opts.graph_kind = p.graph;
  opts.flush_policy = p.flush;
  opts.redo_test = p.redo;
  opts.purge_threshold_ops = 24;
  opts.checkpoint_interval_ops = 60;
  if (p.adaptive) {
    opts.adaptive = MatrixAdaptiveOptions();
    opts.recovery_budget = p.budget;
  }
  if (p.graph == GraphKind::kW && p.flush == FlushPolicy::kIdentityWrites) {
    // The engine rejects this pair instead of silently running it as
    // kNativeAtomic (which the matrix covers on its own).
    ASSERT_TRUE(opts.Validate().IsInvalidArgument());
    return;
  }

  CrashHarness harness(opts, p.seed);
  MixedWorkloadOptions wopts;
  wopts.seed = p.seed * 7919 + 1;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(harness.Execute(op).ok());
  }

  // Several crash/recover rounds within one history.
  for (int round = 0; round < 3; ++round) {
    int ops = 40 + static_cast<int>(harness.rng().Uniform(80));
    for (int i = 0; i < ops; ++i) {
      Status st = harness.Execute(workload.Next());
      // NotFound is legitimate across crashes: an operation may name a
      // temporary whose creation never reached the stable log and was
      // therefore lost with the crash.
      ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    harness.Crash();
    RecoveryStats stats;
    Status st = harness.Recover(&stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = harness.VerifyAgainstReference();
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.ToString()
                         << "\n"
                         << stats.ToString();
    ASSERT_TRUE(harness.engine().cache().CheckInvariants().ok());
  }
}

std::vector<MatrixParam> BuildMatrix() {
  std::vector<MatrixParam> out;
  for (LoggingMode lm : {LoggingMode::kLogical, LoggingMode::kPhysiological}) {
    for (GraphKind gk : {GraphKind::kRefined, GraphKind::kW}) {
      for (FlushPolicy fp :
           {FlushPolicy::kNativeAtomic, FlushPolicy::kIdentityWrites,
            FlushPolicy::kFlushTransaction, FlushPolicy::kShadow}) {
        for (RedoTestKind rt :
             {RedoTestKind::kAlways, RedoTestKind::kVsi,
              RedoTestKind::kRsiGeneralized, RedoTestKind::kRsiFixpoint}) {
          for (uint64_t seed : {1u, 2u}) {
            out.push_back({lm, gk, fp, rt, seed});
          }
        }
      }
    }
  }
  // Adaptive-policy configurations (appended, not multiplied): the
  // cost model only reclassifies W_L traffic, so the base mode is
  // logical; sweep graphs, flush policies, REDO tests and the budget.
  for (uint64_t seed : {1u, 2u}) {
    out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                   FlushPolicy::kIdentityWrites,
                   RedoTestKind::kRsiGeneralized, seed, true, 0});
    out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                   FlushPolicy::kIdentityWrites,
                   RedoTestKind::kRsiGeneralized, seed, true, 32});
  }
  out.push_back({LoggingMode::kLogical, GraphKind::kW,
                 FlushPolicy::kIdentityWrites,
                 RedoTestKind::kRsiGeneralized, 1, true, 0});
  out.push_back({LoggingMode::kLogical, GraphKind::kW,
                 FlushPolicy::kNativeAtomic,
                 RedoTestKind::kRsiGeneralized, 1, true, 0});
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kIdentityWrites, RedoTestKind::kVsi, 1, true,
                 32});
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kIdentityWrites, RedoTestKind::kAlways, 1,
                 true, 0});
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kIdentityWrites, RedoTestKind::kRsiFixpoint,
                 1, true, 32});
  // Non-identity flush policies take EnforceRecoveryBudget's purge
  // fallback instead of proactive W_IPs.
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kFlushTransaction,
                 RedoTestKind::kRsiGeneralized, 1, true, 32});
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kShadow, RedoTestKind::kRsiGeneralized, 1,
                 true, 32});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CrashMatrixTest,
                         testing::ValuesIn(BuildMatrix()), ParamName);

}  // namespace
}  // namespace loglog
