#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "fault/fault_injector.h"
#include "sim/crash_harness.h"
#include "sim/workload.h"

namespace loglog {
namespace {

// Parallel partitioned REDO must be *observationally identical* to the
// serial scan: byte-identical stable store after recovery (and again
// after a full flush, proving the rebuilt cache and write graph match
// too) and equal outcome counters — across every combination of logging
// mode, write graph, flush policy and REDO test, with crash points and
// torn tails, and with outcome-neutral transient faults armed so the
// worker retry paths are exercised.

struct MatrixParam {
  LoggingMode logging;
  GraphKind graph;
  FlushPolicy flush;
  RedoTestKind redo;
  uint64_t seed;
  /// Adaptive logging policy on both harnesses: the logged class mix now
  /// mixes W_L with promoted W_P/W_PL and decision records, and the
  /// partitioned redo must still match the serial scan byte-for-byte.
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

/// Full byte-level image of a stable store (value, vsi, crc per object).
using StableImage = std::map<ObjectId, std::tuple<ObjectValue, Lsn, uint32_t>>;

StableImage ImageOf(const StableStore& store) {
  StableImage image;
  store.ForEach([&](ObjectId id, const StoredObject& obj) {
    image[id] = {obj.value, obj.vsi, obj.crc};
  });
  return image;
}

class ParallelRedoMatrixTest : public testing::TestWithParam<MatrixParam> {};

TEST_P(ParallelRedoMatrixTest, ParallelMatchesSerialExactly) {
  const MatrixParam& p = GetParam();
  EngineOptions serial_opts;
  serial_opts.logging_mode = p.logging;
  serial_opts.graph_kind = p.graph;
  serial_opts.flush_policy = p.flush;
  serial_opts.redo_test = p.redo;
  serial_opts.purge_threshold_ops = 24;
  serial_opts.checkpoint_interval_ops = 60;
  serial_opts.recovery.redo_threads = 1;
  if (p.adaptive) {
    serial_opts.adaptive.enabled = true;
    serial_opts.adaptive.hot_interval_writes = 8.0;
    serial_opts.adaptive.cold_interval_writes = 24.0;
    serial_opts.adaptive.small_value_bytes = 32;
    serial_opts.adaptive.large_value_bytes = 96;
    serial_opts.adaptive.decision_cooldown_writes = 4;
    serial_opts.recovery_budget = p.budget;
  }
  if (p.graph == GraphKind::kW && p.flush == FlushPolicy::kIdentityWrites) {
    // The engine rejects this pair instead of silently running it as
    // kNativeAtomic (which the matrix covers on its own).
    ASSERT_TRUE(serial_opts.Validate().IsInvalidArgument());
    return;
  }
  EngineOptions parallel_opts = serial_opts;
  parallel_opts.recovery.redo_threads = 4;

  // Two harnesses driven in lockstep: identical seeds, identical ops,
  // identical crash points — the only difference is the redo thread
  // count.
  CrashHarness serial(serial_opts, p.seed);
  CrashHarness parallel(parallel_opts, p.seed);

  MixedWorkloadOptions wopts;
  wopts.seed = p.seed * 7919 + 1;
  MixedWorkload workload_s(wopts);
  MixedWorkload workload_p(wopts);
  Random script(p.seed * 31 + 7);

  for (const OperationDesc& op : workload_s.SetupOps()) {
    ASSERT_TRUE(serial.Execute(op).ok());
  }
  for (const OperationDesc& op : workload_p.SetupOps()) {
    ASSERT_TRUE(parallel.Execute(op).ok());
  }

  for (int round = 0; round < 2; ++round) {
    int ops = 40 + static_cast<int>(script.Uniform(80));
    for (int i = 0; i < ops; ++i) {
      OperationDesc op_s = workload_s.Next();
      OperationDesc op_p = workload_p.Next();
      Status st_s = serial.Execute(op_s);
      Status st_p = parallel.Execute(op_p);
      ASSERT_TRUE(st_s.ok() || st_s.IsNotFound()) << st_s.ToString();
      ASSERT_EQ(st_s.ok(), st_p.ok());
    }
    bool tear = script.Uniform(2) == 0;
    serial.Crash(tear);
    parallel.Crash(tear);

    // Outcome-neutral faults: TransientTimes(2) is always absorbed by
    // the 3-attempt retry budget, so it exercises the (worker-local)
    // retry paths without perturbing any decision.
    for (CrashHarness* h : {&serial, &parallel}) {
      h->disk().fault_injector().Arm(fault::kStoreRead,
                                     FaultSpec::TransientTimes(2));
      h->disk().fault_injector().Arm(fault::kRedoWorker,
                                     FaultSpec::TransientTimes(2));
    }

    RecoveryStats stats_s, stats_p;
    ASSERT_TRUE(serial.Recover(&stats_s).ok());
    ASSERT_TRUE(parallel.Recover(&stats_p).ok());

    // Identical stable state straight after recovery (flush-transaction
    // completions already landed), and identical counters.
    EXPECT_EQ(ImageOf(serial.disk().store()), ImageOf(parallel.disk().store()))
        << "round " << round << " post-recovery stores diverge";
    EXPECT_EQ(stats_s.log_records_total, stats_p.log_records_total);
    EXPECT_EQ(stats_s.records_scanned, stats_p.records_scanned);
    EXPECT_EQ(stats_s.ops_considered, stats_p.ops_considered);
    EXPECT_EQ(stats_s.ops_redone, stats_p.ops_redone);
    EXPECT_EQ(stats_s.ops_skipped_installed, stats_p.ops_skipped_installed);
    EXPECT_EQ(stats_s.ops_skipped_unexposed, stats_p.ops_skipped_unexposed);
    EXPECT_EQ(stats_s.ops_voided, stats_p.ops_voided);
    EXPECT_EQ(stats_s.flush_txns_completed, stats_p.flush_txns_completed);
    EXPECT_EQ(stats_s.redo_value_bytes, stats_p.redo_value_bytes);
    EXPECT_EQ(stats_s.expensive_redos, stats_p.expensive_redos);
    EXPECT_EQ(stats_s.redo_start, stats_p.redo_start);
    EXPECT_EQ(stats_s.torn_tail, stats_p.torn_tail);

    // A full flush drains the rebuilt cache through the write graph; the
    // stores staying identical proves the volatile state (cache entries,
    // graph nodes) was rebuilt identically too.
    ASSERT_TRUE(serial.engine().FlushAll().ok());
    ASSERT_TRUE(parallel.engine().FlushAll().ok());
    EXPECT_EQ(ImageOf(serial.disk().store()), ImageOf(parallel.disk().store()))
        << "round " << round << " post-flush stores diverge";

    // And both must of course be *correct*, not just equal.
    Status st = serial.VerifyAgainstReference();
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = parallel.VerifyAgainstReference();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(serial.engine().cache().CheckInvariants().ok());
    ASSERT_TRUE(parallel.engine().cache().CheckInvariants().ok());
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
  // Adaptive-policy configurations (appended): the promoted class mix
  // and the budget's W_IP installs must be serial-equivalent too.
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
                 RedoTestKind::kRsiGeneralized, 1, true, 32});
  out.push_back({LoggingMode::kLogical, GraphKind::kW,
                 FlushPolicy::kNativeAtomic,
                 RedoTestKind::kRsiGeneralized, 1, true, 32});
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kIdentityWrites, RedoTestKind::kVsi, 1, true,
                 0});
  out.push_back({LoggingMode::kLogical, GraphKind::kRefined,
                 FlushPolicy::kFlushTransaction,
                 RedoTestKind::kRsiGeneralized, 2, true, 32});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ParallelRedoMatrixTest,
                         testing::ValuesIn(BuildMatrix()), ParamName);

}  // namespace
}  // namespace loglog
