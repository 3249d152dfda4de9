#include <gtest/gtest.h>

#include "ops/function_registry.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"

namespace loglog {
namespace {

constexpr FuncId kTwoOut = kFuncFirstCustom + 0x50;

void RegisterTwoOut() {
  FunctionRegistry::Global().Register(
      kTwoOut,
      [](const OperationDesc&, const std::vector<ObjectValue>& reads,
         std::vector<ObjectValue>* writes) {
        (*writes)[0] = reads[0];
        (*writes)[1] = reads[0];
        return Status::OK();
      });
}

OperationDesc TwoOutOp(ObjectId src, ObjectId a, ObjectId b) {
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kTwoOut;
  op.reads = {src};
  op.writes = {a, b};
  return op;
}

// Crash exactly between a flush transaction's commit and its in-place
// writes, through the real PurgeCache path: recovery must complete the
// transaction from the logged values. Armed through the fault-injector
// registry (the modern spelling of the old FailPoint enum).
class FlushTxnWindowTest
    : public testing::TestWithParam<std::string_view> {};

TEST_P(FlushTxnWindowTest, RecoveryCompletesInterruptedFlush) {
  RegisterTwoOut();
  EngineOptions opts;
  opts.flush_policy = FlushPolicy::kFlushTransaction;
  opts.purge_threshold_ops = 0;  // manual
  CrashHarness harness(opts, 77);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "source-value")).ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.Execute(TwoOutOp(1, 2, 3)).ok());

  harness.disk().fault_injector().Arm(GetParam(), FaultSpec::CrashOnce());
  Status st = harness.engine().PurgeOne();
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(harness.disk().fault_injector().site_stats(GetParam()).fires,
            1u);

  harness.Crash();
  RecoveryStats stats;
  ASSERT_TRUE(harness.Recover(&stats).ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  StoredObject obj;
  ASSERT_TRUE(harness.disk().store().Read(2, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "source-value");
  ASSERT_TRUE(harness.disk().store().Read(3, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "source-value");
}

INSTANTIATE_TEST_SUITE_P(
    Windows, FlushTxnWindowTest,
    testing::Values(fault::kCmAfterFlushTxnCommit,
                    fault::kCmAfterFirstFlushTxnWrite),
    [](const testing::TestParamInfo<std::string_view>& info) {
      return info.param == fault::kCmAfterFlushTxnCommit
                 ? "AfterCommit"
                 : "AfterFirstWrite";
    });

// A flush transaction cut short after its first in-place write leaves
// one flushed object (B) newer on the stable store than an operation
// that read it. Recovery rebuilds the other flushed object (A) in the
// cache from its older stable version, voids the replay of that reader,
// and only then reaches the flush and completes A on the stable store.
// The completed version must replace the rebuilt one in the cache, or
// the next flush writes the older version back over it.
TEST(FailPointTest, CompletedFlushSupersedesRebuiltCacheVersion) {
  constexpr ObjectId kB = 1;  // written first by the flush transaction
  constexpr ObjectId kA = 2;
  EngineOptions opts;
  opts.flush_policy = FlushPolicy::kFlushTransaction;
  opts.purge_threshold_ops = 0;  // manual
  CrashHarness harness(opts, 80);
  ASSERT_TRUE(harness.Execute(MakeCreate(kB, "b")).ok());
  ASSERT_TRUE(harness.Execute(MakeCreate(kA, "a")).ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.Execute(MakeAppend(kA, "-1")).ok());
  ASSERT_TRUE(harness.Execute(MakeXorMerge(kB, {kB, kA})).ok());
  ASSERT_TRUE(harness.Execute(MakeCopy(kA, kB)).ok());
  ASSERT_TRUE(harness.Execute(MakeAppend(kB, "-2")).ok());

  harness.disk().fault_injector().Arm(fault::kCmAfterFirstFlushTxnWrite,
                                      FaultSpec::CrashOnce());
  ASSERT_TRUE(harness.engine().FlushAll().IsAborted());
  harness.Crash();
  RecoveryStats stats;
  ASSERT_TRUE(harness.Recover(&stats).ok());
  EXPECT_EQ(stats.flush_txns_completed, 1u);
  Status st = harness.VerifyAgainstReference();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// Crash after the WAL force but before any flush: pure redo territory.
TEST(FailPointTest, CrashAfterWalForceRedoesEverything) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 78);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "payload")).ok());
  harness.disk().fault_injector().Arm(fault::kCmAfterWalForce,
                                      FaultSpec::CrashOnce());
  EXPECT_TRUE(harness.disk().fault_injector().armed(fault::kCmAfterWalForce));
  ASSERT_TRUE(harness.engine().PurgeOne().IsAborted());
  EXPECT_FALSE(harness.disk().store().Exists(1));

  harness.Crash();
  RecoveryStats stats;
  ASSERT_TRUE(harness.Recover(&stats).ok());
  EXPECT_EQ(stats.ops_redone, 1u);
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  EXPECT_TRUE(harness.disk().store().Exists(1));
}

// One-shot semantics live in the registry now: the site disarms itself
// after firing, so the very next pass through the same window succeeds
// without any manual reset (the old fail_point_ member had to self-clear;
// the trigger policy subsumes it).
TEST(FailPointTest, CrashWindowSelfClearsAfterFiring) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 79);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "v1")).ok());
  harness.disk().fault_injector().Arm(fault::kCmAfterWalForce,
                                      FaultSpec::CrashOnce());
  ASSERT_TRUE(harness.engine().PurgeOne().IsAborted());
  EXPECT_FALSE(harness.disk().fault_injector().armed(fault::kCmAfterWalForce));
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  // The redo pass re-applied the operation; installing it now must not
  // trip the (already fired) fault again.
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

}  // namespace
}  // namespace loglog
