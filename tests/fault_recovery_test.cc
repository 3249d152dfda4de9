#include <gtest/gtest.h>

#include "common/retry.h"
#include "fault/fault_injector.h"
#include "ops/function_registry.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"
#include "sim/recoverability_oracle.h"
#include "sim/workload.h"

namespace loglog {
namespace {

constexpr FuncId kFanOut = kFuncFirstCustom + 0x60;

void RegisterFanOut() {
  FunctionRegistry::Global().Register(
      kFanOut,
      [](const OperationDesc&, const std::vector<ObjectValue>& reads,
         std::vector<ObjectValue>* writes) {
        (*writes)[0] = reads[0];
        (*writes)[1] = reads[0];
        return Status::OK();
      });
}

OperationDesc FanOutOp(ObjectId src, ObjectId a, ObjectId b) {
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kFanOut;
  op.reads = {src};
  op.writes = {a, b};
  return op;
}

// Transient device errors are absorbed by the bounded-retry layer: the
// workload completes with no user-visible failure, and the retries are
// visible only in the I/O counters.
TEST(FaultRecoveryTest, TransientErrorsAreRetried) {
  EngineOptions opts;
  CrashHarness harness(opts, 101);
  MixedWorkloadOptions wopts;
  wopts.seed = 101;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(harness.Execute(op).ok());
  }
  FaultInjector& inj = harness.disk().fault_injector();
  inj.Arm(fault::kStoreWrite, FaultSpec::TransientTimes(2));
  inj.Arm(fault::kLogForce, FaultSpec::TransientTimes(1));
  for (int i = 0; i < 40; ++i) {
    Status st = harness.Execute(workload.Next());
    ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
  }
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  EXPECT_GT(harness.disk().stats().io_retries, 0u);
  EXPECT_EQ(inj.total_fires(), 3u);  // every armed failure was consumed
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

// A permanent device error exhausts the retry budget and surfaces as a
// clean IoError — not a crash, not silent corruption. After the "device
// is replaced" (disarm), the same flush succeeds.
TEST(FaultRecoveryTest, PermanentErrorSurfacesCleanly) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 102);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "durable-value")).ok());
  FaultInjector& inj = harness.disk().fault_injector();
  inj.Arm(fault::kStoreWrite, FaultSpec::Permanent());
  Status st = harness.engine().FlushAll();
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(st.message().find("permanent"), std::string::npos);
  EXPECT_GE(harness.disk().stats().io_retries,
            static_cast<uint64_t>(kMaxIoRetries));
  inj.DisarmAll();
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

// The headline corruption scenario: a write is silently bit-flipped on
// the media under a stale checksum. Without the checksum a read would
// return plausible-but-wrong bytes; with it the read reports Corruption,
// and recovery classifies the object as a media failure and repairs the
// database from the backup image plus log replay.
TEST(FaultRecoveryTest, BitFlipDetectedAndRepairedFromBackup) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 103);
  for (ObjectId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(
        harness.Execute(MakeCreate(id, "steady-state-payload")).ok());
  }
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.TakeBackup().ok());
  // Post-backup history, so repair must replay the log past the image.
  ASSERT_TRUE(harness.Execute(MakeAppend(2, "-post-backup")).ok());
  ASSERT_TRUE(harness.Execute(MakeCopy(7, 2)).ok());

  harness.disk().fault_injector().Arm(fault::kStoreWrite,
                                      FaultSpec::BitFlipOnce(0xbadb17));
  ASSERT_TRUE(harness.engine().FlushAll().ok());  // the flip is silent

  std::vector<ObjectId> corrupt = harness.disk().store().CorruptObjects();
  ASSERT_EQ(corrupt.size(), 1u);
  ObjectId victim = corrupt[0];

  // Ground truth for the victim from the reference replay.
  RecoverabilityOracle ref;
  ASSERT_TRUE(
      ref.Advance(harness.disk().log().ArchiveContents(), kMaxLsn).ok());
  ASSERT_TRUE(ref.expected().contains(victim));
  const ObjectValue& expected = ref.expected().at(victim).value;

  // The damaged bytes would read back as a plausible value — provably
  // wrong, and nothing in the raw read says so. The checksum is what
  // turns the silent wrong answer into a detectable Corruption.
  StoredObject raw;
  Status read_st = harness.disk().store().Read(victim, &raw);
  EXPECT_TRUE(read_st.IsCorruption()) << read_st.ToString();
  EXPECT_EQ(raw.value.size(), expected.size());
  EXPECT_NE(raw.value, expected);

  harness.Crash();
  RecoveryStats stats;
  Status st = harness.Recover(&stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.corrupt_objects, 1u);
  EXPECT_TRUE(stats.media_recovery);
  EXPECT_GE(stats.media_repairs, 1u);
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  StoredObject repaired;
  ASSERT_TRUE(harness.disk().store().Read(victim, &repaired).ok());
  EXPECT_EQ(repaired.value, expected);
}

// Corruption repair needs no backup: the verification archive reaches
// back to the beginning of history, so replay alone rebuilds the state.
TEST(FaultRecoveryTest, BitFlipRepairedWithoutBackup) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 104);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "alpha-payload")).ok());
  ASSERT_TRUE(harness.Execute(MakeCreate(2, "beta-payload")).ok());
  harness.disk().fault_injector().Arm(fault::kStoreWrite,
                                      FaultSpec::BitFlipOnce(0xf00d));
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_FALSE(harness.disk().store().CorruptObjects().empty());

  harness.Crash();
  RecoveryStats stats;
  ASSERT_TRUE(harness.Recover(&stats).ok());
  EXPECT_TRUE(stats.media_recovery);
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

// A lost single-object write (acknowledged, never persisted) is caught
// by the vSI REDO test: the stable object is missing/stale, so the
// operation does not test as installed and is redone. (Lost writes of
// multi-write operations are NOT recoverable — any surviving sibling
// write makes every redo test skip the operation — which is why the
// crash storm never arms this action; see EXPERIMENTS.md.)
TEST(FaultRecoveryTest, LostSingleWriteRedoneUnderVsiTest) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  opts.redo_test = RedoTestKind::kVsi;
  CrashHarness harness(opts, 105);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "must-survive")).ok());
  harness.disk().fault_injector().Arm(fault::kStoreWrite,
                                      FaultSpec::LostOnce());
  ASSERT_TRUE(harness.engine().FlushAll().ok());  // ack without persist
  EXPECT_FALSE(harness.disk().store().Exists(1));

  harness.Crash();
  RecoveryStats stats;
  ASSERT_TRUE(harness.Recover(&stats).ok());
  EXPECT_EQ(stats.ops_redone, 1u);
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  EXPECT_TRUE(harness.disk().store().Exists(1));
}

// Crash during recovery itself: a fault kills the flush-transaction
// completion mid-write; the second recovery completes the remainder
// idempotently.
TEST(FaultRecoveryTest, CrashDuringRecoveryIsIdempotent) {
  RegisterFanOut();
  EngineOptions opts;
  opts.flush_policy = FlushPolicy::kFlushTransaction;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 106);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "fan-source")).ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.Execute(FanOutOp(1, 2, 3)).ok());

  FaultInjector& inj = harness.disk().fault_injector();
  inj.Arm(fault::kCmAfterFlushTxnCommit, FaultSpec::CrashOnce());
  ASSERT_TRUE(harness.engine().PurgeOne().IsAborted());
  harness.Crash();

  // First recovery attempt dies on its very first completion write.
  inj.Arm(fault::kStoreWrite, FaultSpec::CrashOnHit(1));
  RecoveryStats stats;
  Status st = harness.Recover(&stats);
  ASSERT_TRUE(st.IsAborted()) << st.ToString();

  harness.Crash();
  ASSERT_TRUE(harness.Recover(&stats).ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  StoredObject obj;
  ASSERT_TRUE(harness.disk().store().Read(2, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "fan-source");
  ASSERT_TRUE(harness.disk().store().Read(3, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "fan-source");
}

// A torn log force through the device fault site: the force reports
// Aborted, the log manager refuses to ack (and poisons itself), and
// recovery trims the torn tail.
TEST(FaultRecoveryTest, TornLogForcePoisonsUntilRecovery) {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  CrashHarness harness(opts, 107);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "first")).ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.Execute(MakeCreate(2, "second")).ok());

  harness.disk().fault_injector().Arm(fault::kLogAppend,
                                      FaultSpec::TornOnce(0x7ea2));
  Lsn pending = harness.engine().log().last_assigned_lsn();
  Status st = harness.engine().log().Force(pending);
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  // Nothing was acknowledged; further forces are refused until recovery.
  EXPECT_LT(harness.engine().log().last_stable_lsn(), pending);
  EXPECT_TRUE(harness.engine().log().Force(pending).IsFailedPrecondition());

  harness.Crash();
  RecoveryStats stats;
  ASSERT_TRUE(harness.Recover(&stats).ok());
  EXPECT_TRUE(stats.torn_tail);
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  // Object 1's create was acked before the tear and must have survived.
  EXPECT_TRUE(harness.disk().store().Exists(1));
}

}  // namespace
}  // namespace loglog
