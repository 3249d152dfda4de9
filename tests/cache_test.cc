#include <gtest/gtest.h>

#include "cache/cache_manager.h"
#include "ops/function_registry.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"

namespace loglog {
namespace {

struct Rig {
  SimulatedDisk disk;
  LogManager log{&disk.log()};
  CacheManager cm;
  Rig(GraphKind gk, FlushPolicy fp)
      : cm(&disk, &log, gk, fp, /*log_installs=*/true) {}

  Lsn Run(const OperationDesc& op) {
    std::vector<ObjectValue> reads;
    for (ObjectId r : op.reads) {
      ObjectValue v;
      EXPECT_TRUE(cm.GetValue(r, &v).ok());
      reads.push_back(std::move(v));
    }
    std::vector<ObjectValue> writes(op.writes.size());
    for (size_t i = 0; i < op.writes.size(); ++i) {
      ObjectValue v;
      if (cm.GetValue(op.writes[i], &v).ok()) writes[i] = std::move(v);
    }
    if (op.op_class != OpClass::kDelete) {
      EXPECT_TRUE(
          FunctionRegistry::Global().Apply(op, reads, &writes).ok());
    }
    LogRecord rec;
    rec.type = RecordType::kOperation;
    rec.op = op;
    Lsn lsn = log.Append(std::move(rec));
    EXPECT_TRUE(cm.ApplyResults(op, lsn, std::move(writes)).ok());
    return lsn;
  }
};

TEST(CacheManagerTest, GetValueCachesAndTracksVsi) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  rig.disk.store().Write(1, "stable", 5);
  ObjectValue v;
  ASSERT_TRUE(rig.cm.GetValue(1, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "stable");
  EXPECT_EQ(rig.disk.stats().object_reads, 1u);
  ASSERT_TRUE(rig.cm.GetValue(1, &v).ok());
  EXPECT_EQ(rig.disk.stats().object_reads, 1u);  // cached
  EXPECT_EQ(rig.cm.CurrentVsi(1), 5u);
  EXPECT_TRUE(rig.cm.GetValue(99, &v).IsNotFound());
}

TEST(CacheManagerTest, ApplySetsDirtyAndRsi) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  Lsn l1 = rig.Run(MakePhysicalWrite(1, "a"));
  EXPECT_EQ(rig.cm.CurrentVsi(1), l1);
  EXPECT_EQ(rig.cm.CurrentRsi(1), l1);
  Lsn l2 = rig.Run(MakeDelta(1, 0, "b"));
  EXPECT_EQ(rig.cm.CurrentVsi(1), l2);
  EXPECT_EQ(rig.cm.CurrentRsi(1), l1);  // rSI stays at first uninstalled
  EXPECT_EQ(rig.cm.table().dirty_count(), 1u);
  EXPECT_TRUE(rig.cm.CheckInvariants().ok());
}

TEST(CacheManagerTest, PurgeInstallsAndCleans) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  rig.Run(MakePhysicalWrite(1, "hello"));
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_EQ(rig.disk.store().StableVsi(1), 1u);
  EXPECT_EQ(rig.cm.CurrentRsi(1), kInvalidLsn);
  EXPECT_EQ(rig.cm.table().dirty_count(), 0u);
  // WAL: the operation was forced before the flush.
  EXPECT_EQ(rig.log.last_stable_lsn(), 1u);
  EXPECT_TRUE(rig.cm.PurgeOne().IsNotFound());
}

TEST(CacheManagerTest, WalForcesLogBeforeFlush) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  rig.Run(MakePhysicalWrite(1, "x"));
  EXPECT_EQ(rig.log.last_stable_lsn(), 0u);
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_GE(rig.log.last_stable_lsn(), 1u);
}

TEST(CacheManagerTest, IdentityWritesBreakUpAtomicFlushSets) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kIdentityWrites);
  // One operation writing two objects: W would need an atomic pair.
  OperationDesc op = MakeHashCombine(3, {1, 2}, 64, 5);
  op.writes = {3, 4};  // two blind outputs
  rig.disk.store().Write(1, "in1", 0);
  rig.disk.store().Write(2, "in2", 0);
  // HashCombine writes only writes[0]; build a custom two-output op via
  // the btree-style shape instead: use XorMerge into 3 and a second op
  // merging into one node through exposure.
  op = MakeXorMerge(3, {1, 2});
  rig.Run(op);
  OperationDesc op2 = MakeXorMerge(4, {1, 2});
  rig.Run(op2);
  // Two separate nodes; no identity writes needed.
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_EQ(rig.cm.stats().identity_writes, 0u);
}

TEST(CacheManagerTest, IdentityWritePeelsMultiObjectNode) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kIdentityWrites);
  rig.disk.store().Write(1, "src", 0);
  // A single logical op writing two objects (like a B-tree split).
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kFuncAppWrite;  // writes[0] only, so craft manually below
  // Use a custom transform writing both outputs.
  FunctionRegistry::Global().Register(
      kFuncFirstCustom + 200,
      [](const OperationDesc&, const std::vector<ObjectValue>& reads,
         std::vector<ObjectValue>* writes) {
        (*writes)[0] = reads[0];
        (*writes)[1] = reads[0];
        return Status::OK();
      });
  op.func = kFuncFirstCustom + 200;
  op.reads = {1};
  op.writes = {2, 3};
  rig.Run(op);
  ASSERT_EQ(rig.cm.graph().Find(rig.cm.graph().MinimalNode())->vars.size(),
            2u);
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  // One identity write peeled one object; no multi-object atomic flush.
  EXPECT_EQ(rig.cm.stats().identity_writes, 1u);
  EXPECT_EQ(rig.disk.stats().atomic_multi_writes, 0u);
  // Drain: the identity-write node flushes the peeled object.
  while (!rig.cm.graph().empty()) ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_TRUE(rig.disk.store().Exists(2));
  EXPECT_TRUE(rig.disk.store().Exists(3));
  EXPECT_TRUE(rig.cm.CheckInvariants().ok());
}

TEST(CacheManagerTest, FlushTransactionLogsValuesAndQuiesces) {
  Rig rig(GraphKind::kW, FlushPolicy::kFlushTransaction);
  rig.disk.store().Write(1, "seed", 0);
  // Two ops whose writesets overlap -> one W node with two objects.
  rig.Run(MakeCopy(2, 1));
  OperationDesc both;
  FunctionRegistry::Global().Register(
      kFuncFirstCustom + 201,
      [](const OperationDesc&, const std::vector<ObjectValue>& reads,
         std::vector<ObjectValue>* writes) {
        (*writes)[0] = reads[0];
        (*writes)[1] = reads[0];
        return Status::OK();
      });
  both.op_class = OpClass::kLogical;
  both.func = kFuncFirstCustom + 201;
  both.reads = {1};
  both.writes = {2, 3};
  rig.Run(both);
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_EQ(rig.cm.stats().flush_txns, 1u);
  EXPECT_EQ(rig.disk.stats().quiesce_events, 1u);
  // Each object logged once plus written in place once.
  EXPECT_EQ(rig.cm.stats().flush_txn_values_logged, 2u);
  EXPECT_TRUE(rig.disk.store().Exists(2));
  EXPECT_TRUE(rig.disk.store().Exists(3));
}

TEST(CacheManagerTest, UnexposedObjectStaysDirtyAfterInstall) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  // Figure 7 shape: A writes {X=1, Y=2}; B reads X writes Z; C blind X.
  FunctionRegistry::Global().Register(
      kFuncFirstCustom + 202,
      [](const OperationDesc&, const std::vector<ObjectValue>&,
         std::vector<ObjectValue>* writes) {
        (*writes)[0] = {1};
        (*writes)[1] = {2};
        return Status::OK();
      });
  OperationDesc a;
  a.op_class = OpClass::kLogical;
  a.func = kFuncFirstCustom + 202;
  a.writes = {1, 2};
  rig.Run(a);
  rig.Run(MakeCopy(3, 1));              // B
  rig.Run(MakePhysicalWrite(1, "C"));   // C: blind write of X
  // Install B (minimal), then A's node: flushes only Y.
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_TRUE(rig.disk.store().Exists(2));   // Y flushed
  EXPECT_FALSE(rig.disk.store().Exists(1));  // X installed without flush
  const CachedObject* x = rig.cm.table().Find(1);
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->dirty());
  EXPECT_EQ(x->rsi, 3u);  // rSI advanced to C's lSI
  EXPECT_EQ(rig.cm.stats().installed_without_flush, 1u);
  // Finally C's node flushes X with C's value.
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  StoredObject sx;
  ASSERT_TRUE(rig.disk.store().Read(1, &sx).ok());
  EXPECT_EQ(Slice(sx.value).ToString(), "C");
}

TEST(CacheManagerTest, DeleteInstallErasesFromStableStore) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  rig.Run(MakeCreate(1, "x"));
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  ASSERT_TRUE(rig.disk.store().Exists(1));
  rig.Run(MakeDelete(1));
  EXPECT_FALSE(rig.cm.ObjectExists(1));
  ObjectValue v;
  EXPECT_TRUE(rig.cm.GetValue(1, &v).IsNotFound());
  ASSERT_TRUE(rig.cm.PurgeOne().ok());
  EXPECT_FALSE(rig.disk.store().Exists(1));
  EXPECT_EQ(rig.cm.table().Find(1), nullptr);  // left the object table
}

TEST(CacheManagerTest, CheckpointTruncatesLog) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  for (int i = 0; i < 10; ++i) {
    rig.Run(MakePhysicalWrite(1 + (i % 2), "value"));
  }
  while (!rig.cm.graph().empty()) ASSERT_TRUE(rig.cm.PurgeOne().ok());
  uint64_t before = rig.disk.log().retained_bytes();
  ASSERT_TRUE(rig.cm.Checkpoint().ok());
  EXPECT_LT(rig.disk.log().retained_bytes(), before);
  EXPECT_EQ(rig.cm.stats().checkpoints, 1u);
}

TEST(CacheManagerTest, EvictionDropsOnlyClean) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kNativeAtomic);
  rig.disk.store().Write(1, "c1", 1);
  rig.disk.store().Write(2, "c2", 2);
  ObjectValue v;
  ASSERT_TRUE(rig.cm.GetValue(1, &v).ok());
  ASSERT_TRUE(rig.cm.GetValue(2, &v).ok());
  rig.Run(MakePhysicalWrite(3, "dirty"));
  rig.cm.EvictTo(1);
  EXPECT_EQ(rig.cm.table().size(), 1u);
  EXPECT_NE(rig.cm.table().Find(3), nullptr);  // dirty survives
  rig.cm.EvictTo(0);
  EXPECT_EQ(rig.cm.table().size(), 1u);  // nothing clean left to evict
  EXPECT_EQ(rig.cm.stats().evictions, 2u);
}

TEST(CacheManagerTest, IdentityPolicyUnderWIsRejected) {
  // Under W a blind identity write merges into the node owning the
  // object (writeset overlap), so peeling can never shrink vars (Section
  // 6: once objects must be flushed together in W, "there is no way to
  // flush them separately"). The pair is rejected, not rewritten.
  EngineOptions opts;
  opts.graph_kind = GraphKind::kW;
  opts.flush_policy = FlushPolicy::kIdentityWrites;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  EXPECT_TRUE(engine.Execute(MakeCreate(1, "x")).IsInvalidArgument());
  opts.flush_policy = FlushPolicy::kNativeAtomic;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(CacheManagerTest, InstallRecordsOptional) {
  // With install logging off the CM stays correct; only analysis-time
  // rSI precision is lost (tested end-to-end by bench_install_logging).
  SimulatedDisk disk;
  LogManager log(&disk.log());
  CacheManager cm(&disk, &log, GraphKind::kRefined,
                  FlushPolicy::kNativeAtomic, /*log_installs=*/false);
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.op = MakePhysicalWrite(1, "x");
  Lsn lsn = log.Append(std::move(rec));
  ASSERT_TRUE(cm.ApplyResults(MakePhysicalWrite(1, "x"), lsn, {{'x'}}).ok());
  ASSERT_TRUE(cm.PurgeOne().ok());
  // Only the operation record reached the log — no install record.
  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(LogManager::ReadStable(disk.log(), &records, &torn, &next,
                                     &valid_end)
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RecordType::kOperation);
}

TEST(CacheManagerTest, FlushAllDrainsEverything) {
  Rig rig(GraphKind::kRefined, FlushPolicy::kIdentityWrites);
  rig.disk.store().Write(1, "s", 0);
  for (int i = 0; i < 5; ++i) rig.Run(MakeCopy(2 + i, 1));
  rig.Run(MakeDelete(2));
  ASSERT_TRUE(rig.cm.FlushAll().ok());
  EXPECT_EQ(rig.cm.table().dirty_count(), 0u);
  EXPECT_TRUE(rig.cm.graph().empty());
  EXPECT_FALSE(rig.disk.store().Exists(2));
  for (int i = 1; i < 5; ++i) EXPECT_TRUE(rig.disk.store().Exists(2 + i));
}

}  // namespace
}  // namespace loglog
