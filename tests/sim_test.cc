#include <gtest/gtest.h>

#include <set>

#include "engine/txn_manager.h"
#include "sim/crash_harness.h"
#include "sim/recoverability_oracle.h"
#include "sim/workload.h"
#include "wal/log_record.h"

namespace loglog {
namespace {

TEST(RecoverabilityOracleTest, AppliesAndDeletes) {
  RecoverabilityOracle ref;
  ASSERT_TRUE(ref.Apply(MakeCreate(1, "one"), 10).ok());
  ASSERT_TRUE(ref.Apply(MakeCopy(2, 1), 11).ok());
  EXPECT_EQ(Slice(ref.expected().at(2).value).ToString(), "one");
  EXPECT_EQ(ref.expected().at(1).last_writer, 10u);
  EXPECT_EQ(ref.expected().at(2).last_writer, 11u);
  ASSERT_TRUE(ref.Apply(MakeDelete(1), 12).ok());
  EXPECT_FALSE(ref.expected().contains(1));
  EXPECT_TRUE(ref.Apply(MakeCopy(3, 1), 13).IsNotFound());
}

TEST(RecoverabilityOracleTest, ReplaysArchiveIncludingTruncatedHistory) {
  EngineOptions opts;
  opts.checkpoint_interval_ops = 5;  // aggressive truncation
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Execute(MakePhysicalWrite(1, "v" +
                                                        std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_TRUE(engine.log().ForceAll().ok());
  // The live log is truncated, but the archive still replays everything.
  RecoverabilityOracle ref;
  ASSERT_TRUE(ref.Advance(disk.log().ArchiveContents(), kMaxLsn).ok());
  EXPECT_EQ(ref.consumed(), disk.log().ArchiveContents().size());
  EXPECT_EQ(Slice(ref.expected().at(1).value).ToString(), "v39");
}

TEST(RecoverabilityOracleTest, CompareDetectsMismatches) {
  SimulatedDisk disk;
  RecoverabilityOracle ref;
  DivergenceReport report;
  ASSERT_TRUE(ref.Apply(MakeCreate(1, "x"), 1).ok());
  // Missing from store.
  EXPECT_TRUE(ref.Compare(disk.store(), &report).IsCorruption());
  EXPECT_EQ(report.missing_objects, 1u);
  // Value mismatch.
  disk.store().Write(1, "y", 1);
  EXPECT_TRUE(ref.Compare(disk.store(), &report).IsCorruption());
  EXPECT_EQ(report.value_mismatches, 1u);
  // Match.
  disk.store().Write(1, "x", 1);
  EXPECT_TRUE(ref.Compare(disk.store(), &report).ok());
  // Extra object in store.
  disk.store().Write(2, "ghost", 2);
  EXPECT_TRUE(ref.Compare(disk.store(), &report).IsCorruption());
  EXPECT_EQ(report.extra_objects, 1u);
}

TEST(RecoverabilityOracleTest, VsiOutsideLastWriterToStableEndIsCaught) {
  SimulatedDisk disk;
  RecoverabilityOracle ref;
  DivergenceReport report;
  ASSERT_TRUE(ref.Apply(MakeCreate(1, "x"), 5).ok());
  disk.store().Write(1, "x", 5);
  EXPECT_TRUE(ref.Compare(disk.store(), &report).ok());
  EXPECT_TRUE(ref.Compare(disk.store(), &report, /*vsi_ceiling=*/9).ok());
  // Below the last writer: an install older than the history it claims.
  disk.store().Write(1, "x", 4);
  EXPECT_TRUE(ref.Compare(disk.store(), &report, 9).IsCorruption());
  EXPECT_EQ(report.vsi_mismatches, 1u);
  // Inside the bound: media repair's stable-end label.
  disk.store().Write(1, "x", 9);
  EXPECT_TRUE(ref.Compare(disk.store(), &report, 9).ok());
  // ...but not where the vSI must be exact.
  EXPECT_TRUE(ref.Compare(disk.store(), &report).IsCorruption());
  // Above the stable end.
  disk.store().Write(1, "x", 10);
  EXPECT_TRUE(ref.Compare(disk.store(), &report, 9).IsCorruption());
  EXPECT_EQ(report.vsi_mismatches, 1u);
}

// Runs a transactional workload with commits, rollbacks and an open
// transaction, and returns the disk's whole archive.
std::vector<uint8_t> TransactionalArchive(SimulatedDisk* disk) {
  RecoveryEngine engine(EngineOptions{}, disk);
  MixedWorkloadOptions wopts;
  wopts.seed = 17;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    EXPECT_TRUE(engine.Execute(op).ok());
  }
  TxnManager tm(&engine);
  for (int t = 0; t < 12; ++t) {
    TxnId id;
    EXPECT_TRUE(tm.Begin(&id).ok());
    for (int i = 0; i < 4; ++i) {
      Status st = tm.Execute(id, workload.Next());
      EXPECT_TRUE(st.ok() || st.IsNotFound() || st.IsAborted());
    }
    if (t == 11) break;  // left open: a loser
    Status st = t % 3 == 0 ? tm.Rollback(id) : tm.Commit(id);
    EXPECT_TRUE(st.ok() || st.IsAborted());
  }
  EXPECT_TRUE(engine.FlushAll().ok());
  EXPECT_TRUE(engine.log().ForceAll().ok());
  Slice archive = disk->log().ArchiveContents();
  return std::vector<uint8_t>(archive.data(), archive.data() + archive.size());
}

TEST(RecoverabilityOracleTest, ChunkedAdvanceEqualsOneAdvance) {
  SimulatedDisk disk;
  const std::vector<uint8_t> archive = TransactionalArchive(&disk);
  ASSERT_GT(archive.size(), 1000u);
  for (OracleFeed feed : {OracleFeed::kHistory, OracleFeed::kCommitted}) {
    RecoverabilityOracle whole(feed);
    ASSERT_TRUE(whole.Advance(Slice(archive), kMaxLsn).ok());
    ASSERT_EQ(whole.consumed(), archive.size());
    for (size_t k : {2u, 3u, 7u, 50u}) {
      // Chunk ends fall mid-record: each prefix looks like a torn tail,
      // which the oracle stops before and resumes from next time.
      RecoverabilityOracle chunked(feed);
      for (size_t i = 1; i <= k; ++i) {
        ASSERT_TRUE(
            chunked.Advance(Slice(archive.data(), archive.size() * i / k),
                            kMaxLsn)
                .ok());
      }
      EXPECT_EQ(chunked.consumed(), archive.size()) << k;
      EXPECT_EQ(chunked.watermark(), whole.watermark()) << k;
      EXPECT_TRUE(chunked.expected() == whole.expected()) << k;
    }
    // Re-reading the same history (a promoted node's overlapping archive)
    // applies nothing twice.
    RecoverabilityOracle again(feed);
    ASSERT_TRUE(again.Advance(Slice(archive), kMaxLsn).ok());
    again.FollowNewArchive();
    ASSERT_TRUE(again.Advance(Slice(archive), kMaxLsn).ok());
    EXPECT_TRUE(again.expected() == whole.expected());
  }
  // Ground truth: the flushed store is the repeat-history replay.
  RecoverabilityOracle history;
  ASSERT_TRUE(history.Advance(Slice(archive), kMaxLsn).ok());
  DivergenceReport report;
  EXPECT_TRUE(history.Compare(disk.store(), &report).ok())
      << report.ToString();
}

// Frames a record at `lsn`; operations create object `lsn` unless `op`
// is given.
void Frame(RecordType type, Lsn lsn, uint64_t txn, std::vector<uint8_t>* out,
           const OperationDesc* op = nullptr) {
  LogRecord rec;
  rec.type = type;
  rec.lsn = lsn;
  rec.txn_id = txn;
  if (type == RecordType::kOperation) {
    rec.op = op != nullptr ? *op : MakeCreate(static_cast<ObjectId>(lsn), "t");
  }
  FrameRecord(rec, out);
}

TEST(RecoverabilityOracleTest, OverlappingArchiveAppliesNothingTwice) {
  // A promoted standby's archive starts at its seed point, inside history
  // the oracle has already applied.
  const OperationDesc create = MakeCreate(1, "a");
  const OperationDesc append = MakeAppend(1, "b");
  std::vector<uint8_t> log;
  Frame(RecordType::kOperation, 1, 0, &log, &create);
  const size_t seed_point = log.size();
  Frame(RecordType::kOperation, 2, 0, &log, &append);
  RecoverabilityOracle oracle;
  ASSERT_TRUE(oracle.Advance(Slice(log), kMaxLsn).ok());
  oracle.FollowNewArchive();
  std::vector<uint8_t> promoted(log.begin() + seed_point, log.end());
  const OperationDesc append2 = MakeAppend(1, "c");
  Frame(RecordType::kOperation, 3, 0, &promoted, &append2);
  ASSERT_TRUE(oracle.Advance(Slice(promoted), kMaxLsn).ok());
  EXPECT_EQ(Slice(oracle.expected().at(1).value).ToString(), "abc");
  EXPECT_EQ(oracle.expected().at(1).last_writer, 3u);
}

TEST(RecoverabilityOracleTest, CommitInALaterChunkAppliesAtTheCommit) {
  std::vector<uint8_t> log;
  Frame(RecordType::kTxnBegin, 1, 7, &log);
  Frame(RecordType::kOperation, 2, 7, &log);
  Frame(RecordType::kTxnBegin, 3, 8, &log);
  Frame(RecordType::kOperation, 4, 8, &log);
  const size_t first_chunk = log.size();
  Frame(RecordType::kOperation, 5, 0, &log);
  Frame(RecordType::kTxnCommit, 6, 7, &log);
  Frame(RecordType::kTxnAbort, 7, 8, &log);
  // An identity write re-logs a cache value that may carry a loser's
  // effect; it never changes committed state.
  const OperationDesc identity = MakeIdentityWrite(4, "t");
  Frame(RecordType::kOperation, 8, 0, &log, &identity);

  RecoverabilityOracle committed(OracleFeed::kCommitted);
  ASSERT_TRUE(
      committed.Advance(Slice(log.data(), first_chunk), kMaxLsn).ok());
  // Held until the commit arrives.
  EXPECT_TRUE(committed.expected().empty());
  ASSERT_TRUE(committed.Advance(Slice(log), kMaxLsn).ok());
  const auto& state = committed.expected();
  EXPECT_EQ(state.at(2).last_writer, 6u);  // applied at its commit
  EXPECT_EQ(state.at(5).last_writer, 5u);  // non-transactional: own LSN
  EXPECT_FALSE(state.contains(4));         // the loser never happens

  RecoverabilityOracle history;
  ASSERT_TRUE(history.Advance(Slice(log), kMaxLsn).ok());
  EXPECT_TRUE(history.expected().contains(4));
  EXPECT_EQ(history.expected().at(4).last_writer, 8u);
  EXPECT_EQ(history.expected().at(2).last_writer, 2u);
}

TEST(RecoverabilityOracleTest, ArchiveShorterThanConsumedIsCorruption) {
  SimulatedDisk disk;
  const std::vector<uint8_t> archive = TransactionalArchive(&disk);
  RecoverabilityOracle oracle;
  ASSERT_TRUE(oracle.Advance(Slice(archive), kMaxLsn).ok());
  EXPECT_TRUE(oracle.Advance(Slice(archive.data(), archive.size() - 1),
                             kMaxLsn)
                  .IsCorruption());
}

TEST(RecoverabilityOracleTest, UptoStopsBeforeLaterRecords) {
  SimulatedDisk disk;
  const std::vector<uint8_t> archive = TransactionalArchive(&disk);
  RecoverabilityOracle whole;
  ASSERT_TRUE(whole.Advance(Slice(archive), kMaxLsn).ok());
  const Lsn mid = whole.watermark() / 2;
  RecoverabilityOracle split;
  ASSERT_TRUE(split.Advance(Slice(archive), mid).ok());
  EXPECT_LE(split.watermark(), mid);
  EXPECT_LT(split.consumed(), archive.size());
  ASSERT_TRUE(split.Advance(Slice(archive), kMaxLsn).ok());
  EXPECT_TRUE(split.expected() == whole.expected());
}

TEST(WorkloadTest, DeterministicAndWellFormed) {
  MixedWorkloadOptions opts;
  opts.seed = 123;
  MixedWorkload a(opts), b(opts);
  // SetupOps consumes generator state; both instances must run it.
  std::vector<OperationDesc> setup_a = a.SetupOps();
  std::vector<OperationDesc> setup_b = b.SetupOps();
  ASSERT_EQ(setup_a.size(), setup_b.size());
  for (size_t i = 0; i < setup_a.size(); ++i) {
    EXPECT_TRUE(setup_a[i].Validate().ok());
    EXPECT_TRUE(setup_a[i] == setup_b[i]);
  }
  for (int i = 0; i < 500; ++i) {
    OperationDesc oa = a.Next();
    OperationDesc ob = b.Next();
    EXPECT_TRUE(oa == ob) << i;
    EXPECT_TRUE(oa.Validate().ok()) << oa.DebugString();
  }
}

TEST(WorkloadTest, CoversAllOperationClasses) {
  MixedWorkloadOptions opts;
  opts.seed = 9;
  MixedWorkload w(opts);
  std::set<FuncId> funcs;
  for (int i = 0; i < 2000; ++i) funcs.insert(w.Next().func);
  EXPECT_TRUE(funcs.contains(kFuncAppExecute));
  EXPECT_TRUE(funcs.contains(kFuncAppRead));
  EXPECT_TRUE(funcs.contains(kFuncAppWrite));
  EXPECT_TRUE(funcs.contains(kFuncCopy));
  EXPECT_TRUE(funcs.contains(kFuncSortRecords));
  EXPECT_TRUE(funcs.contains(kFuncApplyDelta));
  EXPECT_TRUE(funcs.contains(kFuncSetValue));
  EXPECT_TRUE(funcs.contains(kFuncDelete));
  EXPECT_TRUE(funcs.contains(kFuncHashCombine));
}

TEST(WorkloadTest, HotSkewConcentratesPageAccess) {
  MixedWorkloadOptions opts;
  opts.seed = 5;
  opts.hot_skew_percent = 80;
  MixedWorkload w(opts);
  (void)w.SetupOps();
  size_t hot = 0, page_writes = 0;
  for (int i = 0; i < 4000; ++i) {
    OperationDesc op = w.Next();
    if (op.writes.size() == 1 && op.writes[0] >= kPageIdBase &&
        op.writes[0] < kPageIdBase + 100) {
      ++page_writes;
      if (op.writes[0] < kPageIdBase + 2) ++hot;
    }
  }
  ASSERT_GT(page_writes, 100u);
  // ~80% skew onto 2 of 12 pages.
  EXPECT_GT(hot * 100 / page_writes, 60u);

  // Skewed workloads still recover (with auto-hot detection active).
  EngineOptions eopts;
  eopts.flush_policy = FlushPolicy::kIdentityWrites;
  eopts.purge_threshold_ops = 12;
  eopts.auto_hot_write_threshold = 4;
  eopts.checkpoint_interval_ops = 50;
  CrashHarness harness(eopts, 5);
  MixedWorkload workload(opts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(harness.Execute(op).ok());
  }
  for (int i = 0; i < 200; ++i) {
    Status st = harness.Execute(workload.Next());
    ASSERT_TRUE(st.ok() || st.IsNotFound());
  }
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

TEST(CrashHarnessTest, CrashDropsVolatileOnly) {
  CrashHarness harness(EngineOptions{}, 1);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "durable")).ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.Execute(MakeCreate(2, "volatile")).ok());
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  // Object 1 was flushed; object 2's record was never forced.
  EXPECT_TRUE(harness.engine().Exists(1));
  EXPECT_FALSE(harness.engine().Exists(2));
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

TEST(CrashHarnessTest, TearNeverBreaksAcknowledgedForces) {
  EngineOptions opts;
  opts.purge_threshold_ops = 2;  // frequent flushes -> frequent forces
  CrashHarness harness(opts, 8);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        harness.Execute(MakePhysicalWrite(1 + (i % 4), "v")).ok());
  }
  harness.Crash(/*tear_tail=*/true);
  ASSERT_TRUE(harness.Recover().ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

}  // namespace
}  // namespace loglog
