#include <gtest/gtest.h>

#include "backup/backup_manager.h"
#include "backup/media_recovery.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"
#include "sim/recoverability_oracle.h"
#include "sim/workload.h"

namespace loglog {
namespace {

Status VerifyMediaRecovered(SimulatedDisk& source_disk,
                            RecoveryEngine* recovered) {
  LOGLOG_RETURN_IF_ERROR(recovered->FlushAll());
  RecoverabilityOracle ref;
  LOGLOG_RETURN_IF_ERROR(
      ref.Advance(source_disk.log().ArchiveContents(), kMaxLsn));
  DivergenceReport report;
  return ref.Compare(recovered->disk().store(), &report,
                     recovered->log().last_stable_lsn());
}

TEST(BackupTest, QuiescentBackupRestoresExactly) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "alpha")).ok());
  ASSERT_TRUE(engine.Execute(MakeCreate(2, "beta")).ok());
  ASSERT_TRUE(engine.Execute(MakeCopy(3, 1)).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  BackupManager backup(&disk, /*repair_order=*/true);
  ASSERT_TRUE(backup.Begin().ok());
  while (!backup.done()) ASSERT_TRUE(backup.Step(1).ok());
  EXPECT_EQ(backup.image().entries.size(), 3u);
  EXPECT_EQ(backup.stats().repair_recopies, 0u);  // quiescent: no hazard

  SimulatedDisk fresh;
  std::unique_ptr<RecoveryEngine> recovered;
  RecoveryStats stats;
  ASSERT_TRUE(MediaRecover(backup.image(), disk.log().ArchiveContents(),
                           &fresh, &recovered, &stats)
                  .ok());
  ASSERT_TRUE(VerifyMediaRecovered(disk, recovered.get()).ok());
}

// The Section 1 inversion, constructed deliberately:
//   O: Y <- copy(X) is installed (Y flushed) and X is then blind-
//   overwritten and flushed. A naive fuzzy backup that copied Y *before*
//   O installed and X *after* the overwrite holds {old Y, new X} and is
//   unrecoverable; the order-repaired backup re-copies Y and recovers.
class FuzzyInversionTest : public testing::TestWithParam<bool> {};

TEST_P(FuzzyInversionTest, NaiveFailsRepairedRecovers) {
  const bool repair = GetParam();
  SimulatedDisk disk;
  EngineOptions opts;
  opts.purge_threshold_ops = 0;  // manual flush control
  RecoveryEngine engine(opts, &disk);
  constexpr ObjectId kX = 1, kY = 2;
  ASSERT_TRUE(engine.Execute(MakeCreate(kX, "x-original")).ok());
  ASSERT_TRUE(engine.Execute(MakeCreate(kY, "y-original")).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  BackupManager backup(&disk, repair);
  ASSERT_TRUE(backup.Begin().ok());
  // plan order is {X, Y} (sorted); copy X=old... we need Y copied FIRST
  // while old, so copy both now: X@old, Y@old.
  while (!backup.done()) ASSERT_TRUE(backup.Step(1).ok());
  // Now O: Y <- copy(X); install it (flush Y).
  ASSERT_TRUE(engine.Execute(MakeCopy(kY, kX)).ok());
  ASSERT_TRUE(engine.FlushAll().ok());
  // Blind-overwrite X and flush it.
  ASSERT_TRUE(engine.Execute(MakePhysicalWrite(kX, "x-newer!!")).ok());
  ASSERT_TRUE(engine.FlushAll().ok());
  // The fuzzy backup re-copies X (it "catches up" on a hot object) —
  // modeled by a second Begin/Step limited to X via a fresh manager
  // sharing the image… simplest: copy X again through the same manager's
  // repair path by re-running Begin on a manager seeded with the old
  // image. Instead, emulate directly: a second backup pass copies X.
  BackupImage image = backup.image();
  StoredObject sx;
  ASSERT_TRUE(disk.store().Read(kX, &sx).ok());
  image.entries[kX] = BackupEntry{sx.value, sx.vsi};  // X@new, Y@old
  if (repair) {
    // The repaired manager would have re-copied Y when X was re-copied;
    // emulate its rule.
    StoredObject sy;
    ASSERT_TRUE(disk.store().Read(kY, &sy).ok());
    image.entries[kY] = BackupEntry{sy.value, sy.vsi};
  }

  SimulatedDisk fresh;
  std::unique_ptr<RecoveryEngine> recovered;
  RecoveryStats stats;
  ASSERT_TRUE(MediaRecover(image, disk.log().ArchiveContents(), &fresh,
                           &recovered, &stats)
                  .ok());
  Status verdict = VerifyMediaRecovered(disk, recovered.get());
  if (repair) {
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(stats.ops_voided, 0u);
  } else {
    // The copy of X into Y is voided (input from the future) and Y keeps
    // its stale value: the naive fuzzy backup is not recoverable.
    EXPECT_GE(stats.ops_voided, 1u);
    EXPECT_FALSE(verdict.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(NaiveVsRepaired, FuzzyInversionTest,
                         testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Repaired" : "Naive";
                         });

// End-to-end: fuzzy backup interleaved with a live mixed workload, with
// repair on, is always media-recoverable.
class FuzzyBackupMatrixTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FuzzyBackupMatrixTest, InterleavedBackupIsRecoverable) {
  EngineOptions opts;
  opts.purge_threshold_ops = 8;  // flush aggressively during the window
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  MixedWorkloadOptions wopts;
  wopts.seed = GetParam();
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(engine.Execute(op).ok());
  }
  for (int i = 0; i < 100; ++i) {
    Status st = engine.Execute(workload.Next());
    ASSERT_TRUE(st.ok() || st.IsNotFound());
  }
  ASSERT_TRUE(engine.FlushAll().ok());

  BackupManager backup(&disk, /*repair_order=*/true);
  ASSERT_TRUE(backup.Begin().ok());
  while (!backup.done()) {
    ASSERT_TRUE(backup.Step(2).ok());
    for (int i = 0; i < 10; ++i) {
      Status st = engine.Execute(workload.Next());
      ASSERT_TRUE(st.ok() || st.IsNotFound());
    }
  }
  // A little more churn, then the log must be complete on the archive.
  for (int i = 0; i < 30; ++i) {
    Status st = engine.Execute(workload.Next());
    ASSERT_TRUE(st.ok() || st.IsNotFound());
  }
  ASSERT_TRUE(engine.log().ForceAll().ok());

  // Media failure: the stable store is lost; backup + archive remain.
  SimulatedDisk fresh;
  std::unique_ptr<RecoveryEngine> recovered;
  RecoveryStats stats;
  ASSERT_TRUE(MediaRecover(backup.image(), disk.log().ArchiveContents(),
                           &fresh, &recovered, &stats)
                  .ok());
  Status verdict = VerifyMediaRecovered(disk, recovered.get());
  EXPECT_TRUE(verdict.ok()) << verdict.ToString() << "\n"
                            << stats.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzyBackupMatrixTest,
                         testing::Values(11, 22, 33, 44, 55, 66));

// One manager taking successive backups (as the crash harness keeps one)
// produces the same images and repairs as fresh managers that index the
// whole archive, while each backup decodes only the log appended since
// the previous one.
TEST(BackupTest, ReusedManagerDecodesOnlyNewLog) {
  EngineOptions opts;
  opts.purge_threshold_ops = 8;
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  MixedWorkloadOptions wopts;
  wopts.seed = 77;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(engine.Execute(op).ok());
  }
  auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Status st = engine.Execute(workload.Next());
      ASSERT_TRUE(st.ok() || st.IsNotFound());
    }
  };
  // Backs up with `kept` and a fresh manager side by side, running
  // `churn_per_step` operations between steps; both images and repair
  // counts must agree, and what `kept` has decoded over all its backups
  // must be exactly what the fresh manager decoded in one.
  BackupManager kept(&disk, /*repair_order=*/true);
  uint64_t kept_decoded = 0;
  auto backup_both = [&](int churn_per_step) {
    BackupManager fresh(&disk, /*repair_order=*/true);
    ASSERT_TRUE(kept.Begin().ok());
    ASSERT_TRUE(fresh.Begin().ok());
    while (!kept.done()) {
      ASSERT_TRUE(kept.Step(2).ok());
      ASSERT_TRUE(fresh.Step(2).ok());
      churn(churn_per_step);
    }
    ASSERT_TRUE(fresh.done());
    ASSERT_EQ(kept.image().entries.size(), fresh.image().entries.size());
    for (const auto& [id, entry] : fresh.image().entries) {
      auto it = kept.image().entries.find(id);
      ASSERT_NE(it, kept.image().entries.end()) << id;
      EXPECT_EQ(it->second.value, entry.value) << id;
      EXPECT_EQ(it->second.vsi, entry.vsi) << id;
    }
    EXPECT_EQ(kept.stats().objects_copied, fresh.stats().objects_copied);
    EXPECT_EQ(kept.stats().repair_recopies, fresh.stats().repair_recopies);
    kept_decoded += kept.stats().log_bytes_indexed;
    EXPECT_EQ(kept_decoded, fresh.stats().log_bytes_indexed);
  };
  uint64_t repairs = 0;
  for (int round = 0; round < 3; ++round) {
    churn(100);
    ASSERT_TRUE(engine.log().ForceAll().ok());
    const uint64_t decoded_before = kept_decoded;
    backup_both(10);
    // A later backup decodes only the bytes past the previous one's end.
    if (round > 0) {
      EXPECT_GT(kept.stats().log_bytes_indexed, 0u);
      EXPECT_LT(kept.stats().log_bytes_indexed, kept_decoded);
    }
    EXPECT_EQ(kept.stats().log_bytes_indexed, kept_decoded - decoded_before);
    repairs += kept.stats().repair_recopies;
  }
  EXPECT_GT(repairs, 0u);  // the repair rule read the index

  // An archive shorter than what was indexed is another archive: the
  // next backup indexes it from its start. The tear drops whole records
  // that the previous backup indexed, and nothing is logged after it.
  churn(20);
  ASSERT_TRUE(engine.log().ForceAll().ok());
  ASSERT_GT(disk.log().last_append_size(), 0u);
  backup_both(0);
  const uint64_t indexed = disk.log().ArchiveContents().size();
  ASSERT_EQ(kept_decoded, indexed);
  disk.log().TearTail(disk.log().last_append_size());
  ASSERT_LT(disk.log().ArchiveContents().size(), indexed);
  kept_decoded = 0;
  backup_both(0);
  EXPECT_EQ(kept.stats().log_bytes_indexed,
            disk.log().ArchiveContents().size());
}

// The crash harness keeps one backup manager across its backups and
// crashes, and builds a new one when a failover switches disks.
TEST(BackupTest, HarnessBackupsDecodeEachRecordOnce) {
  CrashHarness harness(EngineOptions{}, 5);
  ASSERT_TRUE(harness.Execute(MakeCreate(1, "a")).ok());
  ASSERT_TRUE(harness.Execute(MakeCopy(2, 1)).ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.TakeBackup().ok());
  const uint64_t first = harness.disk().log().ArchiveContents().size();
  EXPECT_EQ(harness.backup_manager().stats().log_bytes_indexed, first);
  ASSERT_TRUE(harness.Execute(MakeCopy(3, 2)).ok());
  ASSERT_TRUE(harness.engine().log().ForceAll().ok());
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  ASSERT_TRUE(harness.TakeBackup().ok());
  const uint64_t second = harness.disk().log().ArchiveContents().size();
  EXPECT_GT(second, first);
  EXPECT_EQ(harness.backup_manager().stats().log_bytes_indexed,
            second - first);
  EXPECT_EQ(harness.backup().entries.size(), 3u);
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
}

TEST(PointInTimeRestoreTest, MaterializesHistoricStates) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  Lsn lsn1, lsn2, lsn3;
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "v1"), &lsn1).ok());
  ASSERT_TRUE(engine.Execute(MakePhysicalWrite(1, "v2"), &lsn2).ok());
  ASSERT_TRUE(engine.Execute(MakeCopy(2, 1), &lsn3).ok());
  Lsn lsn4;
  ASSERT_TRUE(engine.Execute(MakeDelete(1), &lsn4).ok());
  ASSERT_TRUE(engine.log().ForceAll().ok());
  Slice archive = disk.log().ArchiveContents();

  // As of lsn1: object 1 holds v1, object 2 absent.
  SimulatedDisk pit1;
  ASSERT_TRUE(RestoreToLsn(archive, lsn1, &pit1).ok());
  StoredObject obj;
  ASSERT_TRUE(pit1.store().Read(1, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "v1");
  EXPECT_FALSE(pit1.store().Exists(2));

  // As of lsn3: 1 = v2, 2 = v2 (the copy).
  SimulatedDisk pit3;
  ASSERT_TRUE(RestoreToLsn(archive, lsn3, &pit3).ok());
  ASSERT_TRUE(pit3.store().Read(1, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "v2");
  ASSERT_TRUE(pit3.store().Read(2, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "v2");

  // As of lsn4: 1 deleted, 2 survives.
  SimulatedDisk pit4;
  ASSERT_TRUE(RestoreToLsn(archive, lsn4, &pit4).ok());
  EXPECT_FALSE(pit4.store().Exists(1));
  EXPECT_TRUE(pit4.store().Exists(2));

  // As of LSN 0: empty database.
  SimulatedDisk pit0;
  ASSERT_TRUE(RestoreToLsn(archive, 0, &pit0).ok());
  EXPECT_EQ(pit0.store().object_count(), 0u);
}

TEST(PointInTimeRestoreTest, MatchesReferenceOnMixedWorkload) {
  EngineOptions opts;
  opts.purge_threshold_ops = 16;
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  MixedWorkloadOptions wopts;
  wopts.seed = 77;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    ASSERT_TRUE(engine.Execute(op).ok());
  }
  for (int i = 0; i < 150; ++i) {
    Status st = engine.Execute(workload.Next());
    ASSERT_TRUE(st.ok() || st.IsNotFound());
  }
  ASSERT_TRUE(engine.log().ForceAll().ok());

  // Full-history restore must equal the reference replay.
  SimulatedDisk pit;
  ASSERT_TRUE(
      RestoreToLsn(disk.log().ArchiveContents(), kMaxLsn, &pit).ok());
  RecoverabilityOracle ref;
  ASSERT_TRUE(ref.Advance(disk.log().ArchiveContents(), kMaxLsn).ok());
  DivergenceReport report;
  ASSERT_TRUE(ref.Compare(pit.store(), &report, kMaxLsn).ok())
      << report.ToString();
}

TEST(BackupTest, EmptyStoreBackupIsTrivial) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  BackupManager backup(&disk, true);
  ASSERT_TRUE(backup.Begin().ok());
  EXPECT_TRUE(backup.done());
  EXPECT_TRUE(backup.image().entries.empty());
  EXPECT_EQ(backup.image().ScanStart(), 1u);  // replay everything
}

TEST(BackupTest, ObjectDeletedDuringWindowLeavesNoEntry) {
  SimulatedDisk disk;
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  RecoveryEngine engine(opts, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "doomed")).ok());
  ASSERT_TRUE(engine.Execute(MakeCreate(2, "kept")).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  BackupManager backup(&disk, true);
  ASSERT_TRUE(backup.Begin().ok());
  // Delete object 1 and install the delete before it is copied.
  ASSERT_TRUE(engine.Execute(MakeDelete(1)).ok());
  ASSERT_TRUE(engine.FlushAll().ok());
  while (!backup.done()) ASSERT_TRUE(backup.Step(1).ok());
  EXPECT_FALSE(backup.image().entries.contains(1));
  EXPECT_TRUE(backup.image().entries.contains(2));

  ASSERT_TRUE(engine.log().ForceAll().ok());
  SimulatedDisk fresh;
  std::unique_ptr<RecoveryEngine> recovered;
  RecoveryStats stats;
  ASSERT_TRUE(MediaRecover(backup.image(), disk.log().ArchiveContents(),
                           &fresh, &recovered, &stats)
                  .ok());
  ASSERT_TRUE(VerifyMediaRecovered(disk, recovered.get()).ok());
  EXPECT_FALSE(fresh.store().Exists(1));
}

TEST(BackupTest, ObjectsCreatedAfterBeginReplayFromLog) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "old")).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  BackupManager backup(&disk, true);
  ASSERT_TRUE(backup.Begin().ok());
  ASSERT_TRUE(engine.Execute(MakeCreate(2, "new-after-begin")).ok());
  while (!backup.done()) ASSERT_TRUE(backup.Step(1).ok());
  EXPECT_FALSE(backup.image().entries.contains(2));

  ASSERT_TRUE(engine.log().ForceAll().ok());
  SimulatedDisk fresh;
  std::unique_ptr<RecoveryEngine> recovered;
  RecoveryStats stats;
  ASSERT_TRUE(MediaRecover(backup.image(), disk.log().ArchiveContents(),
                           &fresh, &recovered, &stats)
                  .ok());
  ASSERT_TRUE(VerifyMediaRecovered(disk, recovered.get()).ok());
  StoredObject obj;
  ASSERT_TRUE(fresh.store().Read(2, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "new-after-begin");
}

}  // namespace
}  // namespace loglog
