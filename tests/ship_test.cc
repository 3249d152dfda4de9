#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backup/backup_manager.h"
#include "common/coding.h"
#include "engine/recovery_engine.h"
#include "engine/txn_manager.h"
#include "ops/op_builder.h"
#include "ship/log_shipper.h"
#include "ship/replication_channel.h"
#include "ship/ship_frame.h"
#include "wal/log_record.h"
#include "ship/standby_applier.h"
#include "sim/recoverability_oracle.h"
#include "sim/storm.h"
#include "sim/workload.h"
#include "storage/disk_image.h"
#include "storage/simulated_disk.h"

namespace loglog {
namespace {

// --- Frame codec ------------------------------------------------------

ShipBatch MakeBatch(Lsn start, int n) {
  ShipBatch batch;
  batch.start_lsn = start;
  batch.end_lsn = start + static_cast<Lsn>(n) - 1;
  for (int i = 0; i < n; ++i) {
    LogRecord rec;
    rec.type = RecordType::kOperation;
    rec.lsn = start + static_cast<Lsn>(i);
    rec.op = MakePhysicalWrite(100 + i, "frame-payload-bytes");
    batch.records.push_back(std::move(rec));
  }
  return batch;
}

TEST(ShipFrameTest, RoundTrips) {
  ShipBatch batch = MakeBatch(7, 5);
  std::vector<uint8_t> frame;
  EncodeShipFrame(batch, &frame);

  ShipBatch decoded;
  ASSERT_TRUE(DecodeShipFrame(Slice(frame), &decoded).ok());
  EXPECT_EQ(decoded.start_lsn, 7u);
  EXPECT_EQ(decoded.end_lsn, 11u);
  ASSERT_EQ(decoded.records.size(), 5u);
  for (size_t i = 0; i < decoded.records.size(); ++i) {
    EXPECT_EQ(decoded.records[i].lsn, batch.records[i].lsn);
    EXPECT_EQ(decoded.records[i].op.writes, batch.records[i].op.writes);
  }
}

TEST(ShipFrameTest, DetectsDamage) {
  std::vector<uint8_t> frame;
  EncodeShipFrame(MakeBatch(1, 3), &frame);

  // Any single flipped bit anywhere in the frame must surface as
  // Corruption (magic, header cross-checks, or the payload CRC).
  for (size_t byte = 0; byte < frame.size(); byte += 7) {
    std::vector<uint8_t> damaged = frame;
    damaged[byte] ^= 0x10;
    ShipBatch out;
    EXPECT_TRUE(DecodeShipFrame(Slice(damaged), &out).IsCorruption())
        << "byte " << byte;
  }
  // Truncation at any point must too.
  for (size_t len = 0; len < frame.size(); len += 11) {
    ShipBatch out;
    EXPECT_TRUE(
        DecodeShipFrame(Slice(frame.data(), len), &out).IsCorruption())
        << "len " << len;
  }
  // Trailing garbage as well.
  std::vector<uint8_t> padded = frame;
  padded.push_back(0xab);
  ShipBatch out;
  EXPECT_TRUE(DecodeShipFrame(Slice(padded), &out).IsCorruption());
}

TEST(ShipFrameTest, RejectsRecordCountBeyondPayload) {
  std::vector<uint8_t> frame;
  EncodeShipFrame(MakeBatch(1, 3), &frame);
  // The count word (after magic and the two LSNs) is outside the payload
  // CRC; a huge count must be refused before anything is sized by it.
  constexpr size_t kCountOffset = 4 + 8 + 8;
  for (uint32_t count : {4u, 0x10000u, 0xffffffffu}) {
    std::vector<uint8_t> damaged = frame;
    EncodeFixed32(damaged.data() + kCountOffset, count);
    ShipBatch out;
    Status st = DecodeShipFrame(Slice(damaged), &out);
    EXPECT_TRUE(st.IsCorruption()) << count << ": " << st.ToString();
    // A count the payload cannot hold reserves nothing.
    if (count > 4) {
      EXPECT_EQ(out.records.capacity(), 0u) << count;
    }
  }
}

// --- End-to-end replication ------------------------------------------

// Drives shipper and standby until the standby is caught up with
// everything stable on the primary (bounded; fails the test if stuck).
void DrainPipeline(LogShipper* shipper, StandbyApplier* standby,
                   ReplicationChannel* channel) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(shipper->Poll().ok());
    ASSERT_TRUE(standby->Pump().ok());
    if (standby->applied_lsn() >= shipper->durable_lsn() &&
        channel->pending_frames() == 0) {
      return;
    }
  }
  FAIL() << "replication pipeline failed to drain (applied "
         << standby->applied_lsn() << " vs durable "
         << shipper->durable_lsn() << ")";
}

// Byte-identical stable state: every object present in either store must
// exist in both with equal value AND equal vSI.
void ExpectStoresIdentical(const StableStore& primary,
                           const StableStore& standby) {
  uint64_t compared = 0;
  primary.ForEach([&](ObjectId id, const StoredObject& obj) {
    if (!standby.Exists(id)) {
      ADD_FAILURE() << "object " << id << " missing on standby";
      return;
    }
    StoredObject other;
    Status st = standby.Read(id, &other);
    if (!st.ok()) {
      ADD_FAILURE() << "standby read of " << id << ": " << st.ToString();
      return;
    }
    EXPECT_EQ(obj.value, other.value) << "object " << id;
    EXPECT_EQ(obj.vsi, other.vsi) << "object " << id;
    ++compared;
  });
  standby.ForEach([&](ObjectId id, const StoredObject&) {
    EXPECT_TRUE(primary.Exists(id))
        << "standby has extra object " << id;
  });
  EXPECT_GT(compared, 0u);
}

struct PrimaryNode {
  std::unique_ptr<SimulatedDisk> disk;
  std::unique_ptr<RecoveryEngine> engine;
  MixedWorkload workload;

  explicit PrimaryNode(const EngineOptions& options, uint64_t seed)
      : workload([&] {
          MixedWorkloadOptions w;
          w.seed = seed;
          return w;
        }()) {
    disk = std::make_unique<SimulatedDisk>();
    engine = std::make_unique<RecoveryEngine>(options, disk.get());
    for (const OperationDesc& op : workload.SetupOps()) {
      EXPECT_TRUE(engine->Execute(op).ok());
    }
  }

  void Run(int ops, LogShipper* shipper = nullptr,
           StandbyApplier* standby = nullptr, int poll_every = 8) {
    for (int i = 0; i < ops; ++i) {
      Status st = engine->Execute(workload.Next());
      ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (shipper != nullptr && i % poll_every == 0) {
        // The shipper only ships *stable* bytes; force the WAL so the
        // stream actually flows mid-burst instead of all at quiesce.
        ASSERT_TRUE(engine->log().ForceAll().ok());
        ASSERT_TRUE(shipper->Poll().ok());
        ASSERT_TRUE(standby->Pump().ok());
      }
    }
  }

  // Installs everything and makes the log stable, so the stores can be
  // compared after the standby drains.
  void Quiesce() {
    ASSERT_TRUE(engine->FlushAll().ok());
    ASSERT_TRUE(engine->log().ForceAll().ok());
  }
};

// (a) Steady-state streaming: standby state and vSIs are byte-identical
// to the primary after interleaved ship/apply.
TEST(ShipTest, SteadyStateStreamingConverges) {
  EngineOptions opts;
  PrimaryNode primary(opts, /*seed=*/7);
  ReplicationChannel channel;
  StandbyApplier standby(&channel);
  LogShipper shipper(&primary.disk->log(), &channel);

  primary.Run(300, &shipper, &standby);
  primary.Quiesce();
  DrainPipeline(&shipper, &standby, &channel);
  ASSERT_TRUE(standby.cache()->FlushAll().ok());

  ExpectStoresIdentical(primary.disk->store(), standby.disk()->store());
  EXPECT_GT(shipper.stats().batches_sent, 0u);
  EXPECT_EQ(standby.stats().batches_gap, 0u);
  EXPECT_EQ(standby.stats().frames_corrupt, 0u);

  // The original primary's archive covers its whole history, so the
  // one-shot audit applies: sequential replay == standby stable state.
  DivergenceReport report;
  ASSERT_TRUE(RunDivergenceAudit(primary.disk->log().ArchiveContents(),
                                 standby.applied_lsn(),
                                 standby.disk()->store(), &report)
                  .ok())
      << report.ToString();
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.objects_compared, 0u);
}

// Checkpoints ship too: the standby mirrors the primary's truncation and
// still converges.
TEST(ShipTest, CheckpointsShipAndTruncateStandbyLog) {
  EngineOptions opts;
  PrimaryNode primary(opts, /*seed=*/13);
  ReplicationChannel channel;
  StandbyApplier standby(&channel);
  LogShipper shipper(&primary.disk->log(), &channel);

  primary.Run(80, &shipper, &standby);
  ASSERT_TRUE(primary.engine->Checkpoint().ok());
  primary.Run(80, &shipper, &standby);
  primary.Quiesce();
  DrainPipeline(&shipper, &standby, &channel);
  ASSERT_TRUE(standby.cache()->FlushAll().ok());

  EXPECT_GE(standby.stats().checkpoints_honored, 1u);
  ExpectStoresIdentical(primary.disk->store(), standby.disk()->store());
}

// (b) Cold catch-up from a fuzzy backup: the standby seeds from the
// image, then streams exactly the delta — through the parallel-redo
// burst path.
TEST(ShipTest, ColdCatchupFromFuzzyBackup) {
  EngineOptions opts;
  // No auto-purging: keeps the delta one contiguous run of operation
  // records so the burst reliably crosses the parallel threshold.
  opts.purge_threshold_ops = 0;
  PrimaryNode primary(opts, /*seed=*/21);
  primary.Run(150);
  // Install the state so far, then keep running: the image will reflect
  // lsn <= flush point exactly while the most recent operations live
  // only in the log — a genuinely fuzzy seed.
  ASSERT_TRUE(primary.engine->FlushAll().ok());
  primary.Run(20);

  BackupManager backup(primary.disk.get(), /*repair_order=*/true);
  ASSERT_TRUE(backup.Begin().ok());
  while (!backup.done()) {
    ASSERT_TRUE(backup.Step(16).ok());
  }

  ReplicationChannel channel;
  StandbyOptions sopts;
  sopts.redo_threads = 2;
  sopts.parallel_apply_threshold = 16;
  StandbyApplier standby(&channel, sopts);
  ASSERT_TRUE(standby.SeedFromBackup(backup.image()).ok());
  EXPECT_GT(standby.applied_lsn(), 0u);

  primary.Run(120);
  primary.Quiesce();
  LogShipper shipper(&primary.disk->log(), &channel);
  DrainPipeline(&shipper, &standby, &channel);
  ASSERT_TRUE(standby.cache()->FlushAll().ok());

  EXPECT_GT(standby.stats().parallel_bursts, 0u);
  ExpectStoresIdentical(primary.disk->store(), standby.disk()->store());
  DivergenceReport report;
  ASSERT_TRUE(RunDivergenceAudit(primary.disk->log().ArchiveContents(),
                                 standby.applied_lsn(),
                                 standby.disk()->store(), &report)
                  .ok())
      << report.ToString();
}

// (b') Cold catch-up from a full LLIMG001 disk image.
TEST(ShipTest, ColdCatchupFromDiskImage) {
  EngineOptions opts;
  PrimaryNode primary(opts, /*seed=*/29);
  primary.Run(120);
  primary.Quiesce();

  std::vector<uint8_t> image;
  SaveDiskImage(*primary.disk, &image);

  ReplicationChannel channel;
  StandbyApplier standby(&channel);
  ASSERT_TRUE(standby.SeedFromDiskImage(Slice(image)).ok());
  EXPECT_EQ(standby.applied_lsn(),
            primary.engine->log().last_assigned_lsn());

  primary.Run(100);
  primary.Quiesce();
  LogShipper shipper(&primary.disk->log(), &channel);
  DrainPipeline(&shipper, &standby, &channel);
  ASSERT_TRUE(standby.cache()->FlushAll().ok());

  ExpectStoresIdentical(primary.disk->store(), standby.disk()->store());
}

// (c) Channel faults: silent drops, visible disconnects, in-flight
// damage, and duplicated delivery all resolve through the watermark
// protocol, and the fault counters prove each path actually ran.
TEST(ShipTest, ChannelFaultsConverge) {
  EngineOptions opts;
  PrimaryNode primary(opts, /*seed=*/37);
  FaultInjector* inj = &primary.disk->fault_injector();
  ReplicationChannel channel(inj);
  StandbyApplier standby(&channel);
  LogShipper shipper(&primary.disk->log(), &channel);

  struct Round {
    std::string_view site;
    FaultSpec spec;
  };
  const Round rounds[] = {
      {fault::kShipSend, FaultSpec::LostOnce()},
      {fault::kShipSend, FaultSpec::TransientOnce()},
      {fault::kShipSend, FaultSpec::BitFlipOnce(0xfeed)},
      {fault::kShipSend, FaultSpec::TornOnce(0xbeef)},
      {fault::kShipDuplicate,
       FaultSpec::Probabilistic(FaultAction::kLostWrite, 100, 0xd0d0,
                                /*max_fires=*/2)},
  };
  for (const Round& round : rounds) {
    inj->Arm(round.site, round.spec);
    primary.Run(48, &shipper, &standby, /*poll_every=*/4);
    inj->Disarm(round.site);
    primary.Quiesce();
    DrainPipeline(&shipper, &standby, &channel);
  }
  ASSERT_TRUE(standby.cache()->FlushAll().ok());

  // Every injected failure mode left its fingerprint...
  EXPECT_GE(standby.stats().batches_gap, 1u);       // lost frame
  EXPECT_GE(shipper.stats().reconnects, 1u);        // visible disconnect
  EXPECT_GE(standby.stats().frames_corrupt, 2u);    // bit flip + tear
  EXPECT_GE(standby.stats().batches_duplicate, 1u); // duplicated delivery
  EXPECT_GE(shipper.stats().resyncs, 1u);           // NAK-driven rewind
  // ...and none of them cost convergence.
  ExpectStoresIdentical(primary.disk->store(), standby.disk()->store());
  DivergenceReport report;
  ASSERT_TRUE(RunDivergenceAudit(primary.disk->log().ArchiveContents(),
                                 standby.applied_lsn(),
                                 standby.disk()->store(), &report)
                  .ok())
      << report.ToString();
}

// (d) Failover promotion mid-storm: repeated primary-crash -> promote ->
// audit -> re-seed rounds, with parallel redo on the standby.
TEST(ShipTest, FailoverStormPromotesAndAudits) {
  StormOptions options;
  options.seed = 11;
  options.iterations = 3;
  options.failover_percent = 100;
  options.checkpoint_every = 2;
  options.min_ops = 32;
  options.max_ops = 96;
  options.standby.redo_threads = 2;
  options.standby.parallel_apply_threshold = 24;
  // Keep the shipped stream free of install records so catch-up runs
  // stay contiguous (parallel bursts).
  options.engine.log_installs = false;

  StormStats stats;
  Status st = RunStorm(options, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.verify_passes, 3u);
  EXPECT_GT(stats.ops_executed, 0u);
  EXPECT_GT(stats.rto_us_max, 0u);
}

// A promoted standby serves the workload: execute fresh operations on
// the returned engine and verify them.
TEST(ShipTest, PromotedStandbyServesWrites) {
  EngineOptions opts;
  PrimaryNode primary(opts, /*seed=*/43);
  ReplicationChannel channel;
  StandbyApplier standby(&channel);
  LogShipper shipper(&primary.disk->log(), &channel);
  primary.Run(120, &shipper, &standby);
  primary.Quiesce();
  DrainPipeline(&shipper, &standby, &channel);

  // Primary dies; standby promotes and serves.
  const Lsn durable = shipper.durable_lsn();
  primary.engine.reset();
  PromotionResult promo;
  ASSERT_TRUE(standby.Promote(opts, &promo).ok());
  EXPECT_TRUE(standby.promoted());
  EXPECT_EQ(promo.applied_lsn, durable);
  EXPECT_GT(promo.rto_us, 0u);

  Lsn lsn = 0;
  ASSERT_TRUE(
      promo.engine->Execute(MakeCreate(500, "post-failover"), &lsn).ok());
  EXPECT_GT(lsn, promo.applied_lsn);
  ObjectValue value;
  ASSERT_TRUE(promo.engine->Read(500, &value).ok());
  EXPECT_EQ(Slice(value), Slice("post-failover"));

  // A second promotion attempt must refuse.
  PromotionResult again;
  EXPECT_TRUE(standby.Promote(opts, &again).IsFailedPrecondition());
}

// A transaction in flight at failover is rolled back by the promoted
// node's recovery. When the shipped stream ends in control records the
// standby never appends (installs), the compensation records must still
// get LSNs past the promoted watermark, never the dead primary's.
TEST(ShipTest, PromotedLoserRollbackNeverReissuesPrimaryLsns) {
  EngineOptions opts;
  opts.flush_policy = FlushPolicy::kNativeAtomic;
  PrimaryNode primary(opts, /*seed=*/47);
  ReplicationChannel channel;
  StandbyApplier standby(&channel);
  LogShipper shipper(&primary.disk->log(), &channel);
  TxnManager tm(primary.engine.get());
  TxnId id;
  ASSERT_TRUE(tm.Begin(&id).ok());
  ASSERT_TRUE(tm.Execute(id, MakeCreate(600, "loser")).ok());
  ASSERT_TRUE(tm.Execute(id, MakeAppend(600, "-more")).ok());
  primary.Quiesce();  // trailing install records, the txn still open
  DrainPipeline(&shipper, &standby, &channel);

  primary.engine.reset();
  PromotionResult promo;
  ASSERT_TRUE(standby.Promote(opts, &promo).ok());
  EXPECT_EQ(promo.recovery.loser_txns, 1u);
  EXPECT_FALSE(promo.engine->Exists(600));
  ASSERT_TRUE(promo.engine->log().ForceAll().ok());
  Slice archive = promo.disk->log().ArchiveContents();
  int clrs = 0;
  LogRecord rec;
  while (ReadFramedRecord(&archive, &rec).ok()) {
    if (rec.type != RecordType::kCompensation) continue;
    ++clrs;
    EXPECT_GT(rec.lsn, promo.applied_lsn);
  }
  EXPECT_GT(clrs, 0);
}

// Adaptive primary: the shipped stream mixes W_L, promoted W_P/W_PL and
// kPolicyDecision control records. The standby consumes the control
// records without applying them and still converges to byte-identical
// values and vSIs; the divergence audit stays clean.
TEST(ShipTest, AdaptivePolicyStreamConverges) {
  EngineOptions opts;
  opts.adaptive.enabled = true;
  opts.adaptive.hot_interval_writes = 8.0;
  opts.adaptive.cold_interval_writes = 24.0;
  opts.adaptive.small_value_bytes = 32;
  opts.adaptive.large_value_bytes = 96;
  opts.adaptive.decision_cooldown_writes = 4;
  opts.recovery_budget = 48;

  SimulatedDisk disk;
  RecoveryEngine primary(opts, &disk);
  ReplicationChannel channel;
  StandbyApplier standby(&channel);
  LogShipper shipper(&disk.log(), &channel);

  ASSERT_TRUE(primary.Execute(MakeCreate(1, "app-state")).ok());
  primary.MarkHot(1);
  for (int i = 0; i < 120; ++i) {
    // Hot small app traffic stays W_L; every 12th op emits a large cold
    // file value that the policy promotes to a blind W_P.
    ASSERT_TRUE(primary.Execute(MakeAppExecute(1, i)).ok());
    if (i % 12 == 0) {
      ASSERT_TRUE(
          primary.Execute(MakeAppWrite(1, 200 + (i / 12) % 3, 150, i)).ok());
    }
    if (i % 8 == 0) {
      ASSERT_TRUE(primary.log().ForceAll().ok());
      ASSERT_TRUE(shipper.Poll().ok());
      ASSERT_TRUE(standby.Pump().ok());
    }
  }
  // The policy actually flipped classes, so decision records shipped.
  EXPECT_GT(primary.stats().policy_decisions, 0u);
  EXPECT_GT(primary.stats().promoted_physical, 0u);

  ASSERT_TRUE(primary.FlushAll().ok());
  ASSERT_TRUE(primary.log().ForceAll().ok());
  DrainPipeline(&shipper, &standby, &channel);
  ASSERT_TRUE(standby.cache()->FlushAll().ok());

  ExpectStoresIdentical(disk.store(), standby.disk()->store());
  EXPECT_EQ(standby.stats().batches_gap, 0u);
  EXPECT_EQ(standby.stats().frames_corrupt, 0u);

  DivergenceReport report;
  ASSERT_TRUE(RunDivergenceAudit(disk.log().ArchiveContents(),
                                 standby.applied_lsn(),
                                 standby.disk()->store(), &report)
                  .ok())
      << report.ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.objects_compared, 0u);
}

// Replicated appends preserve primary LSNs and keep the standby's LSN
// counter in lock-step.
TEST(ShipTest, AppendReplicatedKeepsPrimaryLsns) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.op = MakePhysicalWrite(1, "x");
  rec.lsn = 5;
  EXPECT_EQ(log.AppendReplicated(rec), 5u);
  rec.lsn = 6;
  EXPECT_EQ(log.AppendReplicated(rec), 6u);
  // A gap (the primary's control records are not appended) is fine; the
  // counter resumes past it.
  rec.lsn = 9;
  EXPECT_EQ(log.AppendReplicated(rec), 9u);
  EXPECT_EQ(log.last_assigned_lsn(), 9u);
  ASSERT_TRUE(log.ForceAll().ok());
  EXPECT_EQ(log.last_stable_lsn(), 9u);
}

}  // namespace
}  // namespace loglog
