#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"

#include "engine/recovery_engine.h"
#include "logstore/compactor.h"
#include "logstore/log_index.h"
#include "logstore/logstore.h"
#include "obs/metrics.h"
#include "ops/op_builder.h"
#include "ship/divergence_audit.h"
#include "storage/simulated_disk.h"

namespace loglog {
namespace {

// Directed tests for the log-as-database backend: the stable store never
// sees an object write; installation publishes LogIndex entries pointing
// at forced full-image records; reads fall through to the log (hot tier)
// or the cold archive; recovery rebuilds the index from the last
// kIndexCheckpoint plus install-evidenced full images; the compactor
// rewrites old live images forward so truncation reclaims real bytes.

ObjectValue Val(const std::string& s) {
  return ObjectValue(s.begin(), s.end());
}

EngineOptions LogStoreOpts() {
  EngineOptions opts;
  opts.backend = StorageBackend::kLogStore;
  opts.flush_policy = FlushPolicy::kNativeAtomic;
  opts.purge_threshold_ops = 0;  // tests purge/flush explicitly
  return opts;
}

TEST(LogStoreTest, StoreStaysEmptyAndReadsServeFromLog) {
  Counter* log_reads =
      MetricsRegistry::Global().GetCounter(metric::kLogstoreReadsLog);
  uint64_t reads_before = log_reads->value();

  SimulatedDisk disk;
  RecoveryEngine engine(LogStoreOpts(), &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "alpha")).ok());
  ASSERT_TRUE(engine.Execute(MakeCreate(2, "beta")).ok());
  ASSERT_TRUE(engine.Execute(MakePhysicalWrite(1, "alpha-v2")).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  // The defining property: installation happened, yet the store is empty.
  EXPECT_EQ(disk.store().object_count(), 0u);
  EXPECT_EQ(engine.log_index()->size(), 2u);

  // Cache-hit reads first, then evict everything and force the log path.
  ObjectValue v;
  ASSERT_TRUE(engine.Read(1, &v).ok());
  EXPECT_EQ(v, Val("alpha-v2"));
  engine.cache().EvictTo(0);
  ASSERT_TRUE(engine.Read(1, &v).ok());
  EXPECT_EQ(v, Val("alpha-v2"));
  ASSERT_TRUE(engine.Read(2, &v).ok());
  EXPECT_EQ(v, Val("beta"));
  EXPECT_GE(log_reads->value(), reads_before + 2);
  EXPECT_FALSE(engine.Exists(99));
}

// kLogStore rejects three option settings with InvalidArgument from both
// Recover() and Execute(); nothing is ever rewritten, so options() is
// exactly what the caller passed, whether accepted or not.
struct OptionCase {
  const char* name;
  StorageBackend backend;
  RedoTestKind redo_test;
  bool log_installs;
  int redo_threads;
  bool valid;
};

constexpr OptionCase kOptionCases[] = {
    {"LogStoreRsi", StorageBackend::kLogStore, RedoTestKind::kRsiGeneralized,
     true, 1, true},
    {"LogStoreVsi", StorageBackend::kLogStore, RedoTestKind::kVsi, true, 1,
     true},
    {"LogStoreFixpoint", StorageBackend::kLogStore,
     RedoTestKind::kRsiFixpoint, true, 0, true},
    {"LogStoreAlways", StorageBackend::kLogStore, RedoTestKind::kAlways,
     true, 1, false},
    {"LogStoreNoInstallLog", StorageBackend::kLogStore, RedoTestKind::kVsi,
     false, 1, false},
    {"LogStoreParallelRedo", StorageBackend::kLogStore, RedoTestKind::kVsi,
     true, 2, false},
    // The same settings are fine on the dual-write backend.
    {"DualWriteAll", StorageBackend::kDualWrite, RedoTestKind::kAlways,
     false, 4, true},
};

TEST(LogStoreTest, InvalidOptionCombinationsAreRejected) {
  for (const OptionCase& c : kOptionCases) {
    SCOPED_TRACE(c.name);
    EngineOptions opts = LogStoreOpts();
    opts.backend = c.backend;
    opts.redo_test = c.redo_test;
    opts.log_installs = c.log_installs;
    opts.recovery.redo_threads = c.redo_threads;
    EXPECT_EQ(opts.Validate().ok(), c.valid);
    SimulatedDisk disk;
    RecoveryEngine engine(opts, &disk);
    EXPECT_EQ(engine.options().backend, c.backend);
    EXPECT_EQ(engine.options().redo_test, c.redo_test);
    EXPECT_EQ(engine.options().log_installs, c.log_installs);
    EXPECT_EQ(engine.options().recovery.redo_threads, c.redo_threads);
    EXPECT_EQ(engine.options().flush_policy, opts.flush_policy);
    Status recover = engine.Recover();
    Status execute = engine.Execute(MakeCreate(1, "x"));
    if (c.valid) {
      EXPECT_TRUE(recover.ok()) << recover.ToString();
      EXPECT_TRUE(execute.ok()) << execute.ToString();
    } else {
      EXPECT_TRUE(recover.IsInvalidArgument()) << recover.ToString();
      EXPECT_TRUE(execute.IsInvalidArgument()) << execute.ToString();
      EXPECT_EQ(disk.log().retained_bytes(), 0u);
    }
  }
}

TEST(LogStoreTest, IndexRebuildAfterCrash) {
  SimulatedDisk disk;
  auto engine = std::make_unique<RecoveryEngine>(LogStoreOpts(), &disk);
  ASSERT_TRUE(engine->Execute(MakeCreate(1, "one")).ok());
  ASSERT_TRUE(engine->Execute(MakeCreate(2, "two")).ok());
  // A logical cross-object op: its record is NOT a full image, so
  // installation must inject a W_IP identity record before publishing.
  ASSERT_TRUE(engine->Execute(MakeCopy(/*y=*/3, /*x=*/1)).ok());
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  // Post-checkpoint tail: an update with install evidence, plus one the
  // crash will cut off (never forced — recovery must not see it).
  ASSERT_TRUE(engine->Execute(MakePhysicalWrite(2, "two-v2")).ok());
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_TRUE(engine->Execute(MakePhysicalWrite(1, "lost")).ok());

  engine.reset();  // crash: volatile index, cache and log buffer die
  engine = std::make_unique<RecoveryEngine>(LogStoreOpts(), &disk);
  ASSERT_TRUE(engine->Recover().ok());

  EXPECT_EQ(disk.store().object_count(), 0u);
  ObjectValue v;
  ASSERT_TRUE(engine->Read(1, &v).ok());
  EXPECT_EQ(v, Val("one"));
  ASSERT_TRUE(engine->Read(2, &v).ok());
  EXPECT_EQ(v, Val("two-v2"));
  ASSERT_TRUE(engine->Read(3, &v).ok());
  EXPECT_EQ(v, Val("one"));
  ASSERT_TRUE(engine->FlushAll().ok());
  EXPECT_EQ(engine->log_index()->size(), 3u);
}

TEST(LogStoreTest, DeleteRetiresIndexEntry) {
  SimulatedDisk disk;
  auto engine = std::make_unique<RecoveryEngine>(LogStoreOpts(), &disk);
  ASSERT_TRUE(engine->Execute(MakeCreate(7, "doomed")).ok());
  ASSERT_TRUE(engine->Execute(MakeCreate(8, "keeper")).ok());
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_TRUE(engine->Execute(MakeDelete(7)).ok());
  ASSERT_TRUE(engine->FlushAll().ok());

  EXPECT_FALSE(engine->Exists(7));
  IndexCheckpointEntry entry;
  EXPECT_FALSE(engine->log_index()->Lookup(7, &entry));
  EXPECT_TRUE(engine->log_index()->Lookup(8, &entry));

  engine.reset();
  engine = std::make_unique<RecoveryEngine>(LogStoreOpts(), &disk);
  ASSERT_TRUE(engine->Recover().ok());
  ASSERT_TRUE(engine->FlushAll().ok());
  EXPECT_FALSE(engine->Exists(7));
  ObjectValue v;
  ASSERT_TRUE(engine->Read(8, &v).ok());
  EXPECT_EQ(v, Val("keeper"));
}

TEST(LogStoreTest, ColdTierServesTruncatedImages) {
  Counter* cold_reads =
      MetricsRegistry::Global().GetCounter(metric::kLogstoreReadsCold);
  uint64_t cold_before = cold_reads->value();

  SimulatedDisk disk;
  RecoveryEngine engine(LogStoreOpts(), &disk);
  for (ObjectId id = 1; id <= 8; ++id) {
    ASSERT_TRUE(
        engine.Execute(MakeCreate(id, "value-" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  // The checkpoint truncates up to the checkpoint record itself — the
  // live images land below the horizon and spill to the cold tier (the
  // floor deliberately ignores LogIndex::MinLsn; see
  // CacheManager::Checkpoint).
  ASSERT_TRUE(engine.Checkpoint().ok());
  EXPECT_GT(disk.log().cold_tier().total_bytes(), 0u);
  EXPECT_GT(disk.log().reclaimed_bytes(), 0u);

  engine.cache().EvictTo(0);
  for (ObjectId id = 1; id <= 8; ++id) {
    ObjectValue v;
    ASSERT_TRUE(engine.Read(id, &v).ok()) << id;
    EXPECT_EQ(v, Val("value-" + std::to_string(id))) << id;
  }
  EXPECT_GE(cold_reads->value(), cold_before + 8);
}

TEST(LogStoreTest, CompactionMovesImagesForwardAndPreservesReads) {
  SimulatedDisk disk;
  EngineOptions opts = LogStoreOpts();
  opts.logstore.compact_batch_objects = 8;
  RecoveryEngine engine(opts, &disk);
  for (ObjectId id = 1; id <= 16; ++id) {
    ASSERT_TRUE(
        engine.Execute(MakeCreate(id, "img-" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  Lsn oldest_before = engine.log_index()->MinLsn();

  // Two passes move all 16 live images to the tail; each pass checkpoints
  // so truncation chases the rewritten minimum.
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_NE(engine.compactor(), nullptr);
  EXPECT_EQ(engine.compactor()->stats().images_moved, 16u);
  EXPECT_GT(engine.compactor()->stats().bytes_moved, 0u);
  EXPECT_GT(engine.log_index()->MinLsn(), oldest_before);

  // Read equivalence after compaction, through a cold cache.
  engine.cache().EvictTo(0);
  for (ObjectId id = 1; id <= 16; ++id) {
    ObjectValue v;
    ASSERT_TRUE(engine.Read(id, &v).ok()) << id;
    EXPECT_EQ(v, Val("img-" + std::to_string(id))) << id;
  }
}

// Differential: after random Publish/Erase/Reset sequences the index's
// LSN order — OldestEntry, MinLsn and the NextByLsn walk the compactor
// takes — equals a sort of Snapshot() by LSN, also when the walk erases
// the entry it stands on.
TEST(LogIndexTest, LsnOrderMatchesSortedSnapshot) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Random rng(seed);
    LogIndex index;
    Lsn next_lsn = 1;
    for (int step = 0; step < 2000; ++step) {
      ObjectId id = 1 + rng.Uniform(40);
      uint64_t dice = rng.Uniform(20);
      if (dice < 13) {
        // Offsets grow with LSN, as on the device.
        Lsn lsn = next_lsn++;
        index.Publish(id, lsn, lsn * 64, 32 + rng.Uniform(32));
      } else if (dice < 19) {
        index.Erase(id);
      } else {
        std::vector<IndexCheckpointEntry> keep = index.Snapshot();
        keep.erase(std::remove_if(keep.begin(), keep.end(),
                                  [&](const IndexCheckpointEntry&) {
                                    return rng.OneIn(4);
                                  }),
                   keep.end());
        index.Reset(keep);
      }

      std::vector<IndexCheckpointEntry> sorted = index.Snapshot();
      std::ranges::sort(sorted, {}, &IndexCheckpointEntry::lsn);
      uint64_t live = 0;
      for (const IndexCheckpointEntry& e : sorted) live += e.size;
      ASSERT_EQ(index.live_bytes(), live);
      if (sorted.empty()) {
        ASSERT_EQ(index.OldestEntry(), nullptr);
        ASSERT_EQ(index.MinLsn(), kInvalidLsn);
        continue;
      }
      ASSERT_NE(index.OldestEntry(), nullptr);
      ASSERT_EQ(index.OldestEntry()->id, sorted.front().id);
      ASSERT_EQ(index.MinLsn(), sorted.front().lsn);
      uint64_t min_offset = sorted.front().offset;
      for (const IndexCheckpointEntry& e : sorted) {
        min_offset = std::min(min_offset, e.offset);
      }
      ASSERT_EQ(index.OldestEntry()->offset, min_offset);
      std::vector<ObjectId> walk;
      IndexCheckpointEntry e = *index.OldestEntry();
      for (bool more = true; more; more = index.NextByLsn(&e)) {
        walk.push_back(e.id);
      }
      std::vector<ObjectId> want;
      for (const IndexCheckpointEntry& s : sorted) want.push_back(s.id);
      ASSERT_EQ(walk, want) << "step " << step;
    }
    // A walk that erases every other entry it visits still visits all.
    std::vector<IndexCheckpointEntry> sorted = index.Snapshot();
    std::ranges::sort(sorted, {}, &IndexCheckpointEntry::lsn);
    ASSERT_FALSE(sorted.empty());
    std::vector<ObjectId> walk;
    IndexCheckpointEntry e = *index.OldestEntry();
    for (bool more = true; more; more = index.NextByLsn(&e)) {
      walk.push_back(e.id);
      if (walk.size() % 2 == 1) index.Erase(e.id);
    }
    ASSERT_EQ(walk.size(), sorted.size());
    for (size_t i = 0; i < walk.size(); ++i) EXPECT_EQ(walk[i], sorted[i].id);
    EXPECT_EQ(index.size(), sorted.size() / 2);
  }
}

// The engine's index keeps offsets in LSN order, which is what lets the
// checkpoint take the cold-tier reclaim bound from the oldest entry.
TEST(LogIndexTest, EngineOffsetsGrowWithLsn) {
  SimulatedDisk disk;
  EngineOptions opts = LogStoreOpts();
  opts.purge_threshold_ops = 8;
  opts.logstore.compact_interval_ops = 16;
  opts.logstore.compact_batch_objects = 4;
  RecoveryEngine engine(opts, &disk);
  for (int round = 0; round < 8; ++round) {
    for (ObjectId id = 1; id <= 12; ++id) {
      ASSERT_TRUE(engine
                      .Execute(MakePhysicalWrite(
                          id, "r" + std::to_string(round) + "-" +
                                  std::to_string(id)))
                      .ok());
    }
    std::vector<IndexCheckpointEntry> sorted = engine.log_index()->Snapshot();
    std::ranges::sort(sorted, {}, &IndexCheckpointEntry::lsn);
    for (size_t i = 1; i < sorted.size(); ++i) {
      EXPECT_LT(sorted[i - 1].offset, sorted[i].offset);
    }
  }
  ASSERT_GT(engine.compactor()->stats().images_moved, 0u);
}

TEST(LogStoreTest, CrashAfterCompactionAuditsCleanly) {
  SimulatedDisk disk;
  EngineOptions opts = LogStoreOpts();
  opts.purge_threshold_ops = 6;  // install mid-stream, storm-style
  auto engine = std::make_unique<RecoveryEngine>(opts, &disk);
  for (ObjectId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(
        engine->Execute(MakeCreate(id, "c-" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(engine->Execute(MakeCopy(11, 1)).ok());
  ASSERT_TRUE(engine->Execute(MakeAppend(2, "-tail")).ok());
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  ASSERT_TRUE(engine->Compact().ok());
  // More work after the compaction pass, some installed, some not.
  ASSERT_TRUE(engine->Execute(MakePhysicalWrite(3, "late")).ok());
  ASSERT_TRUE(engine->FlushAll().ok());

  engine.reset();  // crash
  engine = std::make_unique<RecoveryEngine>(opts, &disk);
  ASSERT_TRUE(engine->Recover().ok());
  ASSERT_TRUE(engine->FlushAll().ok());

  // The divergence auditor replays the whole archive (cold + hot) and
  // diffs the engine's read path — values, vSIs and the live id set.
  DivergenceAuditor auditor;
  ASSERT_TRUE(
      auditor.Advance(disk.log().ArchiveContents(), kMaxLsn - 1).ok());
  DivergenceReport report;
  Status st = auditor.CompareEngineReads(engine.get(), &report);
  EXPECT_TRUE(st.ok()) << report.ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.objects_compared, report.objects_expected);
}

TEST(LogStoreTest, CompactionCadenceRunsFromMaintenance) {
  SimulatedDisk disk;
  EngineOptions opts = LogStoreOpts();
  opts.purge_threshold_ops = 8;
  opts.logstore.compact_interval_ops = 16;
  opts.logstore.compact_batch_objects = 4;
  RecoveryEngine engine(opts, &disk);
  for (int round = 0; round < 8; ++round) {
    for (ObjectId id = 1; id <= 12; ++id) {
      ASSERT_TRUE(engine
                      .Execute(MakePhysicalWrite(
                          id, "r" + std::to_string(round) + "-" +
                                  std::to_string(id)))
                      .ok());
    }
  }
  ASSERT_NE(engine.compactor(), nullptr);
  EXPECT_GT(engine.compactor()->stats().runs, 0u);
  for (ObjectId id = 1; id <= 12; ++id) {
    ObjectValue v;
    ASSERT_TRUE(engine.Read(id, &v).ok());
    EXPECT_EQ(v, Val("r7-" + std::to_string(id)));
  }
}

TEST(LogStoreTest, ColdRetentionGcReclaimsDeadSegments) {
  // With cold_retention_full off, each checkpoint drops cold segments
  // wholly below the oldest live index offset. Compaction is what moves
  // that bound: the once-written objects get rewritten forward, the
  // archive prefix behind them becomes droppable, and the total device
  // footprint stays a small multiple of the live bytes instead of the
  // whole history.
  SimulatedDisk disk;
  disk.log().set_cold_segment_target(1024);
  EngineOptions opts = LogStoreOpts();
  opts.logstore.cold_retention_full = false;
  opts.logstore.compact_batch_objects = 16;
  RecoveryEngine engine(opts, &disk);
  for (ObjectId id = 1; id <= 8; ++id) {
    ASSERT_TRUE(
        engine.Execute(MakeCreate(id, std::string(64, static_cast<char>('a' + id)))).ok());
  }
  for (int round = 0; round < 20; ++round) {
    // Two hot objects churn; six stay cold until compaction moves them.
    ASSERT_TRUE(
        engine.Execute(MakePhysicalWrite(1, std::string(64, 'x'))).ok());
    ASSERT_TRUE(
        engine.Execute(MakePhysicalWrite(2, std::string(64, 'y'))).ok());
    ASSERT_TRUE(engine.FlushAll().ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  uint64_t pinned = disk.log().cold_tier().total_bytes();
  EXPECT_GT(pinned, 0u);  // the six cold live objects pin the archive

  uint64_t reclaimed_before = disk.log().reclaimed_bytes();
  ASSERT_TRUE(engine.Compact().ok());  // moves all 8 forward + checkpoints
  EXPECT_LT(disk.log().cold_tier().total_bytes(), pinned);
  EXPECT_GT(disk.log().reclaimed_bytes(), reclaimed_before);

  // Reads survive the GC: everything live is at or above the new bound.
  engine.cache().EvictTo(0);
  ObjectValue v;
  for (ObjectId id = 3; id <= 8; ++id) {
    ASSERT_TRUE(engine.Read(id, &v).ok()) << id;
    EXPECT_EQ(v, Val(std::string(64, static_cast<char>('a' + id)))) << id;
  }
}

TEST(LogStoreTest, FullImagePredicateMatchesBuilders) {
  EXPECT_TRUE(IsFullImageOp(MakeCreate(1, "x")));
  EXPECT_TRUE(IsFullImageOp(MakePhysicalWrite(1, "x")));
  EXPECT_TRUE(IsFullImageOp(MakeIdentityWrite(1, "x")));
  EXPECT_TRUE(IsFullImageOp(MakeDelete(1)));
  EXPECT_FALSE(IsFullImageOp(MakeDelta(1, 0, "x")));
  EXPECT_FALSE(IsFullImageOp(MakeAppend(1, "x")));
  EXPECT_FALSE(IsFullImageOp(MakeCopy(2, 1)));
  EXPECT_FALSE(IsFullImageOp(MakeSort(2, 1, 8)));
}

}  // namespace
}  // namespace loglog
