#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"

#include "engine/recovery_engine.h"
#include "logstore/cold_tier.h"
#include "logstore/compactor.h"
#include "logstore/log_index.h"
#include "logstore/logstore.h"
#include "logstore/logstore_target.h"
#include "obs/metrics.h"
#include "ops/op_builder.h"
#include "sim/recoverability_oracle.h"
#include "storage/disk_image.h"
#include "storage/simulated_disk.h"
#include "wal/log_cursor.h"
#include "wal/log_dump.h"

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
  RecoverabilityOracle auditor;
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

// ---------------------------------------------------------------------
// Delta index checkpoints.

std::vector<IndexCheckpointEntry> SortedById(
    std::vector<IndexCheckpointEntry> entries) {
  std::ranges::sort(entries, {}, &IndexCheckpointEntry::id);
  return entries;
}

bool SameEntries(const std::vector<IndexCheckpointEntry>& a,
                 const std::vector<IndexCheckpointEntry>& b) {
  return std::ranges::equal(a, b, [](const IndexCheckpointEntry& x,
                                     const IndexCheckpointEntry& y) {
    return x.id == y.id && x.lsn == y.lsn && x.offset == y.offset &&
           x.size == y.size;
  });
}

// The kIndexCheckpoint records on the retained log, in log order.
std::vector<LogRecord> IndexCheckpoints(const SimulatedDisk& disk) {
  std::vector<LogRecord> out;
  LogCursor cursor(disk.log());
  LogRecord rec;
  while (cursor.Next(&rec)) {
    if (rec.type == RecordType::kIndexCheckpoint) out.push_back(rec);
  }
  return out;
}

// Differential: replaying each TakeDelta onto an index reset from the
// previous checkpoint's state reproduces the live index exactly, over
// random publish / republish / erase / erase-of-absent sequences.
TEST(LogIndexTest, DeltaReplaysOntoTheLastCheckpoint) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Random rng(seed);
    LogIndex live;
    LogIndex replica;
    Lsn next_lsn = 1;
    for (int step = 0; step < 3000; ++step) {
      ObjectId id = 1 + rng.Uniform(40);
      uint64_t dice = rng.Uniform(20);
      if (dice < 12) {
        Lsn lsn = next_lsn++;
        live.Publish(id, lsn, lsn * 64, 32 + rng.Uniform(32));
      } else if (dice < 18) {
        live.Erase(id);
      } else if (dice < 19) {
        replica.ApplyDelta(live.TakeDelta());
        ASSERT_EQ(live.changed_count(), 0u);
        ASSERT_TRUE(SameEntries(SortedById(replica.Snapshot()),
                                SortedById(live.Snapshot())))
            << "step " << step;
        ASSERT_EQ(replica.live_bytes(), live.live_bytes());
      } else {
        replica.Reset(live.Snapshot());
        live.ForgetChanges();
      }
    }
  }
}

TEST(LogIndexTest, DeltaMarksErasuresWithSizeZero) {
  LogIndex index;
  index.Publish(1, 10, 640, 40);
  index.Publish(2, 11, 704, 41);
  index.ForgetChanges();
  index.Erase(1);
  index.Publish(3, 12, 768, 42);
  index.Erase(3);             // published and erased between checkpoints
  index.Erase(99);            // never indexed: no change
  index.Publish(2, 13, 832, 43);
  std::vector<IndexCheckpointEntry> delta = SortedById(index.TakeDelta());
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta[0].id, 1u);
  EXPECT_TRUE(delta[0].erased());
  EXPECT_EQ(delta[1].id, 2u);
  EXPECT_EQ(delta[1].lsn, 13u);
  EXPECT_EQ(delta[1].size, 43u);
  EXPECT_EQ(delta[2].id, 3u);
  EXPECT_TRUE(delta[2].erased());
  EXPECT_TRUE(index.TakeDelta().empty());
}

// The first checkpoint of a run writes a base; later ones write deltas
// of what changed until the deltas since the base would carry more
// entries than the index holds; each checkpoint's truncation keeps the
// base, and the first checkpoint after a restart writes a new base.
TEST(LogStoreTest, IndexCheckpointBaseCadence) {
  SimulatedDisk disk;
  auto engine = std::make_unique<RecoveryEngine>(LogStoreOpts(), &disk);
  for (ObjectId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(engine->Execute(MakeCreate(id, "v0")).ok());
  }
  std::vector<std::string> kinds;
  for (int round = 1; round <= 8; ++round) {
    if (round > 1) {
      // Two objects change per round: 2-entry deltas.
      for (ObjectId id : {ObjectId{1}, ObjectId{2}}) {
        ASSERT_TRUE(engine
                        ->Execute(MakePhysicalWrite(
                            id, "v" + std::to_string(round)))
                        .ok());
      }
    }
    ASSERT_TRUE(engine->FlushAll().ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    std::vector<LogRecord> ckpts = IndexCheckpoints(disk);
    ASSERT_FALSE(ckpts.empty());
    const LogRecord& last = ckpts.back();
    kinds.push_back(last.ref_lsn == kInvalidLsn
                        ? "B" + std::to_string(last.index_entries.size())
                        : "D" + std::to_string(last.index_entries.size()));
    // The retained log starts at or before the base, and every delta on
    // it extends that base.
    EXPECT_EQ(ckpts.front().ref_lsn, kInvalidLsn) << "round " << round;
    for (size_t i = 1; i < ckpts.size(); ++i) {
      EXPECT_EQ(ckpts[i].ref_lsn, ckpts.front().lsn) << "round " << round;
    }
  }
  // 10 entries per base; 2+2+2+2+2 = 10 delta entries still fit, the
  // sixth delta would make 12.
  EXPECT_EQ(kinds, (std::vector<std::string>{"B10", "D2", "D2", "D2", "D2",
                                             "D2", "B10", "D2"}));

  engine.reset();  // crash
  engine = std::make_unique<RecoveryEngine>(LogStoreOpts(), &disk);
  ASSERT_TRUE(engine->Recover().ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(IndexCheckpoints(disk).back().ref_lsn, kInvalidLsn);
  engine->cache().EvictTo(0);
  ObjectValue v;
  ASSERT_TRUE(engine->Read(1, &v).ok());
  EXPECT_EQ(v, Val("v8"));
  ASSERT_TRUE(engine->Read(10, &v).ok());
  EXPECT_EQ(v, Val("v0"));
}

LogRecord IndexRecord(std::vector<IndexCheckpointEntry> entries,
                      Lsn base = kInvalidLsn) {
  LogRecord rec;
  rec.type = RecordType::kIndexCheckpoint;
  rec.index_entries = std::move(entries);
  rec.ref_lsn = base;
  return rec;
}

LogRecord Filler() {
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  return rec;
}

Status RecoverLogStore(SimulatedDisk* disk) {
  RecoveryEngine engine(LogStoreOpts(), disk);
  return engine.Recover();
}

TEST(LogStoreTest, DeltaThatSkipsTheLastBaseIsCorruption) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    Lsn b1 = log.Append(IndexRecord({}));
    log.Append(IndexRecord({{5}}, b1));  // extends the last base: fine
    log.Append(IndexRecord({}));
    log.Append(IndexRecord({{5}}, b1));  // names a superseded base
    ASSERT_TRUE(log.ForceAll().ok());
  }
  EXPECT_TRUE(RecoverLogStore(&disk).IsCorruption());
}

TEST(LogStoreTest, DeltaNamingANonBaseRecordIsCorruption) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    Lsn filler = log.Append(Filler());
    log.Append(IndexRecord({{5}}, filler));
    ASSERT_TRUE(log.ForceAll().ok());
  }
  EXPECT_TRUE(RecoverLogStore(&disk).IsCorruption());
}

TEST(LogStoreTest, DeltaWhoseBaseWasTruncatedAwayIsSkipped) {
  // Truncation may cut between a base and its deltas once a newer base
  // exists: the orphaned deltas precede that base and are superseded.
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    Lsn b1 = log.Append(IndexRecord({}));
    Lsn orphan = log.Append(IndexRecord({{5}}, b1));
    Lsn b2 = log.Append(IndexRecord({}));
    log.Append(IndexRecord({{6}}, b2));
    ASSERT_TRUE(log.ForceAll().ok());
    log.TruncateBefore(orphan);
  }
  EXPECT_TRUE(RecoverLogStore(&disk).ok());
}

// Differential crash test: a publish / erase / compact / checkpoint
// sequence spanning several bases, crashed after every record it logs.
// At each crash point, the index recovery's log scan rebuilds must equal
// what a whole-index record would give: the live index as it stood at
// the last surviving index checkpoint, overlaid with the install
// evidence after it. And the recovered engine must read back exactly
// what a from-scratch replay of the surviving log says.
TEST(LogStoreTest, DeltaIndexCheckpointsSurviveACrashAtEveryRecord) {
  EngineOptions opts = LogStoreOpts();
  opts.purge_threshold_ops = 6;  // installs (publishes) mid-stream
  opts.logstore.compact_batch_objects = 4;

  SimulatedDisk disk;
  auto engine = std::make_unique<RecoveryEngine>(opts, &disk);
  Random rng(7);
  std::set<ObjectId> exists;
  // The live index at each index checkpoint, by the record's LSN.
  std::map<Lsn, std::vector<IndexCheckpointEntry>> at_checkpoint;
  struct Step {
    std::vector<uint8_t> before;  // disk image before the step
    uint64_t before_end = 0;
    uint64_t after_end = 0;
    bool truncated = false;
    std::vector<uint8_t> after;  // kept when the step truncated
  };
  std::vector<Step> steps;
  for (int i = 0; i < 220; ++i) {
    Step step;
    SaveDiskImage(disk, &step.before);
    step.before_end = disk.log().end_offset();
    const uint64_t start_before = disk.log().start_offset();
    ObjectId id = 1 + rng.Uniform(24);
    uint64_t dice = rng.Uniform(20);
    bool checkpointed = false;
    if (dice < 15) {
      std::string val = "s" + std::to_string(i);
      OperationDesc op;
      if (!exists.contains(id)) {
        op = MakeCreate(id, val);
        exists.insert(id);
      } else if (dice < 3) {
        op = MakeDelete(id);
        exists.erase(id);
      } else if (dice < 6) {
        op = MakeAppend(id, val);  // not a full image: W_IP at install
      } else {
        op = MakePhysicalWrite(id, val);
      }
      ASSERT_TRUE(engine->Execute(op).ok()) << i;
    } else if (dice < 16) {
      ASSERT_TRUE(engine->FlushAll().ok());
    } else if (dice < 19) {
      ASSERT_TRUE(engine->Checkpoint().ok());
      checkpointed = true;
    } else {
      ASSERT_TRUE(engine->Compact().ok());
      checkpointed = true;
    }
    if (checkpointed) {
      LogCursor cursor(Slice(disk.log().ArchiveContents().data() +
                                 step.before_end,
                             disk.log().end_offset() - step.before_end),
                       step.before_end);
      LogRecord rec;
      while (cursor.Next(&rec)) {
        if (rec.type == RecordType::kIndexCheckpoint) {
          at_checkpoint[rec.lsn] =
              SortedById(engine->log_index()->Snapshot());
        }
      }
    }
    step.after_end = disk.log().end_offset();
    if (step.after_end == step.before_end) continue;
    step.truncated = disk.log().start_offset() != start_before;
    if (step.truncated) SaveDiskImage(disk, &step.after);
    steps.push_back(std::move(step));
  }
  ASSERT_EQ(disk.log().ArchiveContents().size(), disk.log().end_offset());
  LogDumpSummary summary;
  ASSERT_TRUE(
      DumpLog(disk.log().ArchiveContents(), nullptr, &summary).ok());
  ASSERT_GE(summary.index_bases, 2u);
  ASSERT_GE(summary.index_deltas, 2 * summary.index_bases);
  const std::vector<uint8_t> history = disk.log().ArchiveContents().ToBytes();
  engine.reset();

  struct Image {
    IndexCheckpointEntry entry;
    bool tombstone = false;
  };
  size_t crash_points = 0;
  auto check = [&](const std::vector<uint8_t>& image, Slice suffix) {
    SCOPED_TRACE("crash point " + std::to_string(crash_points));
    ++crash_points;
    auto load = [&](SimulatedDisk* d) {
      ASSERT_TRUE(LoadDiskImage(Slice(image), d).ok());
      if (!suffix.empty()) {
        ASSERT_TRUE(d->log().Append(suffix).ok());
      }
    };
    // The scan's rebuild against the whole-index oracle.
    SimulatedDisk scan_disk;
    load(&scan_disk);
    LogManager log(&scan_disk.log());
    LogStoreTarget target(&scan_disk, &log, /*cold_retention_full=*/true);
    LogScanFn scan = target.BeginLogScan();
    std::unordered_map<ObjectId, Image> images;
    Lsn last_checkpoint = kInvalidLsn;
    std::vector<Image> evidence;  // install evidence after it
    LogCursor cursor(scan_disk.log());
    LogRecord rec;
    while (cursor.Next(&rec)) {
      const uint64_t offset = cursor.record_offset();
      const uint64_t size = cursor.valid_end() - offset;
      ASSERT_TRUE(scan(rec, offset, size).ok()) << rec.DebugString();
      if (rec.type == RecordType::kIndexCheckpoint) {
        last_checkpoint = rec.lsn;
        evidence.clear();
      } else if (rec.type == RecordType::kOperation &&
                 IsFullImageOp(rec.op)) {
        ObjectId w = rec.op.writes[0];
        images[w] = Image{IndexCheckpointEntry{w, rec.lsn, offset, size},
                          rec.op.op_class == OpClass::kDelete};
      } else if (rec.type == RecordType::kInstall) {
        for (const InstallEntry& ie : rec.installed_vars) {
          auto it = images.find(ie.id);
          if (it != images.end()) evidence.push_back(it->second);
        }
      }
    }
    ASSERT_TRUE(cursor.status().ok());
    std::map<ObjectId, IndexCheckpointEntry> want;
    if (last_checkpoint != kInvalidLsn) {
      for (const IndexCheckpointEntry& e : at_checkpoint.at(last_checkpoint)) {
        want[e.id] = e;
      }
    }
    for (const Image& img : evidence) {
      if (img.tombstone) {
        want.erase(img.entry.id);
      } else {
        want[img.entry.id] = img.entry;
      }
    }
    std::vector<IndexCheckpointEntry> want_entries;
    for (const auto& [id, e] : want) want_entries.push_back(e);
    ASSERT_TRUE(
        SameEntries(SortedById(target.index().Snapshot()), want_entries));

    // Recovery proper, audited against a replay of the surviving log.
    SimulatedDisk crashed;
    load(&crashed);
    RecoveryEngine recovered(opts, &crashed);
    ASSERT_TRUE(recovered.Recover().ok());
    // Install redone deletes too: the audit also checks the index's ids.
    ASSERT_TRUE(recovered.FlushAll().ok());
    RecoverabilityOracle auditor;
    ASSERT_TRUE(
        auditor.Advance(crashed.log().ArchiveContents(), kMaxLsn - 1).ok());
    DivergenceReport report;
    Status st = auditor.CompareEngineReads(&recovered, &report);
    ASSERT_TRUE(st.ok()) << report.ToString();
    ASSERT_EQ(report.objects_compared, report.objects_expected);
  };

  for (const Step& step : steps) {
    // Crash after each record the step made stable, before any
    // truncation it did...
    LogCursor records(Slice(history.data() + step.before_end,
                            step.after_end - step.before_end),
                      step.before_end);
    LogRecord rec;
    while (records.Next(&rec)) {
      check(step.before, Slice(history.data() + step.before_end,
                               records.valid_end() - step.before_end));
    }
    ASSERT_EQ(records.valid_end(), step.after_end);
    // ...and after it.
    if (step.truncated) check(step.after, Slice());
  }
  EXPECT_GT(crash_points, 200u);
}

// ColdTier::Read finds its first segment by binary search: reads at,
// across and just inside every segment boundary, and reads after
// DropThrough, return exactly the bytes AppendContentsTo lays out.
TEST(ColdTierTest, ReadsMatchContentsAtEverySegmentBoundary) {
  ColdTier cold(nullptr);
  cold.set_segment_target_bytes(48);
  Random rng(11);
  uint64_t end = 0;
  for (int i = 0; i < 40; ++i) {
    std::vector<uint8_t> spill = rng.Bytes(1 + rng.Uniform(40));
    cold.Spill(end, spill);
    end += spill.size();
  }
  ASSERT_GT(cold.segment_count(), 10u);
  auto check_all = [&] {
    std::vector<uint8_t> all;
    cold.AppendContentsTo(&all);
    const uint64_t base = cold.segments().front().start_offset;
    ASSERT_EQ(base + all.size(), end);
    auto expect_read = [&](uint64_t off, uint64_t size) {
      std::vector<uint8_t> got;
      ASSERT_TRUE(cold.Read(off, size, &got).ok()) << off << "+" << size;
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             all.begin() + static_cast<long>(off - base),
                             all.begin() + static_cast<long>(off - base +
                                                             size)))
          << off << "+" << size;
      ASSERT_EQ(got.size(), size);
    };
    for (const ColdSegment& seg : cold.segments()) {
      const uint64_t s0 = seg.start_offset;
      const uint64_t s1 = seg.end_offset();
      expect_read(s0, 1);                    // at the boundary
      expect_read(s0, s1 - s0);              // the whole segment
      expect_read(s1 - 1, 1);                // just inside the end
      if (s1 < end) expect_read(s1 - 1, 2);  // across the boundary
      if (s0 + 1 < s1) expect_read(s0 + 1, s1 - s0 - 1);
      expect_read(s0, std::min<uint64_t>(end - s0, 3 * (s1 - s0)));
    }
    expect_read(base, end - base);  // everything
    std::vector<uint8_t> got;
    EXPECT_TRUE(cold.Read(end - 1, 2, &got).IsIoError());  // past the end
    if (base > 0) {
      EXPECT_TRUE(cold.Read(base - 1, 2, &got).IsIoError());
    }
  };
  check_all();
  // Drop through the middle of a segment: whole segments below go.
  const uint64_t third = cold.segments()[2].start_offset;
  cold.DropThrough(third + 1);
  ASSERT_EQ(cold.segments().front().start_offset, third);
  check_all();
  cold.DropThrough(cold.segments()[5].end_offset());
  check_all();
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
