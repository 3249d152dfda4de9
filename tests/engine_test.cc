#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/recovery_engine.h"
#include "ops/function_registry.h"
#include "ops/op_builder.h"
#include "storage/simulated_disk.h"

namespace loglog {
namespace {

TEST(EngineTest, ExecuteReadRoundTrip) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "hello")).ok());
  ObjectValue v;
  ASSERT_TRUE(engine.Read(1, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "hello");
  EXPECT_TRUE(engine.Exists(1));
  EXPECT_FALSE(engine.Exists(2));
  EXPECT_TRUE(engine.Read(2, &v).IsNotFound());
}

TEST(EngineTest, ValidationErrors) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  OperationDesc bad;
  EXPECT_TRUE(engine.Execute(bad).IsInvalidArgument());  // empty writeset

  OperationDesc unknown = MakeCreate(1, "x");
  unknown.func = 0x7777;
  EXPECT_TRUE(engine.Execute(unknown).IsInvalidArgument());

  // Reading a missing object fails without logging anything.
  uint64_t ops = engine.stats().ops_executed;
  EXPECT_TRUE(engine.Execute(MakeCopy(2, 99)).IsNotFound());
  EXPECT_EQ(engine.stats().ops_executed, ops);
  EXPECT_TRUE(engine.Execute(MakeDelete(42)).IsNotFound());
}

TEST(EngineTest, DeleteThenRecreate) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "v1")).ok());
  ASSERT_TRUE(engine.Execute(MakeDelete(1)).ok());
  EXPECT_FALSE(engine.Exists(1));
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "v2")).ok());
  ObjectValue v;
  ASSERT_TRUE(engine.Read(1, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "v2");
  ASSERT_TRUE(engine.FlushAll().ok());
  StoredObject obj;
  ASSERT_TRUE(disk.store().Read(1, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "v2");
}

TEST(EngineTest, PurgeThresholdBoundsUninstalledOps) {
  EngineOptions opts;
  opts.purge_threshold_ops = 10;
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine.Execute(MakePhysicalWrite(1 + (i % 5), "value")).ok());
    EXPECT_LE(engine.cache().uninstalled_ops(), 10u);
  }
  EXPECT_GT(engine.cache().stats().nodes_installed, 0u);
}

TEST(EngineTest, CheckpointIntervalTruncatesAutomatically) {
  EngineOptions opts;
  opts.purge_threshold_ops = 4;
  opts.checkpoint_interval_ops = 20;
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.Execute(MakePhysicalWrite(1, "v")).ok());
  }
  EXPECT_GE(engine.cache().stats().checkpoints, 9u);
  // The retained log stays bounded: far fewer than 200 records' worth.
  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(LogManager::ReadStable(disk.log(), &records, &torn, &next,
                                     &valid_end)
                  .ok());
  EXPECT_LT(records.size(), 60u);
}

TEST(EngineTest, CacheCapacityEvictsClean) {
  EngineOptions opts;
  opts.cache_capacity_objects = 4;
  opts.purge_threshold_ops = 2;
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  for (ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(engine.Execute(MakeCreate(id, "x")).ok());
  }
  EXPECT_LE(engine.cache().table().size(), 6u);  // capacity + in-flight dirt
  EXPECT_GT(engine.cache().stats().evictions, 0u);
  // Evicted objects are still readable (cache miss -> stable store).
  ObjectValue v;
  ASSERT_TRUE(engine.Read(1, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "x");
}

TEST(EngineTest, PhysiologicalModeDecomposesLogicalOps) {
  EngineOptions opts;
  opts.logging_mode = LoggingMode::kPhysiological;
  SimulatedDisk disk;
  RecoveryEngine engine(opts, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "source-data")).ok());
  uint64_t ops_before = engine.stats().ops_executed;
  ASSERT_TRUE(engine.Execute(MakeCopy(2, 1)).ok());
  // The copy became a physical write carrying the value.
  EXPECT_EQ(engine.stats().ops_executed, ops_before + 1);
  EXPECT_GT(engine.stats().physical_ops, 0u);
  ObjectValue v;
  ASSERT_TRUE(engine.Read(2, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "source-data");

  // Single-object physiological ops are logged as-is.
  uint64_t physio_before = engine.stats().physiological_ops;
  ASSERT_TRUE(engine.Execute(MakeAppend(1, "!")).ok());
  EXPECT_EQ(engine.stats().physiological_ops, physio_before + 1);
}

TEST(EngineTest, OpClassCountersTrack) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  ASSERT_TRUE(engine.Execute(MakeCreate(1, "a")).ok());     // physical
  ASSERT_TRUE(engine.Execute(MakeAppend(1, "b")).ok());     // physiological
  ASSERT_TRUE(engine.Execute(MakeCopy(2, 1)).ok());         // logical
  EXPECT_EQ(engine.stats().physical_ops, 1u);
  EXPECT_EQ(engine.stats().physiological_ops, 1u);
  EXPECT_EQ(engine.stats().logical_ops, 1u);
  EXPECT_EQ(engine.stats().ops_executed, 3u);
}

TEST(EngineTest, FlushAllMakesStoreMatchCache) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  Random rng(4);
  for (ObjectId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(engine.Execute(MakeCreate(id, Slice(rng.Bytes(100)))).ok());
  }
  for (int i = 0; i < 30; ++i) {
    ObjectId a = 1 + rng.Uniform(10), b = 1 + rng.Uniform(10);
    if (a == b) continue;
    ASSERT_TRUE(engine.Execute(MakeCopy(a, b)).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  for (ObjectId id = 1; id <= 10; ++id) {
    ObjectValue cached;
    StoredObject stored;
    ASSERT_TRUE(engine.Read(id, &cached).ok());
    ASSERT_TRUE(disk.store().Read(id, &stored).ok());
    EXPECT_EQ(cached, stored.value) << id;
  }
}

// The borrowed read's contract: ReadView performs the same fault-in and
// cache Touch as Read, so two engines fed one op stream — one reading
// through Read, one through ReadView — pick the same eviction victims and
// end with identical counts, and the view shows Read's bytes. A view
// survives reads of other objects (fault-ins included) up to the next
// Execute; under ASan a dangling view would fail here.
class ReadViewTest : public testing::TestWithParam<StorageBackend> {};

std::vector<ObjectId> CachedIds(RecoveryEngine& engine) {
  std::vector<ObjectId> ids;
  engine.cache().table().ForEach(
      [&](ObjectId id, const CachedObject&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_P(ReadViewTest, SameVictimsAndCountsAsRead) {
  EngineOptions options;
  options.backend = GetParam();
  options.cache_capacity_objects = 12;
  options.purge_threshold_ops = 6;
  options.checkpoint_interval_ops = 50;
  SimulatedDisk disk_read, disk_view;
  RecoveryEngine by_read(options, &disk_read);
  RecoveryEngine by_view(options, &disk_view);
  constexpr ObjectId kObjects = 48;
  for (ObjectId id = 1; id <= kObjects; ++id) {
    const std::string v = "object-" + std::to_string(id);
    ASSERT_TRUE(by_read.Execute(MakeCreate(id, v)).ok());
    ASSERT_TRUE(by_view.Execute(MakeCreate(id, v)).ok());
  }
  Random rng(17);
  for (int step = 0; step < 3000; ++step) {
    const ObjectId x = 1 + rng.Uniform(kObjects);
    if (rng.OneIn(3)) {
      OperationDesc op;
      switch (rng.Uniform(3)) {
        case 0:
          op = MakeAppend(x, Slice(rng.Bytes(1 + rng.Uniform(8))));
          break;
        case 1:
          op = MakeCopy(x, 1 + rng.Uniform(kObjects));
          break;
        default:
          op = MakePhysicalWrite(x, Slice(rng.Bytes(rng.Uniform(32))));
          break;
      }
      ASSERT_TRUE(by_read.Execute(op).ok());
      ASSERT_TRUE(by_view.Execute(op).ok());
    } else {
      ObjectValue read;
      Slice view;
      ASSERT_TRUE(by_read.Read(x, &read).ok());
      ASSERT_TRUE(by_view.ReadView(x, &view).ok());
      ASSERT_EQ(view.ToBytes(), read);
      // Reads of other objects, fault-ins among them, keep the view.
      for (int n = rng.Uniform(4); n > 0; --n) {
        const ObjectId y = 1 + rng.Uniform(kObjects);
        ObjectValue other;
        Slice other_view;
        ASSERT_TRUE(by_read.Read(y, &other).ok());
        ASSERT_TRUE(by_view.ReadView(y, &other_view).ok());
        ASSERT_EQ(other_view.ToBytes(), other);
      }
      ASSERT_EQ(view.ToBytes(), read);
    }
    ASSERT_EQ(CachedIds(by_read), CachedIds(by_view)) << "step " << step;
  }
  Slice absent;
  EXPECT_TRUE(by_view.ReadView(kObjects + 1, &absent).IsNotFound());
  EXPECT_EQ(by_read.cache().stats().evictions,
            by_view.cache().stats().evictions);
  EXPECT_GT(by_view.cache().stats().evictions, 0u);
  EXPECT_EQ(by_read.cache().stats().nodes_installed,
            by_view.cache().stats().nodes_installed);
  EXPECT_EQ(by_read.stats().op_log_bytes, by_view.stats().op_log_bytes);
  EXPECT_EQ(disk_read.stats().ToString(), disk_view.stats().ToString());
}

INSTANTIATE_TEST_SUITE_P(Backends, ReadViewTest,
                         testing::Values(StorageBackend::kDualWrite,
                                         StorageBackend::kLogStore),
                         [](const testing::TestParamInfo<StorageBackend>& i) {
                           return i.param == StorageBackend::kDualWrite
                                      ? std::string("DualWrite")
                                      : std::string("LogStore");
                         });

// The version-stamp contract that lets a caller cache what it derived
// from a ReadView: the stamp changes whenever the cached bytes are
// replaced (fault-in, Execute, AdoptCompletedFlush, eviction + re-fault,
// redo) and never otherwise — not on reads and Touches, flushes and
// installs (W_IP identity-write installs included) or checkpoints.
class StampTest : public testing::TestWithParam<StorageBackend> {};

uint64_t StampOf(RecoveryEngine& engine, ObjectId id) {
  Slice view;
  uint64_t stamp = 0;
  EXPECT_TRUE(engine.ReadView(id, &view, &stamp).ok()) << id;
  return stamp;
}

// Writes both outputs from one input: a two-object atomic flush set that
// kIdentityWrites must peel with a W_IP identity write.
constexpr FuncId kFuncStampFanOut = kFuncFirstCustom + 201;

void RegisterFanOut() {
  FunctionRegistry::Global().Register(
      kFuncStampFanOut,
      [](const OperationDesc&, const std::vector<ObjectValue>& reads,
         std::vector<ObjectValue>* writes) {
        (*writes)[0] = reads[0];
        (*writes)[1] = reads[0];
        return Status::OK();
      });
}

TEST_P(StampTest, ChangesExactlyWhenTheCachedBytesDo) {
  RegisterFanOut();
  EngineOptions options;
  options.backend = GetParam();
  options.purge_threshold_ops = 0;  // installs only where the test asks
  SimulatedDisk disk;
  auto engine = std::make_unique<RecoveryEngine>(options, &disk);
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(engine->Execute(MakeCreate(id, "v" + std::to_string(id)))
                    .ok());
  }
  const uint64_t s1 = StampOf(*engine, 1);
  EXPECT_NE(s1, 0u);
  EXPECT_NE(s1, StampOf(*engine, 2));

  // Reads and Touches keep it.
  ObjectValue copy;
  ASSERT_TRUE(engine->Read(1, &copy).ok());
  engine->cache().table().Touch(engine->cache().table().Find(1));
  EXPECT_EQ(StampOf(*engine, 1), s1);

  // Execute on the object changes it; on another object it does not.
  ASSERT_TRUE(engine->Execute(MakeAppend(2, "+")).ok());
  EXPECT_EQ(StampOf(*engine, 1), s1);
  ASSERT_TRUE(engine->Execute(MakeAppend(1, "+")).ok());
  const uint64_t s1_appended = StampOf(*engine, 1);
  EXPECT_NE(s1_appended, s1);

  // A two-output operation, then flush and install everything: W_IP
  // identity writes (peeling the pair under dual-write, re-logging the
  // delta-produced versions under the log store) leave every stamp.
  OperationDesc fan;
  fan.op_class = OpClass::kLogical;
  fan.func = kFuncStampFanOut;
  fan.reads = {1};
  fan.writes = {3, 4};
  ASSERT_TRUE(engine->Execute(fan).ok());
  std::vector<uint64_t> before;
  for (ObjectId id = 1; id <= 4; ++id) before.push_back(StampOf(*engine, id));
  const uint64_t identity_before = engine->cache().stats().identity_writes;
  ASSERT_TRUE(engine->PurgeOne().ok());
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_GT(engine->cache().stats().identity_writes, identity_before);
  for (ObjectId id = 1; id <= 4; ++id) {
    EXPECT_EQ(StampOf(*engine, id), before[id - 1]) << id;
  }

  // AdoptCompletedFlush replaces an older cached version.
  const Lsn vsi = engine->cache().CurrentVsi(2);
  engine->cache().AdoptCompletedFlush(2, "adopted", vsi + 1000, true);
  const uint64_t s2_adopted = StampOf(*engine, 2);
  EXPECT_NE(s2_adopted, before[1]);
  // ... but not a newer one.
  engine->cache().AdoptCompletedFlush(2, "stale", vsi, true);
  EXPECT_EQ(StampOf(*engine, 2), s2_adopted);
  ASSERT_TRUE(engine->Execute(MakePhysicalWrite(2, "v2")).ok());
  ASSERT_TRUE(engine->FlushAll().ok());

  // Evict, then re-fault: same bytes, new stamp.
  const uint64_t s3 = StampOf(*engine, 3);
  engine->cache().EvictTo(0);
  ASSERT_EQ(engine->cache().table().Find(3), nullptr);
  const uint64_t s3_refaulted = StampOf(*engine, 3);
  EXPECT_NE(s3_refaulted, s3);
  EXPECT_EQ(StampOf(*engine, 3), s3_refaulted);

  // Redo: operations logged but never installed are replayed through
  // the cache after a crash, and each replayed version gets a stamp
  // newer than any handed out before the crash (the counter never
  // repeats or goes back).
  ASSERT_TRUE(engine->Execute(MakeAppend(4, "!")).ok());
  ASSERT_TRUE(engine->log().ForceAll().ok());
  const uint64_t s4_before_crash = StampOf(*engine, 4);
  engine.reset();
  engine = std::make_unique<RecoveryEngine>(options, &disk);
  RecoveryStats stats;
  ASSERT_TRUE(engine->Recover(&stats).ok());
  EXPECT_GT(stats.ops_redone, 0u);
  const uint64_t s4_redone = StampOf(*engine, 4);
  EXPECT_GT(s4_redone, s4_before_crash);
  EXPECT_EQ(StampOf(*engine, 4), s4_redone);
  ObjectValue v4;
  ASSERT_TRUE(engine->Read(4, &v4).ok());
  EXPECT_EQ(Slice(v4).ToString(), "v1+!");
}

INSTANTIATE_TEST_SUITE_P(Backends, StampTest,
                         testing::Values(StorageBackend::kDualWrite,
                                         StorageBackend::kLogStore),
                         [](const testing::TestParamInfo<StorageBackend>& i) {
                           return i.param == StorageBackend::kDualWrite
                                      ? std::string("DualWrite")
                                      : std::string("LogStore");
                         });

}  // namespace
}  // namespace loglog
