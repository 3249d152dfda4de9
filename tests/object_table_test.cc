#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "cache/object_table.h"
#include "common/random.h"

namespace loglog {
namespace {

TEST(ObjectTableTest, FindGetOrCreateErase) {
  ObjectTable table;
  EXPECT_EQ(table.Find(1), nullptr);
  CachedObject& obj = table.GetOrCreate(1);
  obj.SetValue({1, 2, 3});
  obj.vsi = 7;
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(table.Find(1)->vsi, 7u);
  EXPECT_EQ(table.size(), 1u);
  table.Erase(1);
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(ObjectTableTest, DirtyCountAndSnapshot) {
  ObjectTable table;
  CachedObject& a = table.GetOrCreate(1);
  table.SetDirty(&a, true);
  a.rsi = 5;
  CachedObject& b = table.GetOrCreate(2);
  table.SetDirty(&b, false);
  CachedObject& c = table.GetOrCreate(3);
  table.SetDirty(&c, true);
  c.rsi = 9;
  c.exists = false;  // uninstalled delete: dead in the snapshot

  EXPECT_EQ(table.dirty_count(), 2u);
  std::vector<DotEntry> dot = table.DirtySnapshot();
  ASSERT_EQ(dot.size(), 2u);
  bool saw_dead = false;
  for (const DotEntry& e : dot) {
    if (e.id == 3) {
      EXPECT_TRUE(e.dead);
      EXPECT_EQ(e.rsi, 9u);
      saw_dead = true;
    } else {
      EXPECT_EQ(e.id, 1u);
      EXPECT_FALSE(e.dead);
    }
  }
  EXPECT_TRUE(saw_dead);
}

TEST(ObjectTableTest, OldestCleanPrefersLruAndSkipsDirty) {
  ObjectTable table;
  CachedObject& a = table.GetOrCreate(1);
  CachedObject& b = table.GetOrCreate(2);
  CachedObject& c = table.GetOrCreate(3);
  table.Touch(&c);  // oldest but dirty
  table.SetDirty(&c, true);
  table.Touch(&b);  // older
  table.Touch(&a);
  EXPECT_EQ(table.OldestClean(), 2u);
  table.Erase(2);
  EXPECT_EQ(table.OldestClean(), 1u);
  table.Erase(1);
  EXPECT_EQ(table.OldestClean(), kInvalidObjectId);  // only dirty left
}

// Differential: over random touch/dirty/clean/erase/evict sequences the
// ordered victim is always what a scan of the whole table picks — the
// clean object with the smallest (last_access, id).
TEST(ObjectTableTest, OldestCleanMatchesReferenceScan) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Random rng(seed);
    ObjectTable table;
    size_t evictions = 0;
    for (int step = 0; step < 4000; ++step) {
      ObjectId id = 1 + rng.Uniform(48);
      switch (rng.Uniform(6)) {
        case 0:
        case 1:
          table.Touch(&table.GetOrCreate(id));
          break;
        case 2:
          table.SetDirty(&table.GetOrCreate(id), true);
          break;
        case 3:
          table.SetDirty(&table.GetOrCreate(id), false);
          break;
        case 4:
          table.Erase(id);
          break;
        default:
          break;  // evict below
      }
      ObjectId want = kInvalidObjectId;
      uint64_t want_stamp = 0;
      size_t dirty = 0;
      table.ForEach([&](ObjectId x, const CachedObject& obj) {
        if (obj.dirty()) {
          ++dirty;
          return;
        }
        if (want == kInvalidObjectId || obj.last_access() < want_stamp ||
            (obj.last_access() == want_stamp && x < want)) {
          want = x;
          want_stamp = obj.last_access();
        }
      });
      ASSERT_EQ(table.OldestClean(), want) << "step " << step;
      ASSERT_EQ(table.dirty_count(), dirty);
      if (rng.OneIn(6) && want != kInvalidObjectId) {
        table.Erase(want);  // evict, as CacheManager::EvictTo does
        ++evictions;
      }
    }
    EXPECT_GT(evictions, 100u);
  }
}

// Differential: over random create/dirty/clean/erase sequences the dirty
// list gives the same dirty object table as a scan of every cached
// object, with each object's current rSI and liveness.
TEST(ObjectTableTest, DirtySnapshotMatchesFullScan) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Random rng(seed);
    ObjectTable table;
    for (int step = 0; step < 4000; ++step) {
      ObjectId id = 1 + rng.Uniform(64);
      switch (rng.Uniform(5)) {
        case 0:
          table.GetOrCreate(id);
          break;
        case 1:
        case 2: {
          CachedObject& obj = table.GetOrCreate(id);
          table.SetDirty(&obj, true);
          obj.rsi = 1 + rng.Uniform(1000);
          obj.exists = !rng.OneIn(5);
          break;
        }
        case 3:
          table.SetDirty(&table.GetOrCreate(id), false);
          break;
        default:
          table.Erase(id);
          break;
      }
      auto key = [](const DotEntry& e) {
        return std::tuple(e.id, e.rsi, e.dead);
      };
      std::vector<std::tuple<ObjectId, Lsn, bool>> want;
      table.ForEach([&](ObjectId x, const CachedObject& obj) {
        if (obj.dirty()) want.emplace_back(x, obj.rsi, !obj.exists);
      });
      std::vector<std::tuple<ObjectId, Lsn, bool>> got;
      for (const DotEntry& e : table.DirtySnapshot()) got.push_back(key(e));
      std::ranges::sort(want);
      std::ranges::sort(got);
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(table.dirty_count(), want.size());
    }
  }
}

TEST(ObjectTableTest, ForEachVisitsAll) {
  ObjectTable table;
  for (ObjectId id = 1; id <= 5; ++id) table.GetOrCreate(id);
  size_t count = 0;
  table.ForEach([&](ObjectId, CachedObject&) { ++count; });
  EXPECT_EQ(count, 5u);
}

}  // namespace
}  // namespace loglog
