#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.h"
#include "domains/btree/btree.h"
#include "domains/btree/btree_page.h"
#include "sim/crash_harness.h"

namespace loglog {
namespace {

// Looks `key` up in an encoded page: NotFound, or OK with *out set.
Status PageLookup(const ObjectValue& bytes, uint64_t key,
                  std::vector<uint8_t>* out) {
  BtreePage page;
  PageSearch hit;
  LOGLOG_RETURN_IF_ERROR(BtreePage::Search(Slice(bytes), key, &page, &hit));
  if (!hit.found) return Status::NotFound("key not in leaf");
  *out = hit.value.ToBytes();
  return Status::OK();
}

// Child covering `key` in an encoded internal page.
ObjectId ChildFor(const ObjectValue& bytes, uint64_t key) {
  BtreePage page;
  PageSearch hit;
  EXPECT_TRUE(BtreePage::Search(Slice(bytes), key, &page, &hit).ok());
  return hit.child;
}

std::vector<PageEntry> EntriesOf(const BtreePage& page) {
  std::vector<PageEntry> out;
  PageEntry e;
  for (BtreePage::Cursor c = page.entries(); c.Next(&e);) out.push_back(e);
  return out;
}

BtreePage ParsePage(const ObjectValue& bytes) {
  BtreePage page;
  EXPECT_TRUE(BtreePage::Parse(Slice(bytes), &page).ok());
  return page;
}

TEST(BtreePageTest, LeafInsertLookupErase) {
  ObjectValue page = BtreePage::EmptyLeaf();
  ASSERT_TRUE(BtreePage::LeafPut(&page, 5, "five").ok());
  ASSERT_TRUE(BtreePage::LeafPut(&page, 1, "one").ok());
  ASSERT_TRUE(BtreePage::LeafPut(&page, 3, "three").ok());
  std::vector<PageEntry> entries = EntriesOf(ParsePage(page));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, 1u);
  EXPECT_EQ(entries[2].key, 5u);
  std::vector<uint8_t> v;
  ASSERT_TRUE(PageLookup(page, 3, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "three");
  EXPECT_TRUE(PageLookup(page, 4, &v).IsNotFound());
  // Overwrite.
  ASSERT_TRUE(BtreePage::LeafPut(&page, 3, "THREE").ok());
  ASSERT_TRUE(PageLookup(page, 3, &v).ok());
  EXPECT_EQ(Slice(v).ToString(), "THREE");
  EXPECT_EQ(ParsePage(page).count(), 3u);
  bool erased = false;
  ASSERT_TRUE(BtreePage::LeafErase(&page, 3, &erased).ok());
  EXPECT_TRUE(erased);
  ASSERT_TRUE(BtreePage::LeafErase(&page, 3, &erased).ok());
  EXPECT_FALSE(erased);
  EXPECT_EQ(ParsePage(page).count(), 2u);
}

TEST(BtreePageTest, SerializeRoundTrip) {
  ObjectValue bytes = BtreePage::EmptyLeaf();
  ASSERT_TRUE(BtreePage::LeafPut(&bytes, 7, "seven").ok());
  ASSERT_TRUE(BtreePage::LeafPut(&bytes, 2, "two").ok());
  BtreePage out;
  ASSERT_TRUE(BtreePage::Parse(Slice(bytes), &out).ok());
  EXPECT_TRUE(out.is_leaf());
  ASSERT_EQ(out.count(), 2u);
  EXPECT_EQ(EntriesOf(out)[0].key, 2u);

  bytes = BtreePage::NewRoot(/*left=*/11, /*separator=*/10, /*right=*/12);
  ASSERT_TRUE(BtreePage::InternalInsert(&bytes, 20, 13).ok());
  ASSERT_TRUE(BtreePage::Parse(Slice(bytes), &out).ok());
  EXPECT_FALSE(out.is_leaf());
  EXPECT_EQ(out.first_child(), 11u);
  EXPECT_EQ(ChildFor(bytes, 5), 11u);
  EXPECT_EQ(ChildFor(bytes, 10), 12u);
  EXPECT_EQ(ChildFor(bytes, 15), 12u);
  EXPECT_EQ(ChildFor(bytes, 25), 13u);
}

TEST(BtreePageTest, LeafSplitIsDeterministicMidpoint) {
  ObjectValue page = BtreePage::EmptyLeaf();
  for (uint64_t k = 1; k <= 10; ++k) {
    ASSERT_TRUE(BtreePage::LeafPut(&page, k, "v").ok());
  }
  ObjectValue left, right;
  uint64_t sep = 0;
  ASSERT_TRUE(BtreePage::Split(Slice(page), 99, &left, &right, &sep).ok());
  EXPECT_EQ(ParsePage(left).count(), 5u);
  EXPECT_EQ(ParsePage(right).count(), 5u);
  EXPECT_EQ(sep, EntriesOf(ParsePage(right)).front().key);
  EXPECT_EQ(sep, 6u);
}

TEST(BtreePageTest, InternalSplitMovesMiddleKeyUp) {
  ObjectValue page = BtreePage::NewRoot(100, 10, 101);
  for (uint64_t k = 2; k <= 5; ++k) {
    ASSERT_TRUE(BtreePage::InternalInsert(&page, k * 10, 100 + k).ok());
  }
  ObjectValue left, right;
  uint64_t sep = 0;
  ASSERT_TRUE(BtreePage::Split(Slice(page), 99, &left, &right, &sep).ok());
  EXPECT_EQ(sep, 30u);
  EXPECT_EQ(ParsePage(left).count(), 2u);
  EXPECT_EQ(ParsePage(right).first_child(), 103u);  // promoted key's child
  EXPECT_EQ(ParsePage(right).count(), 2u);
}

class BtreeModeTest : public testing::TestWithParam<bool> {};

TEST_P(BtreeModeTest, InsertLookupThroughSplits) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  BtreeOptions bopts;
  bopts.max_page_bytes = 256;  // force frequent splits
  bopts.logical_splits = GetParam();
  Btree tree(&engine, bopts);
  ASSERT_TRUE(tree.Open().ok());

  std::map<uint64_t, std::string> model;
  Random rng(77);
  for (int i = 0; i < 500; ++i) {
    uint64_t key = rng.Uniform(10'000);
    std::string value = "v" + std::to_string(rng.Next() % 1000);
    ASSERT_TRUE(tree.Insert(key, value).ok());
    model[key] = value;
  }
  EXPECT_GT(tree.stats().splits, 5u);
  ASSERT_EQ(tree.Validate().ToString(), "OK");
  for (const auto& [key, value] : model) {
    std::vector<uint8_t> got;
    ASSERT_TRUE(tree.Get(key, &got).ok()) << key;
    EXPECT_EQ(Slice(got).ToString(), value);
  }
  std::vector<uint8_t> none;
  EXPECT_TRUE(tree.Get(999'999, &none).IsNotFound());
}

TEST_P(BtreeModeTest, EraseRemovesKeys) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  BtreeOptions bopts;
  bopts.max_page_bytes = 256;
  bopts.logical_splits = GetParam();
  Btree tree(&engine, bopts);
  ASSERT_TRUE(tree.Open().ok());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Insert(k, "x").ok());
  }
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(tree.Erase(k).ok());
  }
  EXPECT_TRUE(tree.Erase(0).IsNotFound());
  std::vector<uint8_t> v;
  for (uint64_t k = 0; k < 100; ++k) {
    if (k % 2 == 0) {
      EXPECT_TRUE(tree.Get(k, &v).IsNotFound()) << k;
    } else {
      EXPECT_TRUE(tree.Get(k, &v).ok()) << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, BtreeModeTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "LogicalSplits"
                                             : "PhysiologicalSplits";
                         });

TEST(BtreeScanTest, RangeScansFollowLeafChain) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  BtreeOptions bopts;
  bopts.max_page_bytes = 160;  // many leaves
  Btree tree(&engine, bopts);
  ASSERT_TRUE(tree.Open().ok());
  for (uint64_t k = 0; k < 300; k += 3) {
    ASSERT_TRUE(tree.Insert(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_EQ(tree.Validate().ToString(), "OK");

  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> out;
  ASSERT_TRUE(tree.Scan(30, 10, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 30 + 3 * i);
    EXPECT_EQ(Slice(out[i].second).ToString(),
              "v" + std::to_string(out[i].first));
  }
  // From a key between entries, and over the end of the tree.
  ASSERT_TRUE(tree.Scan(31, 3, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 33u);
  ASSERT_TRUE(tree.Scan(295, 100, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 297u);
  ASSERT_TRUE(tree.Scan(1000, 5, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(BtreeMergeTest, ErasureMergesAndRecyclesPages) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  BtreeOptions bopts;
  bopts.max_page_bytes = 200;
  Btree tree(&engine, bopts);
  ASSERT_TRUE(tree.Open().ok());
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(tree.Insert(k, "payload-value").ok());
  }
  uint64_t peak_pages = tree.live_pages();
  ASSERT_EQ(tree.Validate().ToString(), "OK");

  for (uint64_t k = 0; k < 380; ++k) {
    ASSERT_TRUE(tree.Erase(k).ok());
  }
  ASSERT_EQ(tree.Validate().ToString(), "OK");
  EXPECT_GT(tree.stats().merges, 0u);
  EXPECT_LT(tree.live_pages(), peak_pages);
  EXPECT_GT(tree.free_pages(), 0u);

  // Freed pages are recycled by later splits.
  uint64_t allocated_before = tree.allocated_pages();
  for (uint64_t k = 1000; k < 1400; ++k) {
    ASSERT_TRUE(tree.Insert(k, "payload-value").ok());
  }
  ASSERT_EQ(tree.Validate().ToString(), "OK");
  EXPECT_GT(tree.stats().pages_reused, 0u);
  EXPECT_LT(tree.allocated_pages() - allocated_before, 400u / 5);

  // Remaining keys still answer.
  std::vector<uint8_t> v;
  for (uint64_t k = 380; k < 400; ++k) {
    EXPECT_TRUE(tree.Get(k, &v).ok()) << k;
  }
  for (uint64_t k = 0; k < 380; ++k) {
    ASSERT_TRUE(tree.Get(k, &v).IsNotFound()) << k;
  }
}

TEST(BtreeMergeTest, RootCollapsesWhenTreeShrinks) {
  SimulatedDisk disk;
  RecoveryEngine engine(EngineOptions{}, &disk);
  BtreeOptions bopts;
  bopts.max_page_bytes = 160;
  Btree tree(&engine, bopts);
  ASSERT_TRUE(tree.Open().ok());
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(tree.Insert(k, "x").ok());
  }
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(tree.Erase(k).ok());
  }
  ASSERT_EQ(tree.Validate().ToString(), "OK");
  EXPECT_GT(tree.stats().root_collapses, 0u);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> out;
  ASSERT_TRUE(tree.Scan(0, 10, &out).ok());
  EXPECT_TRUE(out.empty());
  // The shrunken tree keeps working.
  ASSERT_TRUE(tree.Insert(5, "back").ok());
  std::vector<uint8_t> v;
  ASSERT_TRUE(tree.Get(5, &v).ok());
}

TEST(BtreeScanTest, ScansSurviveCrashRecovery) {
  EngineOptions eopts;
  eopts.purge_threshold_ops = 16;
  CrashHarness harness(eopts, 47);
  BtreeOptions bopts;
  bopts.max_page_bytes = 160;
  {
    Btree tree(&harness.engine(), bopts);
    ASSERT_TRUE(tree.Open().ok());
    for (uint64_t k = 0; k < 200; k += 2) {
      ASSERT_TRUE(tree.Insert(k, "s" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(harness.engine().log().ForceAll().ok());
  }
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  Btree tree(&harness.engine(), bopts);
  ASSERT_TRUE(tree.Open().ok());
  ASSERT_EQ(tree.Validate().ToString(), "OK");  // chain intact
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> out;
  ASSERT_TRUE(tree.Scan(50, 25, &out).ok());
  ASSERT_EQ(out.size(), 25u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 50 + 2 * i);
  }
}

TEST(BtreeMergeTest, MergesSurviveCrashRecovery) {
  EngineOptions eopts;
  eopts.purge_threshold_ops = 16;
  eopts.checkpoint_interval_ops = 80;
  CrashHarness harness(eopts, 41);
  BtreeOptions bopts;
  bopts.max_page_bytes = 200;
  Random rng(41);
  std::map<uint64_t, bool> live;
  {
    Btree tree(&harness.engine(), bopts);
    ASSERT_TRUE(tree.Open().ok());
    for (uint64_t k = 0; k < 250; ++k) {
      ASSERT_TRUE(tree.Insert(k, "vv").ok());
      live[k] = true;
    }
    for (int i = 0; i < 180; ++i) {
      uint64_t k = rng.Uniform(250);
      if (live[k]) {
        ASSERT_TRUE(tree.Erase(k).ok());
        live[k] = false;
      }
    }
    ASSERT_TRUE(harness.engine().log().ForceAll().ok());
  }
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  ASSERT_TRUE(harness.VerifyAgainstReference().ok());
  Btree tree(&harness.engine(), bopts);
  ASSERT_TRUE(tree.Open().ok());
  ASSERT_EQ(tree.Validate().ToString(), "OK");
  std::vector<uint8_t> v;
  for (const auto& [k, alive] : live) {
    if (alive) {
      EXPECT_TRUE(tree.Get(k, &v).ok()) << k;
    } else {
      EXPECT_TRUE(tree.Get(k, &v).IsNotFound()) << k;
    }
  }
}

// The side index validates each cached internal page version once:
// repeated searches of an unchanged internal page are index hits, and a
// write to it, an eviction, a split or a recovery (each a new version, or
// a new cache) costs exactly one walk on the next search. Leaves are
// walked on every read and never indexed.
TEST(BtreeIndexTest, EachInternalPageVersionIsWalkedOnce) {
  EngineOptions eopts;
  eopts.purge_threshold_ops = 0;
  CrashHarness harness(eopts, 3);
  BtreeOptions bopts;
  bopts.max_page_bytes = 256;
  auto tree = std::make_unique<Btree>(&harness.engine(), bopts);
  ASSERT_TRUE(tree->Open().ok());
  for (uint64_t k = 10; k < 15; ++k) {
    ASSERT_TRUE(tree->Insert(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_EQ(tree->stats().splits, 0u);  // one page: the root leaf

  // Gets of keys 10..14, counting walks and hits.
  auto gets = [&](int n, uint64_t* walks, uint64_t* hits) {
    const BtreeStats before = tree->stats();
    std::vector<uint8_t> v;
    for (int i = 0; i < n; ++i) {
      const uint64_t key = 10 + static_cast<uint64_t>(i % 5);
      ASSERT_TRUE(tree->Get(key, &v).ok()) << key;
      ASSERT_EQ(Slice(v).ToString(), "v" + std::to_string(key));
    }
    *walks = tree->stats().page_walks - before.page_walks;
    *hits = tree->stats().page_index_hits - before.page_index_hits;
  };
  uint64_t walks = 0, hits = 0;
  gets(10, &walks, &hits);
  EXPECT_EQ(walks, 10u);  // a leaf root is walked every time
  EXPECT_EQ(hits, 0u);

  // The root split: a new internal root, walked once; its two leaves are
  // walked on every get.
  uint64_t k = 100;
  while (tree->stats().splits == 0) {
    ASSERT_TRUE(tree->Insert(k++, "filler-value").ok());
  }
  ASSERT_EQ(tree->stats().root_splits, 1u);
  gets(1, &walks, &hits);
  EXPECT_EQ(walks, 2u);
  EXPECT_EQ(hits, 0u);
  gets(10, &walks, &hits);
  EXPECT_EQ(walks, 10u);
  EXPECT_EQ(hits, 10u);

  // A leaf write leaves the root's version alone: the insert's descent
  // and every later get hit it.
  const uint64_t splits = tree->stats().splits;
  const BtreeStats before_write = tree->stats();
  ASSERT_TRUE(tree->Insert(12, "v12").ok());
  ASSERT_EQ(tree->stats().splits, splits);
  EXPECT_EQ(tree->stats().page_index_hits - before_write.page_index_hits,
            1u);
  gets(10, &walks, &hits);
  EXPECT_EQ(walks, 10u);
  EXPECT_EQ(hits, 10u);

  // A flush keeps the version; an eviction re-faults the same bytes as a
  // new version.
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  gets(5, &walks, &hits);
  EXPECT_EQ(walks, 5u);
  EXPECT_EQ(hits, 5u);
  harness.engine().cache().EvictTo(0);
  gets(10, &walks, &hits);
  EXPECT_EQ(walks, 11u);
  EXPECT_EQ(hits, 9u);

  // A leaf split writes the root, and the split's upward pass walks the
  // new version (to see whether it overflows); gets then hit it.
  while (tree->stats().splits == splits) {
    ASSERT_TRUE(tree->Insert(k++, "filler-value").ok());
  }
  ASSERT_EQ(tree->stats().root_splits, 1u);
  gets(1, &walks, &hits);
  EXPECT_EQ(walks, 1u);
  EXPECT_EQ(hits, 1u);
  gets(10, &walks, &hits);
  EXPECT_EQ(walks, 10u);
  EXPECT_EQ(hits, 10u);

  // Recovery rebuilds the cache: one walk of the root again.
  ASSERT_TRUE(harness.engine().log().ForceAll().ok());
  tree.reset();
  harness.Crash();
  ASSERT_TRUE(harness.Recover().ok());
  tree = std::make_unique<Btree>(&harness.engine(), bopts);
  ASSERT_TRUE(tree->Open().ok());
  gets(1, &walks, &hits);
  EXPECT_EQ(walks, 2u);
  EXPECT_EQ(hits, 0u);
  gets(10, &walks, &hits);
  EXPECT_EQ(walks, 10u);
  EXPECT_EQ(hits, 10u);
  EXPECT_EQ(tree->Validate().ToString(), "OK");
}

// The headline crash property: a tree built with logical splits survives
// crashes at arbitrary points, because each structure modification is one
// atomic logged operation.
TEST(BtreeCrashTest, SurvivesCrashesMidLoad) {
  EngineOptions eopts;
  eopts.purge_threshold_ops = 16;
  eopts.checkpoint_interval_ops = 50;
  CrashHarness harness(eopts, 9);

  BtreeOptions bopts;
  bopts.max_page_bytes = 192;
  std::map<uint64_t, std::string> model;
  Random rng(13);

  {
    Btree tree(&harness.engine(), bopts);
    ASSERT_TRUE(tree.Open().ok());
    for (int i = 0; i < 150; ++i) {
      uint64_t key = rng.Uniform(5'000);
      ASSERT_TRUE(tree.Insert(key, "a").ok());
      model[key] = "a";
    }
  }

  for (int round = 0; round < 4; ++round) {
    // Force the log (but flush nothing): the crash loses all cached
    // state, recovery must rebuild it purely by redo, and the model
    // stays exact because every logged operation survives.
    ASSERT_TRUE(harness.engine().log().ForceAll().ok());
    harness.Crash();
    RecoveryStats rstats;
    ASSERT_TRUE(harness.Recover(&rstats).ok());
    ASSERT_TRUE(harness.VerifyAgainstReference().ok());

    Btree tree(&harness.engine(), bopts);
    ASSERT_TRUE(tree.Open().ok());
    ASSERT_EQ(tree.Validate().ToString(), "OK");
    // Everything whose insert reached the stable log must be present;
    // since VerifyAgainstReference passed, spot-check via the model for
    // keys inserted before the last flush (all earlier rounds are
    // durable because recovery flushed them).
    for (int i = 0; i < 100; ++i) {
      uint64_t key = rng.Uniform(5'000);
      std::string value = "r" + std::to_string(round);
      ASSERT_TRUE(tree.Insert(key, value).ok());
      model[key] = value;
    }
    ASSERT_EQ(tree.Validate().ToString(), "OK");
  }

  // Quiesce: everything is now durable; the model must match exactly.
  ASSERT_TRUE(harness.engine().FlushAll().ok());
  Btree tree(&harness.engine(), bopts);
  ASSERT_TRUE(tree.Open().ok());
  for (const auto& [key, value] : model) {
    std::vector<uint8_t> got;
    ASSERT_TRUE(tree.Get(key, &got).ok()) << key;
    EXPECT_EQ(Slice(got).ToString(), value);
  }
}

}  // namespace
}  // namespace loglog
