// Differential tests of the in-place page code (domains/btree/btree_page.h)
// against ReferencePage, the decode -> edit -> encode model of the same
// page format: after every edit the page bytes, and every search, size
// and child answer, must equal the model's.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "btree_page_oracle.h"
#include "common/random.h"
#include "domains/btree/btree_page.h"

namespace loglog {
namespace {

// Keys of every varint length, including 9- and 10-byte ones.
uint64_t RandomKey(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return rng->Uniform(128);
    case 1:
      return rng->Uniform(1 << 20);
    case 2:
      return rng->Next() >> rng->Uniform(64);
    default:
      return rng->Next();
  }
}

// Mostly short values; some cross the one-byte length varint.
std::vector<uint8_t> RandomValue(Random* rng) {
  return rng->Bytes(rng->OneIn(4) ? rng->Range(100, 300) : rng->Uniform(16));
}

std::vector<uint64_t> KeysOf(const ReferencePage& ref) {
  std::vector<uint64_t> keys;
  if (ref.is_leaf) {
    for (const auto& e : ref.leaf_entries) keys.push_back(e.key);
  } else {
    for (const auto& e : ref.internal_entries) keys.push_back(e.key);
  }
  return keys;
}

// The page code's view of `bytes` must match `ref` (the model of the
// same page): bytes, header, entries, and a search for each probe key.
void ExpectMatches(const ObjectValue& bytes, const ReferencePage& ref,
                   Random* rng) {
  ASSERT_EQ(bytes, ref.Serialize());
  BtreePage page;
  ASSERT_TRUE(BtreePage::Parse(Slice(bytes), &page).ok());
  ASSERT_EQ(page.is_leaf(), ref.is_leaf);
  ASSERT_EQ(page.count(), ref.EntryCount());
  ASSERT_EQ(page.size(), bytes.size());
  EXPECT_EQ(page.next_leaf(), ref.is_leaf ? ref.next_leaf : kInvalidObjectId);
  EXPECT_EQ(page.first_child(),
            ref.is_leaf ? kInvalidObjectId : ref.first_child);
  size_t i = 0;
  PageEntry e;
  for (BtreePage::Cursor c = page.entries(); c.Next(&e); ++i) {
    ASSERT_LT(i, ref.EntryCount());
    if (ref.is_leaf) {
      EXPECT_EQ(e.key, ref.leaf_entries[i].key);
      EXPECT_EQ(e.value.ToBytes(), ref.leaf_entries[i].value);
    } else {
      EXPECT_EQ(e.key, ref.internal_entries[i].key);
      EXPECT_EQ(e.child, ref.internal_entries[i].child);
    }
  }
  EXPECT_EQ(i, ref.EntryCount());

  // Probe present keys, their neighbours and random keys.
  std::vector<uint64_t> probes = {0, ~uint64_t{0}, RandomKey(rng)};
  std::vector<uint64_t> keys = KeysOf(ref);
  for (int n = 0; n < 4 && !keys.empty(); ++n) {
    uint64_t k = keys[rng->Uniform(keys.size())];
    probes.insert(probes.end(), {k, k - 1, k + 1});
  }
  for (uint64_t k : probes) {
    PageSearch hit;
    ASSERT_TRUE(BtreePage::Search(Slice(bytes), k, &page, &hit).ok());
    if (!ref.is_leaf) {
      EXPECT_EQ(hit.child, ref.ChildFor(k)) << "key " << k;
      continue;
    }
    std::vector<uint8_t> want;
    const bool present = ref.LeafLookup(k, &want).ok();
    ASSERT_EQ(hit.found, present) << "key " << k;
    if (present) {
      EXPECT_EQ(hit.value.ToBytes(), want);
    }
    const std::vector<uint8_t> value = RandomValue(rng);
    ReferencePage after = ref;
    after.LeafInsert(k, Slice(value));
    EXPECT_EQ(page.SizeAfterLeafPut(hit, k, value.size()),
              ReferencePageBytes(after))
        << "key " << k;
  }
}

ReferencePage RandomLeaf(Random* rng, size_t n) {
  ReferencePage ref;
  ref.next_leaf = rng->OneIn(3) ? kInvalidObjectId : RandomKey(rng);
  while (ref.leaf_entries.size() < n) {
    ref.LeafInsert(RandomKey(rng), Slice(RandomValue(rng)));
  }
  return ref;
}

ReferencePage RandomInternal(Random* rng, size_t n) {
  ReferencePage ref;
  ref.is_leaf = false;
  ref.first_child = RandomKey(rng);
  while (ref.internal_entries.size() < n) {
    ref.InternalInsert(RandomKey(rng), RandomKey(rng));
  }
  return ref;
}

// The reference split, leaf chaining included, as the split transform
// did it.
uint64_t ReferenceSplit(ReferencePage* left, ReferencePage* right,
                        ObjectId right_id) {
  uint64_t separator = left->SplitInto(right);
  if (left->is_leaf) {
    right->next_leaf = left->next_leaf;
    left->next_leaf = right_id;
  }
  return separator;
}

class PageDiffTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PageDiffTest, LeafEditsMatchReference) {
  Random rng(GetParam());
  ReferencePage ref = RandomLeaf(&rng, 0);
  ObjectValue page = ref.Serialize();
  // Grow past `target` entries (which crosses the count varint's one-byte
  // limit), then split and carry on in one half.
  size_t target = rng.Range(1, 300);
  for (int step = 0; step < 1500; ++step) {
    std::vector<uint64_t> keys = KeysOf(ref);
    const uint64_t r = rng.Uniform(10);
    if (keys.size() > target) {
      ObjectValue left, right;
      uint64_t sep = 0;
      const ObjectId right_id = RandomKey(&rng);
      ASSERT_TRUE(
          BtreePage::Split(Slice(page), right_id, &left, &right, &sep).ok());
      ReferencePage ref_left = ref, ref_right;
      ASSERT_EQ(sep, ReferenceSplit(&ref_left, &ref_right, right_id));
      ExpectMatches(left, ref_left, &rng);
      ExpectMatches(right, ref_right, &rng);
      const bool keep_left = rng.OneIn(2);
      page = keep_left ? left : right;
      ref = keep_left ? ref_left : ref_right;
      target = rng.Range(1, 300);
    } else if (r < 5 || keys.empty()) {
      const uint64_t k = RandomKey(&rng);
      const std::vector<uint8_t> v = RandomValue(&rng);
      ASSERT_TRUE(BtreePage::LeafPut(&page, k, Slice(v)).ok());
      ref.LeafInsert(k, Slice(v));
    } else if (r < 7) {
      const uint64_t k = keys[rng.Uniform(keys.size())];
      const std::vector<uint8_t> v = RandomValue(&rng);
      ASSERT_TRUE(BtreePage::LeafPut(&page, k, Slice(v)).ok());
      ref.LeafInsert(k, Slice(v));
    } else {
      const uint64_t k = rng.OneIn(2) ? keys[rng.Uniform(keys.size())]
                                      : RandomKey(&rng);
      bool erased = false;
      ASSERT_TRUE(BtreePage::LeafErase(&page, k, &erased).ok());
      EXPECT_EQ(erased, ref.LeafErase(k));
    }
    ExpectMatches(page, ref, &rng);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(PageDiffTest, InternalEditsMatchReference) {
  Random rng(GetParam() * 7 + 1);
  ReferencePage ref = RandomInternal(&rng, 0);
  ObjectValue page = ref.Serialize();
  size_t target = rng.Range(1, 300);
  for (int step = 0; step < 1500; ++step) {
    const uint64_t r = rng.Uniform(10);
    if (ref.internal_entries.size() > target) {
      ObjectValue left, right;
      uint64_t sep = 0;
      ASSERT_TRUE(BtreePage::Split(Slice(page), RandomKey(&rng), &left,
                                   &right, &sep)
                      .ok());
      ReferencePage ref_left = ref, ref_right;
      ASSERT_EQ(sep, ReferenceSplit(&ref_left, &ref_right, 0));
      ExpectMatches(left, ref_left, &rng);
      ExpectMatches(right, ref_right, &rng);
      const bool keep_left = rng.OneIn(2);
      page = keep_left ? left : right;
      ref = keep_left ? ref_left : ref_right;
      target = rng.Range(1, 300);
    } else if (r < 7 || ref.internal_entries.empty()) {
      // Separator insert; sometimes a duplicate separator or child.
      std::vector<uint64_t> keys = KeysOf(ref);
      const uint64_t k = !keys.empty() && rng.OneIn(8)
                             ? keys[rng.Uniform(keys.size())]
                             : RandomKey(&rng);
      const ObjectId child = !keys.empty() && rng.OneIn(8)
                                 ? ref.internal_entries[0].child
                                 : RandomKey(&rng);
      ASSERT_TRUE(BtreePage::InternalInsert(&page, k, child).ok());
      ref.InternalInsert(k, child);
    } else {
      // The merge's parent edit: drop the first entry pointing at a child
      // (present or not).
      const ObjectId child =
          rng.OneIn(4) ? RandomKey(&rng)
                       : ref.internal_entries[rng.Uniform(
                                                  ref.internal_entries.size())]
                             .child;
      ASSERT_TRUE(BtreePage::InternalEraseChild(&page, child).ok());
      for (auto it = ref.internal_entries.begin();
           it != ref.internal_entries.end(); ++it) {
        if (it->child == child) {
          ref.internal_entries.erase(it);
          break;
        }
      }
    }
    ExpectMatches(page, ref, &rng);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(PageDiffTest, RootSplitMergeAndCollapseMatchReference) {
  Random rng(GetParam() * 31 + 3);
  EXPECT_EQ(BtreePage::EmptyLeaf(), ReferencePage().Serialize());
  for (int round = 0; round < 40; ++round) {
    // Root split of a leaf or internal root.
    ReferencePage old_root = rng.OneIn(2)
                                 ? RandomLeaf(&rng, rng.Range(1, 300))
                                 : RandomInternal(&rng, rng.Range(1, 300));
    const ObjectId old_id = RandomKey(&rng);
    const ObjectId new_id = RandomKey(&rng);
    ObjectValue left, right;
    uint64_t sep = 0;
    ASSERT_TRUE(BtreePage::Split(Slice(old_root.Serialize()), new_id, &left,
                                 &right, &sep)
                    .ok());
    ReferencePage ref_left = old_root, ref_right;
    ASSERT_EQ(sep, ReferenceSplit(&ref_left, &ref_right, new_id));
    ExpectMatches(left, ref_left, &rng);
    ExpectMatches(right, ref_right, &rng);
    ReferencePage ref_root;
    ref_root.is_leaf = false;
    ref_root.first_child = old_id;
    ref_root.internal_entries.push_back({sep, new_id});
    ExpectMatches(BtreePage::NewRoot(old_id, sep, new_id), ref_root, &rng);

    // Leaf merge: a split's halves, or adjacent leaves cut anywhere
    // (either may be empty) with their own right siblings.
    ReferencePage a = ref_left, b = ref_right;
    if (!old_root.is_leaf) {
      a = RandomLeaf(&rng, rng.Uniform(300));
      b = RandomLeaf(&rng, 0);
      const size_t cut = rng.Uniform(a.leaf_entries.size() + 1);
      b.leaf_entries.assign(a.leaf_entries.begin() + cut,
                            a.leaf_entries.end());
      a.leaf_entries.resize(cut);
    }
    ObjectValue merged;
    ASSERT_TRUE(BtreePage::MergeLeaves(Slice(a.Serialize()),
                                       Slice(b.Serialize()), &merged)
                    .ok());
    ReferencePage ref_merged = a;
    ref_merged.leaf_entries.insert(ref_merged.leaf_entries.end(),
                                   b.leaf_entries.begin(),
                                   b.leaf_entries.end());
    ref_merged.next_leaf = b.next_leaf;
    ExpectMatches(merged, ref_merged, &rng);

    // Collapse: a root whose last separator was erased.
    ReferencePage lone = RandomInternal(&rng, 1);
    ObjectValue lone_bytes = lone.Serialize();
    ASSERT_TRUE(BtreePage::InternalEraseChild(
                    &lone_bytes, lone.internal_entries[0].child)
                    .ok());
    lone.internal_entries.clear();
    ExpectMatches(lone_bytes, lone, &rng);
    if (testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageDiffTest, testing::Values(1, 2, 3, 4));

// The side index (PageIndex) against the walk: Build must answer like
// BtreePage::Search, and every later indexed Search of the same bytes
// must return the same page view and PageSearch as a fresh walk, for
// keys below, between, on and above the entries.
void ExpectSameView(const BtreePage& got, const BtreePage& want) {
  EXPECT_EQ(got.bytes().data(), want.bytes().data());
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.is_leaf(), want.is_leaf());
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.next_leaf(), want.next_leaf());
  EXPECT_EQ(got.first_child(), want.first_child());
  EXPECT_EQ(got.DebugString(), want.DebugString());
}

void ExpectSameHit(const PageSearch& got, const PageSearch& want,
                   uint64_t key) {
  EXPECT_EQ(got.begin, want.begin) << "key " << key;
  EXPECT_EQ(got.found, want.found) << "key " << key;
  EXPECT_EQ(got.end, want.end) << "key " << key;
  EXPECT_EQ(got.value.data(), want.value.data()) << "key " << key;
  EXPECT_EQ(got.value.size(), want.value.size()) << "key " << key;
  EXPECT_EQ(got.child, want.child) << "key " << key;
}

// Builds an index of `bytes` and checks it against the walk; returns
// whether the page became searchable.
bool ExpectIndexMatchesWalk(const ObjectValue& bytes,
                            const std::vector<uint64_t>& keys, Random* rng) {
  std::vector<uint64_t> probes = {0, 1, ~uint64_t{0}, ~uint64_t{0} - 1,
                                  RandomKey(rng)};
  for (uint64_t k : keys) probes.insert(probes.end(), {k, k - 1, k + 1});
  PageIndex index;
  BtreePage built, walked;
  PageSearch built_hit, walked_hit;
  const uint64_t first = probes[rng->Uniform(probes.size())];
  EXPECT_TRUE(index.Build(Slice(bytes), first, &built, &built_hit).ok());
  EXPECT_TRUE(
      BtreePage::Search(Slice(bytes), first, &walked, &walked_hit).ok());
  ExpectSameView(built, walked);
  ExpectSameHit(built_hit, walked_hit, first);
  if (!index.searchable()) return false;
  for (uint64_t k : probes) {
    BtreePage page;
    PageSearch hit;
    index.Search(Slice(bytes), k, &page, &hit);
    EXPECT_TRUE(BtreePage::Search(Slice(bytes), k, &walked, &walked_hit).ok());
    ExpectSameView(page, walked);
    ExpectSameHit(hit, walked_hit, k);
    if (page.is_leaf()) {
      EXPECT_EQ(page.SizeAfterLeafPut(hit, k, 70),
                walked.SizeAfterLeafPut(walked_hit, k, 70))
          << "key " << k;
    }
  }
  // The Parse form: the view alone.
  BtreePage parsed;
  index.Search(Slice(bytes), 0, &parsed, nullptr);
  EXPECT_TRUE(BtreePage::Parse(Slice(bytes), &walked).ok());
  ExpectSameView(parsed, walked);
  return true;
}

class PageIndexTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PageIndexTest, IndexedSearchMatchesWalk) {
  Random rng(GetParam() * 977 + 5);
  for (int round = 0; round < 120; ++round) {
    // Empty pages, small ones and counts past the one-byte count varint.
    const size_t n = round % 10 == 0 ? 0 : rng.Range(1, 300);
    ReferencePage ref =
        rng.OneIn(2) ? RandomLeaf(&rng, n) : RandomInternal(&rng, n);
    std::vector<uint64_t> keys = KeysOf(ref);
    // Duplicate keys keep the page sorted: internal pages get them from
    // InternalInsert, leaves by copying a neighbour's key.
    if (!keys.empty() && rng.OneIn(3)) {
      const size_t i = rng.Uniform(keys.size());
      if (ref.is_leaf) {
        ref.leaf_entries.insert(ref.leaf_entries.begin() + i,
                                ref.leaf_entries[i]);
      } else {
        for (int d = 0; d < 3; ++d) ref.InternalInsert(keys[i], RandomKey(&rng));
      }
      keys = KeysOf(ref);
    }
    const ObjectValue bytes = ref.Serialize();
    EXPECT_TRUE(ExpectIndexMatchesWalk(bytes, keys, &rng)) << "round " << round;
    if (testing::Test::HasFailure()) return;
  }
}

// The walk does not check order, so a page whose keys descend anywhere
// must never be searched through the index — it is walked every time.
TEST_P(PageIndexTest, UnsortedPagesAreNotIndexed) {
  Random rng(GetParam() * 131 + 7);
  for (int round = 0; round < 60; ++round) {
    ReferencePage ref = rng.OneIn(2) ? RandomLeaf(&rng, rng.Range(2, 200))
                                     : RandomInternal(&rng, rng.Range(2, 200));
    // Swap two entries with different keys: one descent somewhere.
    const size_t n = ref.EntryCount();
    size_t i = rng.Uniform(n - 1);
    size_t j = i + 1 + rng.Uniform(n - i - 1);
    if (ref.is_leaf) {
      if (ref.leaf_entries[i].key == ref.leaf_entries[j].key) continue;
      std::swap(ref.leaf_entries[i], ref.leaf_entries[j]);
    } else {
      if (ref.internal_entries[i].key == ref.internal_entries[j].key) continue;
      std::swap(ref.internal_entries[i], ref.internal_entries[j]);
    }
    EXPECT_FALSE(ExpectIndexMatchesWalk(ref.Serialize(), KeysOf(ref), &rng))
        << "round " << round;
    if (testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageIndexTest, testing::Values(1, 2, 3, 4));

TEST(PageIndexTest, CorruptPagesAreRejectedAndNotIndexed) {
  PageIndex index;
  BtreePage page;
  PageSearch hit;
  ObjectValue good = BtreePage::NewRoot(1, 10, 2);
  ASSERT_TRUE(index.Build(Slice(good), 10, &page, &hit).ok());
  EXPECT_TRUE(index.searchable());
  EXPECT_EQ(hit.child, 2u);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    const ObjectValue torn(good.begin(),
                           good.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_TRUE(index.Build(Slice(torn), 10, &page, &hit).IsCorruption());
    EXPECT_FALSE(index.searchable());
  }
  ObjectValue trailing = good;
  trailing.push_back(0);
  EXPECT_TRUE(index.Build(Slice(trailing), 10, &page, &hit).IsCorruption());
  EXPECT_FALSE(index.searchable());
}

TEST(BtreePageTest, DebugStringListsEntries) {
  ObjectValue leaf = BtreePage::EmptyLeaf();
  ASSERT_TRUE(BtreePage::LeafPut(&leaf, 9, "x").ok());
  ASSERT_TRUE(BtreePage::LeafPut(&leaf, 4, "y").ok());
  BtreePage page;
  ASSERT_TRUE(BtreePage::Parse(Slice(leaf), &page).ok());
  EXPECT_EQ(page.DebugString(), "leaf{4,9,}");
  ObjectValue internal = BtreePage::NewRoot(1, 10, 2);
  ASSERT_TRUE(BtreePage::Parse(Slice(internal), &page).ok());
  EXPECT_EQ(page.DebugString(), "internal{first=1 10->2,}");
}

TEST(BtreePageTest, EditsRejectTheWrongPageKind) {
  ObjectValue leaf = BtreePage::EmptyLeaf();
  ObjectValue internal = BtreePage::NewRoot(1, 10, 2);
  const ObjectValue leaf_before = leaf, internal_before = internal;
  EXPECT_TRUE(BtreePage::LeafPut(&internal, 5, "v").IsInvalidArgument());
  EXPECT_TRUE(BtreePage::InternalInsert(&leaf, 5, 3).IsInvalidArgument());
  ObjectValue out, right;
  uint64_t sep = 0;
  EXPECT_TRUE(BtreePage::MergeLeaves(Slice(leaf), Slice(internal), &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(BtreePage::Split(Slice(leaf), 9, &out, &right, &sep)
                  .IsInvalidArgument());
  // Erasing from the wrong kind is a no-op, as in the decoded model.
  bool erased = true;
  ASSERT_TRUE(BtreePage::LeafErase(&internal, 10, &erased).ok());
  EXPECT_FALSE(erased);
  ASSERT_TRUE(BtreePage::InternalEraseChild(&leaf, 2).ok());
  EXPECT_EQ(leaf, leaf_before);
  EXPECT_EQ(internal, internal_before);
  // A corrupt page is rejected and left as it was.
  ObjectValue torn(internal.begin(), internal.end() - 1);
  const ObjectValue torn_before = torn;
  EXPECT_TRUE(BtreePage::InternalInsert(&torn, 5, 3).IsCorruption());
  EXPECT_EQ(torn, torn_before);
}

}  // namespace
}  // namespace loglog
