#ifndef LOGLOG_DOMAINS_BTREE_BTREE_H_
#define LOGLOG_DOMAINS_BTREE_BTREE_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "domains/btree/btree_page.h"
#include "engine/recovery_engine.h"

namespace loglog {

// Custom transform ids registered by RegisterBtreeTransforms().
inline constexpr FuncId kFuncBtreeInsertLeaf = kFuncFirstCustom + 0;
inline constexpr FuncId kFuncBtreeInsertInternal = kFuncFirstCustom + 1;
inline constexpr FuncId kFuncBtreeSplit = kFuncFirstCustom + 2;
inline constexpr FuncId kFuncBtreeTruncate = kFuncFirstCustom + 3;
inline constexpr FuncId kFuncBtreeEraseLeaf = kFuncFirstCustom + 4;
inline constexpr FuncId kFuncBtreeRootSplit = kFuncFirstCustom + 5;
inline constexpr FuncId kFuncBtreeMergeLeaves = kFuncFirstCustom + 6;
inline constexpr FuncId kFuncBtreeCollapseRoot = kFuncFirstCustom + 7;

/// Registers the B-tree transforms with the global function registry.
/// Idempotent; must run before replaying a log that contains B-tree
/// operations (the Btree constructor calls it).
void RegisterBtreeTransforms();

struct BtreeOptions {
  /// Object-id range used by this tree (meta at id_base, pages above it).
  ObjectId id_base = 100'000;
  /// Split a page when its encoded size exceeds this.
  size_t max_page_bytes = 4096;
  /// Merge a leaf into a sibling when it shrinks below
  /// max_page_bytes / 4 and the pair fits in one page.
  bool merge_on_underflow = true;
  /// True: splits/merges are logged as single *logical* operations
  /// ("copy half the contents of a full B-tree page to a new page",
  /// Section 1) — no page image on the log. False: the Figure 1b
  /// physiological baseline — a small truncate delta on the old page
  /// plus a physical write carrying the new page's full image.
  bool logical_splits = true;
};

/// Split/merge counters for the E7 experiment.
struct BtreeStats {
  uint64_t inserts = 0;
  uint64_t erases = 0;
  uint64_t splits = 0;
  uint64_t root_splits = 0;
  uint64_t merges = 0;
  uint64_t root_collapses = 0;
  uint64_t pages_reused = 0;  // allocations served from the free list
  /// Page reads that ran the full validating walk: every leaf read, the
  /// first read of each cached internal page version, and re-reads of
  /// versions whose index was displaced or that cannot be indexed.
  uint64_t page_walks = 0;
  /// Internal page reads answered by the side index of an already-walked
  /// version.
  uint64_t page_index_hits = 0;
};

/// \brief A recoverable B+-tree built entirely on the RecoveryEngine
/// public API — the paper's "Database Recovery" example for logical
/// logging.
///
/// All tree state (meta page, every tree page, the free-page list) lives
/// in recoverable objects; every mutation is a logged operation, and
/// every structure modification (split, leaf merge, root collapse) is
/// ONE atomic logical operation over the pages it touches, so the tree
/// survives crashes through ordinary engine recovery with no
/// tree-specific code. Leaves are chained for range scans; freed pages
/// are recycled through a free list carried in the meta object.
///
/// Internal page reads go through a side index: the first read of a
/// cached internal page version runs the full validating walk and
/// records the page's entries (PageIndex); later reads of the same
/// version, recognised by the cache's version stamp, binary-search those
/// entries. The table is fixed-size and direct-mapped by page id; a
/// displaced or stale entry only costs a walk. Leaves are always walked:
/// a leaf version is rarely read twice.
class Btree {
 public:
  Btree(RecoveryEngine* engine, const BtreeOptions& options);

  /// Creates the meta and root pages if absent, otherwise loads the meta.
  Status Open();

  Status Insert(uint64_t key, Slice value);
  Status Get(uint64_t key, std::vector<uint8_t>* out);
  /// Removes a key (NotFound if absent); may merge underflowing leaves.
  Status Erase(uint64_t key);

  /// Up to `limit` (key, value) pairs with key >= from, ascending, via
  /// the leaf chain.
  Status Scan(uint64_t from, size_t limit,
              std::vector<std::pair<uint64_t, std::vector<uint8_t>>>* out);

  /// Pages ever allocated minus those sitting on the free list.
  uint64_t live_pages() const {
    return (next_page_ - options_.id_base - 1) - free_list_.size();
  }
  uint64_t allocated_pages() const { return next_page_ - options_.id_base; }
  size_t free_pages() const { return free_list_.size(); }
  const BtreeStats& stats() const { return stats_; }

  /// Walks the whole tree checking order/separator invariants and that
  /// the leaf chain visits exactly the in-order leaves.
  Status Validate();

 private:
  Status LoadMeta();
  Status WriteMeta();
  /// Validated views of a page through the engine's borrowed read; they
  /// end at the next Execute.
  Status ReadPage(ObjectId id, BtreePage* out);
  /// BtreePage::Search of the cached page (Parse when `hit` is null),
  /// through the side index for internal pages.
  Status SearchPage(ObjectId id, uint64_t key, BtreePage* out,
                    PageSearch* hit);
  ObjectId AllocPageId();
  /// Splits oversized pages along `path` (root last ... leaf first was
  /// recorded root-first; splits propagate upward).
  Status SplitUpwards(std::vector<ObjectId> path);
  /// Merges `leaf` (on `path`) into a sibling if it underflows.
  Status MaybeMerge(const std::vector<ObjectId>& path);

  RecoveryEngine* engine_;
  BtreeOptions options_;
  ObjectId meta_id_;
  ObjectId root_ = kInvalidObjectId;
  ObjectId next_page_ = kInvalidObjectId;
  std::set<ObjectId> free_list_;
  BtreeStats stats_;

  /// One side-index slot: the page version whose entries `index` holds.
  struct IndexedPage {
    ObjectId id = kInvalidObjectId;
    uint64_t stamp = 0;
    PageIndex index;
  };
  static constexpr size_t kIndexSlots = 256;
  /// Internal pages' side index, direct-mapped by page id.
  std::vector<IndexedPage> page_index_;
};

}  // namespace loglog

#endif  // LOGLOG_DOMAINS_BTREE_BTREE_H_
