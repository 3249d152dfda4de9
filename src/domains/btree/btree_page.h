#ifndef LOGLOG_DOMAINS_BTREE_BTREE_PAGE_H_
#define LOGLOG_DOMAINS_BTREE_BTREE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace loglog {

/// One entry of a page, borrowed from its encoding.
struct PageEntry {
  uint64_t key = 0;
  ObjectId child = kInvalidObjectId;  // internal pages
  Slice value;                        // leaf pages
};

/// Where a key falls in a page; filled by the pass that validates it.
struct PageSearch {
  /// The first entry whose key is >= the searched key starts at `begin`
  /// (the insert position; the page size when there is none).
  size_t begin = 0;
  /// That entry's key equals the searched key.
  bool found = false;
  /// End of the found entry (== begin when not found).
  size_t end = 0;
  /// Leaf pages: the found entry's value.
  Slice value;
  /// Internal pages: the child that covers the searched key.
  ObjectId child = kInvalidObjectId;
};

/// \brief A validated view of a B+-tree page, which is kept in exactly
/// one encoding — the one that is cached, logged, flushed and searched:
///
///   leaf:     0x01 | varint next_leaf | varint n |
///             n x (varint key, varint len, len bytes)
///   internal: 0x00 | varint n | varint first_child |
///             n x (varint key, varint child)
///
/// Entries are sorted by key; an internal entry's child covers keys >=
/// its separator key, and first_child covers the keys below them all.
/// There is no decoded form: pages are searched, iterated and edited on
/// these bytes, and the encoded size is what the tree compares against
/// the page-size limit to trigger splits.
///
/// Parse/Search check everything a page read must check — the entry
/// count is bounded by the bytes after it, every varint and value length
/// is bounds-checked, and no bytes trail the last entry — and return
/// Corruption otherwise. The static edits validate their input the same
/// way and leave it untouched on error. A view borrows its bytes.
class PageIndex;

class BtreePage {
 public:
  /// Entry iterator in key order:
  /// `for (auto c = page.entries(); c.Next(&e);)`.
  class Cursor {
   public:
    bool Next(PageEntry* e);

   private:
    friend class BtreePage;
    /// Byte offset (within the page) of the entry Next returns next.
    size_t offset() const { return static_cast<size_t>(p_ - base_); }
    const uint8_t* base_ = nullptr;
    const uint8_t* p_ = nullptr;
    const uint8_t* limit_ = nullptr;
    uint64_t remaining_ = 0;
    bool is_leaf_ = true;
  };

  static Status Parse(Slice bytes, BtreePage* out);
  /// Parse, plus a search for `key` in the same pass.
  static Status Search(Slice bytes, uint64_t key, BtreePage* out,
                       PageSearch* hit);

  bool is_leaf() const { return is_leaf_; }
  /// Right-sibling leaf for range scans (kInvalidObjectId at the end, and
  /// on internal pages).
  ObjectId next_leaf() const { return is_leaf_ ? link_ : kInvalidObjectId; }
  /// Child covering keys below the first separator (kInvalidObjectId on
  /// leaves).
  ObjectId first_child() const {
    return is_leaf_ ? kInvalidObjectId : link_;
  }
  uint64_t count() const { return count_; }
  /// Encoded size: the page's flush/logging footprint.
  size_t size() const { return bytes_.size(); }
  Slice bytes() const { return bytes_; }
  Cursor entries() const;

  /// Encoded size after LeafPut(key, value) of a value of `value_size`
  /// bytes, where `hit` is this page's search for `key`.
  size_t SizeAfterLeafPut(const PageSearch& hit, uint64_t key,
                          size_t value_size) const;

  std::string DebugString() const;

  /// A leaf with no entries and no right sibling.
  static ObjectValue EmptyLeaf();
  /// An internal page over two children split at `separator`.
  static ObjectValue NewRoot(ObjectId left, uint64_t separator,
                             ObjectId right);

  // In-place edits: each splices only the bytes that change and rewrites
  // the count varint. `value` must not point into `page`.

  /// Leaf: inserts key -> value in key order, or overwrites the value of
  /// an existing key. InvalidArgument on an internal page.
  static Status LeafPut(ObjectValue* page, uint64_t key, Slice value);
  /// Leaf: removes `key` if present (*erased says whether it was); no-op
  /// on an internal page.
  static Status LeafErase(ObjectValue* page, uint64_t key, bool* erased);
  /// Internal: inserts a separator/child pair before the first separator
  /// >= key. InvalidArgument on a leaf.
  static Status InternalInsert(ObjectValue* page, uint64_t key,
                               ObjectId child);
  /// Internal: removes the first entry pointing at `child` (no-op if none
  /// does, or on a leaf).
  static Status InternalEraseChild(ObjectValue* page, ObjectId child);

  /// Cuts a page's n entries at n/2 by byte range; deterministic in the
  /// page bytes — the property that makes logical split logging
  /// replayable. A leaf keeps entries [0, n/2) chained to `right_id`; the
  /// right page gets [n/2, n) and the old right sibling, and the
  /// separator is its first key. An internal page keeps [0, n/2); entry
  /// n/2's key moves up as the separator and its child becomes the right
  /// page's first child, ahead of entries (n/2, n). InvalidArgument on a
  /// page with no entries.
  static Status Split(Slice page, ObjectId right_id, ObjectValue* left,
                      ObjectValue* right, uint64_t* separator);
  /// Leaf merge: `left`'s entries then `right`'s, chained to `right`'s
  /// right sibling. InvalidArgument unless both are leaves.
  static Status MergeLeaves(Slice left, Slice right, ObjectValue* out);

 private:
  friend class PageIndex;

  /// Parse and, when `hit` is non-null, Search for `key`; when `index` is
  /// non-null, also record every entry into it.
  static Status Walk(Slice bytes, uint64_t key, BtreePage* out,
                     PageSearch* hit, PageIndex* index);

  Slice bytes_;
  bool is_leaf_ = true;
  ObjectId link_ = kInvalidObjectId;  // next_leaf or first_child
  uint64_t count_ = 0;
  size_t count_begin_ = 0;  // byte range of the count varint
  size_t count_end_ = 0;
  size_t entries_begin_ = 0;
};

/// \brief The entries of one validated page version, kept so that later
/// searches of the same bytes cost a binary search instead of a walk.
///
/// Build() is BtreePage::Search — the full validating walk, and the same
/// answer — that also records each entry's key, byte offset and second
/// field (child id or value length). Search() then answers any key for
/// those same bytes with exactly the BtreePage and PageSearch the walk
/// would return. Only pages whose keys are non-decreasing become
/// searchable(): the walk does not check order, and on unsorted keys a
/// binary search would not give the walk's answer. Whoever keeps an index
/// must make sure the bytes have not changed since Build (Btree keys it
/// by the cache's version stamp).
///
/// With LOGLOG_PAGE_INDEX_CROSSCHECK defined (sanitizer builds), every
/// Search also runs the walk and aborts on any difference.
class PageIndex {
 public:
  /// BtreePage::Search(bytes, key, out, hit), or Parse when `hit` is
  /// null, recording the entries. On error the index is not searchable.
  Status Build(Slice bytes, uint64_t key, BtreePage* out, PageSearch* hit);
  /// The last Build succeeded on a page with non-decreasing keys.
  bool searchable() const { return searchable_; }
  /// Search (or Parse, when `hit` is null) of the bytes the index was
  /// built from. Requires searchable().
  void Search(Slice bytes, uint64_t key, BtreePage* out,
              PageSearch* hit) const;

 private:
  friend class BtreePage;

  void Lookup(Slice bytes, uint64_t key, BtreePage* out,
              PageSearch* hit) const;

  BtreePage header_;
  bool searchable_ = false;
  // Entry i: key, byte offset within the page, and child id (internal)
  // or value length (leaf).
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<uint64_t> seconds_;
};

}  // namespace loglog

#endif  // LOGLOG_DOMAINS_BTREE_BTREE_PAGE_H_
