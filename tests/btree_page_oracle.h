#ifndef LOGLOG_TESTS_BTREE_PAGE_ORACLE_H_
#define LOGLOG_TESTS_BTREE_PAGE_ORACLE_H_

// Reference model of a B+-tree page for the page-code tests: the page
// decoded into sorted entry vectors, edited there, and encoded back. The
// library works on the encoding directly (domains/btree/btree_page.h);
// every in-place edit, search and size it computes must equal what this
// model gives for the same page, byte for byte.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace loglog {

struct ReferencePage {
  struct LeafEntry {
    uint64_t key = 0;
    std::vector<uint8_t> value;
  };
  struct InternalEntry {
    uint64_t key = 0;  // separator: child covers keys >= key
    ObjectId child = kInvalidObjectId;
  };

  bool is_leaf = true;
  std::vector<LeafEntry> leaf_entries;
  ObjectId next_leaf = kInvalidObjectId;
  ObjectId first_child = kInvalidObjectId;  // internal pages only
  std::vector<InternalEntry> internal_entries;

  size_t EntryCount() const {
    return is_leaf ? leaf_entries.size() : internal_entries.size();
  }

  ObjectId ChildFor(uint64_t key) const {
    ObjectId child = first_child;
    for (const InternalEntry& e : internal_entries) {
      if (key >= e.key) {
        child = e.child;
      } else {
        break;
      }
    }
    return child;
  }

  void LeafInsert(uint64_t key, Slice value) {
    auto it = LeafLowerBound(key);
    if (it != leaf_entries.end() && it->key == key) {
      it->value = value.ToBytes();
      return;
    }
    leaf_entries.insert(it, LeafEntry{key, value.ToBytes()});
  }

  Status LeafLookup(uint64_t key, std::vector<uint8_t>* out) const {
    auto it = std::lower_bound(
        leaf_entries.begin(), leaf_entries.end(), key,
        [](const LeafEntry& e, uint64_t k) { return e.key < k; });
    if (it == leaf_entries.end() || it->key != key) {
      return Status::NotFound("key not in leaf");
    }
    *out = it->value;
    return Status::OK();
  }

  bool LeafErase(uint64_t key) {
    auto it = LeafLowerBound(key);
    if (it == leaf_entries.end() || it->key != key) return false;
    leaf_entries.erase(it);
    return true;
  }

  void InternalInsert(uint64_t key, ObjectId child) {
    auto it = std::lower_bound(
        internal_entries.begin(), internal_entries.end(), key,
        [](const InternalEntry& e, uint64_t k) { return e.key < k; });
    internal_entries.insert(it, InternalEntry{key, child});
  }

  /// Splits off the upper half into `right`; returns the separator.
  uint64_t SplitInto(ReferencePage* right) {
    right->is_leaf = is_leaf;
    if (is_leaf) {
      size_t mid = leaf_entries.size() / 2;
      right->leaf_entries.assign(leaf_entries.begin() + mid,
                                 leaf_entries.end());
      leaf_entries.resize(mid);
      return right->leaf_entries.front().key;
    }
    size_t mid = internal_entries.size() / 2;
    uint64_t up_key = internal_entries[mid].key;
    right->first_child = internal_entries[mid].child;
    right->internal_entries.assign(internal_entries.begin() + mid + 1,
                                   internal_entries.end());
    internal_entries.resize(mid);
    return up_key;
  }

  ObjectValue Serialize() const {
    ObjectValue out;
    out.push_back(is_leaf ? 1 : 0);
    if (is_leaf) {
      PutVarint64(&out, next_leaf);
      PutVarint64(&out, leaf_entries.size());
      for (const LeafEntry& e : leaf_entries) {
        PutVarint64(&out, e.key);
        PutLengthPrefixed(&out, Slice(e.value));
      }
    } else {
      PutVarint64(&out, internal_entries.size());
      PutVarint64(&out, first_child);
      for (const InternalEntry& e : internal_entries) {
        PutVarint64(&out, e.key);
        PutVarint64(&out, e.child);
      }
    }
    return out;
  }

  static Status Deserialize(Slice bytes, ReferencePage* out) {
    *out = ReferencePage();
    if (bytes.empty()) return Status::Corruption("empty page");
    out->is_leaf = bytes[0] != 0;
    bytes.RemovePrefix(1);
    if (out->is_leaf) {
      LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &out->next_leaf));
    }
    uint64_t n;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &n));
    if (n > bytes.size()) return Status::Corruption("entry count too large");
    if (out->is_leaf) {
      out->leaf_entries.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        LeafEntry e;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &e.key));
        Slice v;
        LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(&bytes, &v));
        e.value = v.ToBytes();
        out->leaf_entries.push_back(std::move(e));
      }
    } else {
      LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &out->first_child));
      out->internal_entries.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        InternalEntry e;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &e.key));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &e.child));
        out->internal_entries.push_back(e);
      }
    }
    if (!bytes.empty()) return Status::Corruption("trailing page bytes");
    return Status::OK();
  }

 private:
  std::vector<LeafEntry>::iterator LeafLowerBound(uint64_t key) {
    return std::lower_bound(
        leaf_entries.begin(), leaf_entries.end(), key,
        [](const LeafEntry& e, uint64_t k) { return e.key < k; });
  }
};

/// Serialized size of a reference page.
inline size_t ReferencePageBytes(const ReferencePage& page) {
  return page.Serialize().size();
}

}  // namespace loglog

#endif  // LOGLOG_TESTS_BTREE_PAGE_ORACLE_H_
