#include "domains/btree/btree_page.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/coding.h"

namespace loglog {

namespace {

constexpr size_t kMaxVarintBytes = 10;

Status BadVarint() {
  return Status::Corruption("truncated or overlong varint64");
}

/// Resizes page bytes [off, off + old_len) to `new_len` bytes, moving the
/// tail, and returns where they start.
uint8_t* Resize(ObjectValue* page, size_t off, size_t old_len,
                size_t new_len) {
  if (new_len > old_len) {
    page->insert(page->begin() + static_cast<ptrdiff_t>(off + old_len),
                 new_len - old_len, uint8_t{0});
  } else if (new_len < old_len) {
    page->erase(page->begin() + static_cast<ptrdiff_t>(off + new_len),
                page->begin() + static_cast<ptrdiff_t>(off + old_len));
  }
  return page->data() + off;
}

/// Rewrites the varint at page bytes [begin, end) as `v`.
void SpliceVarint(ObjectValue* page, size_t begin, size_t end, uint64_t v) {
  EncodeVarint64(Resize(page, begin, end - begin, VarintLength(v)), v);
}

/// Replaces `out` with a page header; the caller appends the entries.
void StartPage(ObjectValue* out, bool leaf, ObjectId link, uint64_t n,
               size_t entry_bytes) {
  out->clear();
  out->reserve(1 + 2 * kMaxVarintBytes + entry_bytes);
  out->push_back(leaf ? 1 : 0);
  if (leaf) {
    PutVarint64(out, link);
    PutVarint64(out, n);
  } else {
    PutVarint64(out, n);
    PutVarint64(out, link);
  }
}

void AppendBytes(ObjectValue* out, const uint8_t* begin, const uint8_t* end) {
  out->insert(out->end(), begin, end);
}

}  // namespace

Status BtreePage::Walk(Slice bytes, uint64_t key, BtreePage* out,
                       PageSearch* hit, PageIndex* index) {
  if (index != nullptr) index->searchable_ = false;
  if (bytes.empty()) return Status::Corruption("empty page");
  const uint8_t* const base = bytes.data();
  const uint8_t* const limit = base + bytes.size();
  const uint8_t* p = base + 1;
  BtreePage page;
  page.bytes_ = bytes;
  page.is_leaf_ = base[0] != 0;
  if (page.is_leaf_ &&
      (p = DecodeVarint64(p, limit, &page.link_)) == nullptr) {
    return BadVarint();
  }
  page.count_begin_ = static_cast<size_t>(p - base);
  if ((p = DecodeVarint64(p, limit, &page.count_)) == nullptr) {
    return BadVarint();
  }
  page.count_end_ = static_cast<size_t>(p - base);
  if (page.count_ > static_cast<uint64_t>(limit - p)) {
    return Status::Corruption("entry count too large");
  }
  if (!page.is_leaf_ &&
      (p = DecodeVarint64(p, limit, &page.link_)) == nullptr) {
    return BadVarint();
  }
  page.entries_begin_ = static_cast<size_t>(p - base);

  // The search rides along the validating pass: `placed` once the first
  // entry with key >= `key` is seen, `descending` while internal
  // separators are still <= `key`.
  bool placed = hit == nullptr;
  bool descending = hit != nullptr && !page.is_leaf_;
  if (hit != nullptr) *hit = PageSearch();
  ObjectId child = page.link_;
  // The index records entries in page order and notes whether their keys
  // ever descend.
  uint64_t* keys = nullptr;
  uint32_t* offsets = nullptr;
  uint64_t* seconds = nullptr;
  if (index != nullptr) {
    index->keys_.resize(page.count_);
    index->offsets_.resize(page.count_);
    index->seconds_.resize(page.count_);
    keys = index->keys_.data();
    offsets = index->offsets_.data();
    seconds = index->seconds_.data();
  }
  bool sorted = true;
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < page.count_; ++i) {
    const uint8_t* const entry = p;
    uint64_t k = 0;
    uint64_t second = 0;  // value length (leaf) or child (internal)
    if ((p = DecodeVarint64(p, limit, &k)) == nullptr ||
        (p = DecodeVarint64(p, limit, &second)) == nullptr) {
      return BadVarint();
    }
    const uint8_t* const value = p;
    if (keys != nullptr) {
      keys[i] = k;
      offsets[i] = static_cast<uint32_t>(entry - base);
      seconds[i] = second;
      sorted &= k >= prev_key;
      prev_key = k;
    }
    if (page.is_leaf_) {
      if (second > static_cast<uint64_t>(limit - p)) {
        return Status::Corruption("truncated length-prefixed value");
      }
      p += second;
    } else if (descending) {
      if (key >= k) {
        child = second;
      } else {
        descending = false;
      }
    }
    if (!placed && k >= key) {
      placed = true;
      hit->found = k == key;
      hit->begin = static_cast<size_t>(entry - base);
      hit->end = hit->found ? static_cast<size_t>(p - base) : hit->begin;
      if (hit->found && page.is_leaf_) hit->value = Slice(value, second);
    }
  }
  if (p != limit) return Status::Corruption("trailing page bytes");
  if (hit != nullptr) {
    if (!placed) hit->begin = hit->end = bytes.size();
    if (!page.is_leaf_) hit->child = child;
  }
  if (index != nullptr) {
    index->header_ = page;
    // Offsets are 32-bit; a larger page is simply always walked.
    index->searchable_ = sorted && bytes.size() <= UINT32_MAX;
  }
  *out = page;
  return Status::OK();
}

Status BtreePage::Parse(Slice bytes, BtreePage* out) {
  return Walk(bytes, 0, out, nullptr, nullptr);
}

Status BtreePage::Search(Slice bytes, uint64_t key, BtreePage* out,
                         PageSearch* hit) {
  return Walk(bytes, key, out, hit, nullptr);
}

Status PageIndex::Build(Slice bytes, uint64_t key, BtreePage* out,
                        PageSearch* hit) {
  return BtreePage::Walk(bytes, key, out, hit, this);
}

void PageIndex::Search(Slice bytes, uint64_t key, BtreePage* out,
                       PageSearch* hit) const {
  Lookup(bytes, key, out, hit);
#ifdef LOGLOG_PAGE_INDEX_CROSSCHECK
  BtreePage walked;
  PageSearch walked_hit;
  const Status st = BtreePage::Walk(
      bytes, key, &walked, hit != nullptr ? &walked_hit : nullptr, nullptr);
  auto same_slice = [](Slice a, Slice b) {
    return a.data() == b.data() && a.size() == b.size();
  };
  bool same = st.ok() && same_slice(walked.bytes_, out->bytes_) &&
              walked.is_leaf_ == out->is_leaf_ &&
              walked.link_ == out->link_ && walked.count_ == out->count_ &&
              walked.count_begin_ == out->count_begin_ &&
              walked.count_end_ == out->count_end_ &&
              walked.entries_begin_ == out->entries_begin_;
  if (hit != nullptr) {
    same = same && walked_hit.begin == hit->begin &&
           walked_hit.found == hit->found && walked_hit.end == hit->end &&
           same_slice(walked_hit.value, hit->value) &&
           walked_hit.child == hit->child;
  }
  if (!same) {
    std::fprintf(stderr,
                 "PageIndex::Search disagrees with the page walk for key "
                 "%llu on %s\n",
                 static_cast<unsigned long long>(key),
                 st.ok() ? walked.DebugString().c_str()
                         : st.ToString().c_str());
    std::abort();
  }
#endif
}

void PageIndex::Lookup(Slice bytes, uint64_t key, BtreePage* out,
                       PageSearch* hit) const {
  *out = header_;
  out->bytes_ = bytes;
  if (hit == nullptr) return;
  *hit = PageSearch();
  const auto first = keys_.begin();
  const auto last = keys_.end();
  // The walk places the key at the first entry >= it ...
  const auto at = std::lower_bound(first, last, key);
  const size_t i = static_cast<size_t>(at - first);
  if (at == last) {
    hit->begin = hit->end = bytes.size();
  } else {
    hit->begin = offsets_[i];
    hit->found = *at == key;
    hit->end = hit->begin;
    if (hit->found) {
      hit->end = i + 1 < keys_.size() ? offsets_[i + 1] : bytes.size();
      if (header_.is_leaf_) {
        hit->value = Slice(bytes.data() + hit->end - seconds_[i],
                           static_cast<size_t>(seconds_[i]));
      }
    }
  }
  // ... and descends into the child of the last separator <= it.
  if (!header_.is_leaf_) {
    const auto above = hit->found ? std::upper_bound(at, last, key) : at;
    hit->child = above == first
                     ? header_.link_
                     : seconds_[static_cast<size_t>(above - first) - 1];
  }
}

bool BtreePage::Cursor::Next(PageEntry* e) {
  if (remaining_ == 0) return false;
  uint64_t second = 0;
  const uint8_t* p = DecodeVarint64(p_, limit_, &e->key);
  if (p != nullptr) p = DecodeVarint64(p, limit_, &second);
  if (p == nullptr ||
      (is_leaf_ && second > static_cast<uint64_t>(limit_ - p))) {
    remaining_ = 0;  // unreachable on a validated page
    return false;
  }
  if (is_leaf_) {
    e->child = kInvalidObjectId;
    e->value = Slice(p, second);
    p += second;
  } else {
    e->child = second;
    e->value = Slice();
  }
  p_ = p;
  --remaining_;
  return true;
}

BtreePage::Cursor BtreePage::entries() const {
  Cursor c;
  c.base_ = bytes_.data();
  c.p_ = c.base_ + entries_begin_;
  c.limit_ = c.base_ + bytes_.size();
  c.remaining_ = count_;
  c.is_leaf_ = is_leaf_;
  return c;
}

size_t BtreePage::SizeAfterLeafPut(const PageSearch& hit, uint64_t key,
                                   size_t value_size) const {
  size_t size = bytes_.size() - (hit.end - hit.begin) + VarintLength(key) +
                VarintLength(value_size) + value_size;
  if (!hit.found) {
    size = size - (count_end_ - count_begin_) + VarintLength(count_ + 1);
  }
  return size;
}

std::string BtreePage::DebugString() const {
  std::string out = is_leaf_ ? "leaf{" : "internal{";
  if (!is_leaf_) out += "first=" + std::to_string(link_) + " ";
  PageEntry e;
  for (Cursor c = entries(); c.Next(&e);) {
    out += std::to_string(e.key);
    if (!is_leaf_) out += "->" + std::to_string(e.child);
    out += ",";
  }
  out += "}";
  return out;
}

ObjectValue BtreePage::EmptyLeaf() {
  ObjectValue out;
  StartPage(&out, /*leaf=*/true, kInvalidObjectId, 0, 0);
  return out;
}

ObjectValue BtreePage::NewRoot(ObjectId left, uint64_t separator,
                               ObjectId right) {
  ObjectValue out;
  StartPage(&out, /*leaf=*/false, left, 1, 2 * kMaxVarintBytes);
  PutVarint64(&out, separator);
  PutVarint64(&out, right);
  return out;
}

Status BtreePage::LeafPut(ObjectValue* page, uint64_t key, Slice value) {
  BtreePage view;
  PageSearch hit;
  LOGLOG_RETURN_IF_ERROR(Search(Slice(*page), key, &view, &hit));
  if (!view.is_leaf_) return Status::InvalidArgument("not a leaf");
  const size_t entry =
      VarintLength(key) + VarintLength(value.size()) + value.size();
  uint8_t* dst = Resize(page, hit.begin, hit.end - hit.begin, entry);
  EncodeLengthPrefixed(EncodeVarint64(dst, key), value);
  if (!hit.found) {
    SpliceVarint(page, view.count_begin_, view.count_end_, view.count_ + 1);
  }
  return Status::OK();
}

Status BtreePage::LeafErase(ObjectValue* page, uint64_t key, bool* erased) {
  BtreePage view;
  PageSearch hit;
  LOGLOG_RETURN_IF_ERROR(Search(Slice(*page), key, &view, &hit));
  *erased = view.is_leaf_ && hit.found;
  if (!*erased) return Status::OK();
  Resize(page, hit.begin, hit.end - hit.begin, 0);
  SpliceVarint(page, view.count_begin_, view.count_end_, view.count_ - 1);
  return Status::OK();
}

Status BtreePage::InternalInsert(ObjectValue* page, uint64_t key,
                                 ObjectId child) {
  BtreePage view;
  PageSearch hit;
  LOGLOG_RETURN_IF_ERROR(Search(Slice(*page), key, &view, &hit));
  if (view.is_leaf_) return Status::InvalidArgument("not internal");
  uint8_t* dst =
      Resize(page, hit.begin, 0, VarintLength(key) + VarintLength(child));
  EncodeVarint64(EncodeVarint64(dst, key), child);
  SpliceVarint(page, view.count_begin_, view.count_end_, view.count_ + 1);
  return Status::OK();
}

Status BtreePage::InternalEraseChild(ObjectValue* page, ObjectId child) {
  BtreePage view;
  LOGLOG_RETURN_IF_ERROR(Parse(Slice(*page), &view));
  if (view.is_leaf_) return Status::OK();
  PageEntry e;
  Cursor c = view.entries();
  for (size_t begin = c.offset(); c.Next(&e); begin = c.offset()) {
    if (e.child != child) continue;
    Resize(page, begin, c.offset() - begin, 0);
    SpliceVarint(page, view.count_begin_, view.count_end_, view.count_ - 1);
    return Status::OK();
  }
  return Status::OK();
}

Status BtreePage::Split(Slice page, ObjectId right_id, ObjectValue* left,
                        ObjectValue* right, uint64_t* separator) {
  BtreePage view;
  LOGLOG_RETURN_IF_ERROR(Parse(page, &view));
  if (view.count_ == 0) {
    return Status::InvalidArgument("split of a page with no entries");
  }
  const uint64_t n = view.count_;
  const uint64_t mid = n / 2;
  Cursor c = view.entries();
  PageEntry e;
  for (uint64_t i = 0; i < mid; ++i) c.Next(&e);
  const uint8_t* const base = page.data();
  const uint8_t* const first = base + view.entries_begin_;
  const uint8_t* const cut = base + c.offset();
  const uint8_t* const end = base + page.size();
  c.Next(&e);  // entry `mid`
  *separator = e.key;
  if (view.is_leaf_) {
    StartPage(left, true, right_id, mid, static_cast<size_t>(cut - first));
    AppendBytes(left, first, cut);
    StartPage(right, true, view.link_, n - mid,
              static_cast<size_t>(end - cut));
    AppendBytes(right, cut, end);
    return Status::OK();
  }
  const uint8_t* const after_mid = base + c.offset();
  StartPage(left, false, view.link_, mid, static_cast<size_t>(cut - first));
  AppendBytes(left, first, cut);
  StartPage(right, false, e.child, n - mid - 1,
            static_cast<size_t>(end - after_mid));
  AppendBytes(right, after_mid, end);
  return Status::OK();
}

Status BtreePage::MergeLeaves(Slice left, Slice right, ObjectValue* out) {
  BtreePage l, r;
  LOGLOG_RETURN_IF_ERROR(Parse(left, &l));
  LOGLOG_RETURN_IF_ERROR(Parse(right, &r));
  if (!l.is_leaf_ || !r.is_leaf_) {
    return Status::InvalidArgument("merge of non-leaves");
  }
  const uint8_t* const l_first = left.data() + l.entries_begin_;
  const uint8_t* const l_end = left.data() + left.size();
  const uint8_t* const r_first = right.data() + r.entries_begin_;
  const uint8_t* const r_end = right.data() + right.size();
  StartPage(out, true, r.link_, l.count_ + r.count_,
            static_cast<size_t>((l_end - l_first) + (r_end - r_first)));
  AppendBytes(out, l_first, l_end);
  AppendBytes(out, r_first, r_end);
  return Status::OK();
}

}  // namespace loglog
