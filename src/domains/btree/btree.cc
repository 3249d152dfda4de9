#include "domains/btree/btree.h"

#include <algorithm>

#include "common/coding.h"
#include "ops/function_registry.h"
#include "ops/inverse_registry.h"
#include "ops/op_builder.h"

namespace loglog {

namespace {

struct Meta {
  ObjectId root = kInvalidObjectId;
  ObjectId next_page = kInvalidObjectId;
  std::set<ObjectId> free_list;
};

ObjectValue SerializeMeta(const Meta& meta) {
  ObjectValue out;
  PutVarint64(&out, meta.root);
  PutVarint64(&out, meta.next_page);
  PutVarint64(&out, meta.free_list.size());
  for (ObjectId id : meta.free_list) PutVarint64(&out, id);
  return out;
}

Status DeserializeMeta(Slice bytes, Meta* meta) {
  meta->free_list.clear();
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &meta->root));
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &meta->next_page));
  uint64_t n;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &n));
  for (uint64_t i = 0; i < n; ++i) {
    ObjectId id;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(&bytes, &id));
    meta->free_list.insert(id);
  }
  return Status::OK();
}

// Marks `id` allocated in `meta` (whether it came from the free list or
// from the frontier). Shared by the split transforms and the tree.
void MetaAllocate(Meta* meta, ObjectId id) {
  meta->free_list.erase(id);
  meta->next_page = std::max(meta->next_page, id + 1);
}

// params: varint key, length-prefixed value. Physiological leaf insert.
Status InsertLeafFn(const OperationDesc& op,
                    const std::vector<ObjectValue>& /*reads*/,
                    std::vector<ObjectValue>* writes) {
  Slice p(op.params);
  uint64_t key;
  Slice value;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&p, &key));
  LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(&p, &value));
  return BtreePage::LeafPut(&(*writes)[0], key, value);
}

// params: varint key, varint child. Physiological internal insert (used
// by the physiological split baseline).
Status InsertInternalFn(const OperationDesc& op,
                        const std::vector<ObjectValue>& /*reads*/,
                        std::vector<ObjectValue>* writes) {
  Slice p(op.params);
  uint64_t key, child;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&p, &key));
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&p, &child));
  return BtreePage::InternalInsert(&(*writes)[0], key, child);
}

// Logical split as ONE atomic operation covering the whole structure
// modification: writes {old, new, parent, meta}, reads {old, parent,
// meta}. The midpoint rule is deterministic in the old page's contents,
// so nothing is logged beyond the object identifiers — neither page
// image reaches the log, and a crash can never tear the split apart.
Status SplitFn(const OperationDesc& op,
               const std::vector<ObjectValue>& reads,
               std::vector<ObjectValue>* writes) {
  ObjectId new_id = op.writes[1];
  Meta meta;
  LOGLOG_RETURN_IF_ERROR(DeserializeMeta(Slice(reads[2]), &meta));
  uint64_t separator = 0;
  LOGLOG_RETURN_IF_ERROR(BtreePage::Split(Slice(reads[0]), new_id,
                                          &(*writes)[0], &(*writes)[1],
                                          &separator));
  (*writes)[2] = reads[1];
  LOGLOG_RETURN_IF_ERROR(
      BtreePage::InternalInsert(&(*writes)[2], separator, new_id));
  MetaAllocate(&meta, new_id);
  (*writes)[3] = SerializeMeta(meta);
  return Status::OK();
}

// Root split: writes {old, new, new_root, meta}, reads {old, meta}.
Status RootSplitFn(const OperationDesc& op,
                   const std::vector<ObjectValue>& reads,
                   std::vector<ObjectValue>* writes) {
  ObjectId new_id = op.writes[1];
  ObjectId new_root_id = op.writes[2];
  Meta meta;
  LOGLOG_RETURN_IF_ERROR(DeserializeMeta(Slice(reads[1]), &meta));
  uint64_t separator = 0;
  LOGLOG_RETURN_IF_ERROR(BtreePage::Split(Slice(reads[0]), new_id,
                                          &(*writes)[0], &(*writes)[1],
                                          &separator));
  (*writes)[2] = BtreePage::NewRoot(op.writes[0], separator, new_id);
  meta.root = new_root_id;
  MetaAllocate(&meta, new_id);
  MetaAllocate(&meta, new_root_id);
  (*writes)[3] = SerializeMeta(meta);
  return Status::OK();
}

// Physiological baseline for the old page: keep only the lower half
// (same midpoint rule, logged as a tiny delta). The new page is written
// physically by the tree. params: varint new page id (for leaf chaining).
Status TruncateFn(const OperationDesc& op,
                  const std::vector<ObjectValue>& /*reads*/,
                  std::vector<ObjectValue>* writes) {
  Slice p(op.params);
  uint64_t new_id;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&p, &new_id));
  ObjectValue left, right;  // the right half is discarded
  uint64_t separator = 0;
  LOGLOG_RETURN_IF_ERROR(BtreePage::Split(Slice((*writes)[0]), new_id,
                                          &left, &right, &separator));
  (*writes)[0] = std::move(left);
  return Status::OK();
}

// params: varint key. Physiological leaf erase.
Status EraseLeafFn(const OperationDesc& op,
                   const std::vector<ObjectValue>& /*reads*/,
                   std::vector<ObjectValue>* writes) {
  Slice p(op.params);
  uint64_t key;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(&p, &key));
  bool erased = false;
  return BtreePage::LeafErase(&(*writes)[0], key, &erased);
}

// Leaf merge as ONE atomic operation: writes {left, right, parent,
// meta}, reads the same. Left absorbs right; right becomes an empty page
// on the free list; the parent drops the separator pointing at right.
Status MergeLeavesFn(const OperationDesc& op,
                     const std::vector<ObjectValue>& reads,
                     std::vector<ObjectValue>* writes) {
  ObjectId right_id = op.writes[1];
  Meta meta;
  LOGLOG_RETURN_IF_ERROR(DeserializeMeta(Slice(reads[3]), &meta));
  LOGLOG_RETURN_IF_ERROR(BtreePage::MergeLeaves(Slice(reads[0]),
                                                Slice(reads[1]),
                                                &(*writes)[0]));
  (*writes)[1] = BtreePage::EmptyLeaf();  // placeholder on the free list
  (*writes)[2] = reads[2];
  LOGLOG_RETURN_IF_ERROR(
      BtreePage::InternalEraseChild(&(*writes)[2], right_id));
  meta.free_list.insert(right_id);
  (*writes)[3] = SerializeMeta(meta);
  return Status::OK();
}

// Root collapse: writes {root_page, meta}, reads the same. When the root
// is an internal page with no separators left, its single child becomes
// the root and the old root page is freed.
Status CollapseRootFn(const OperationDesc& op,
                      const std::vector<ObjectValue>& reads,
                      std::vector<ObjectValue>* writes) {
  ObjectId root_id = op.writes[0];
  BtreePage root;
  LOGLOG_RETURN_IF_ERROR(BtreePage::Parse(Slice(reads[0]), &root));
  Meta meta;
  LOGLOG_RETURN_IF_ERROR(DeserializeMeta(Slice(reads[1]), &meta));
  if (root.is_leaf() || root.count() != 0) {
    return Status::FailedPrecondition("root not collapsible");
  }
  meta.root = root.first_child();
  meta.free_list.insert(root_id);
  (*writes)[0] = BtreePage::EmptyLeaf();
  (*writes)[1] = SerializeMeta(meta);
  return Status::OK();
}

OperationDesc MakeLeafInsertOp(ObjectId page, uint64_t key, Slice value) {
  OperationDesc op;
  op.op_class = OpClass::kPhysiological;
  op.func = kFuncBtreeInsertLeaf;
  op.writes = {page};
  op.reads = {page};
  PutVarint64(&op.params, key);
  PutLengthPrefixed(&op.params, value);
  return op;
}

OperationDesc MakeInternalInsertOp(ObjectId page, uint64_t key,
                                   ObjectId child) {
  OperationDesc op;
  op.op_class = OpClass::kPhysiological;
  op.func = kFuncBtreeInsertInternal;
  op.writes = {page};
  op.reads = {page};
  PutVarint64(&op.params, key);
  PutVarint64(&op.params, child);
  return op;
}

OperationDesc MakeSplitOp(ObjectId old_page, ObjectId new_page,
                          ObjectId parent, ObjectId meta) {
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kFuncBtreeSplit;
  op.writes = {old_page, new_page, parent, meta};
  op.reads = {old_page, parent, meta};
  return op;
}

OperationDesc MakeRootSplitOp(ObjectId old_page, ObjectId new_page,
                              ObjectId new_root, ObjectId meta) {
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kFuncBtreeRootSplit;
  op.writes = {old_page, new_page, new_root, meta};
  op.reads = {old_page, meta};
  return op;
}

OperationDesc MakeTruncateOp(ObjectId page, ObjectId new_id) {
  OperationDesc op;
  op.op_class = OpClass::kPhysiological;
  op.func = kFuncBtreeTruncate;
  op.writes = {page};
  op.reads = {page};
  PutVarint64(&op.params, new_id);
  return op;
}

OperationDesc MakeEraseLeafOp(ObjectId page, uint64_t key) {
  OperationDesc op;
  op.op_class = OpClass::kPhysiological;
  op.func = kFuncBtreeEraseLeaf;
  op.writes = {page};
  op.reads = {page};
  PutVarint64(&op.params, key);
  return op;
}

OperationDesc MakeMergeOp(ObjectId left, ObjectId right, ObjectId parent,
                          ObjectId meta) {
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kFuncBtreeMergeLeaves;
  op.writes = {left, right, parent, meta};
  op.reads = {left, right, parent, meta};
  return op;
}

OperationDesc MakeCollapseRootOp(ObjectId root, ObjectId meta) {
  OperationDesc op;
  op.op_class = OpClass::kLogical;
  op.func = kFuncBtreeCollapseRoot;
  op.writes = {root, meta};
  op.reads = {root, meta};
  return op;
}

}  // namespace

void RegisterBtreeTransforms() {
  FunctionRegistry& reg = FunctionRegistry::Global();
  reg.Register(kFuncBtreeInsertLeaf, InsertLeafFn);
  reg.Register(kFuncBtreeInsertInternal, InsertInternalFn);
  reg.Register(kFuncBtreeSplit, SplitFn);
  reg.Register(kFuncBtreeRootSplit, RootSplitFn);
  reg.Register(kFuncBtreeTruncate, TruncateFn);
  reg.Register(kFuncBtreeEraseLeaf, EraseLeafFn);
  reg.Register(kFuncBtreeMergeLeaves, MergeLeavesFn);
  reg.Register(kFuncBtreeCollapseRoot, CollapseRootFn);

  // Compensation: a leaf insert of a *fresh* key is exactly inverted by
  // erasing the key (a page has one canonical encoding, sorted by key). An
  // insert that replaced an existing value is not — erase would lose the
  // old value — so invertible() checks the pre-image page and the engine
  // falls back to logging a physical before-image in that case.
  InverseEntry insert_inverse;
  insert_inverse.invertible = [](const OperationDesc& op,
                                 const std::vector<bool>& old_exists,
                                 const std::vector<ObjectValue>& old_values) {
    if (op.writes.size() != 1 || !old_exists[0]) return false;
    Slice p(op.params);
    uint64_t key;
    if (!GetVarint64(&p, &key).ok()) return false;
    BtreePage page;
    PageSearch hit;
    if (!BtreePage::Search(Slice(old_values[0]), key, &page, &hit).ok()) {
      return false;
    }
    return page.is_leaf() && !hit.found;
  };
  insert_inverse.build = [](const OperationDesc& op, OperationDesc* inv) {
    Slice p(op.params);
    uint64_t key;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(&p, &key));
    *inv = op;
    inv->func = kFuncBtreeEraseLeaf;
    inv->params.clear();
    PutVarint64(&inv->params, key);
    return Status::OK();
  };
  InverseRegistry::Global().Register(kFuncBtreeInsertLeaf, insert_inverse);
}

Btree::Btree(RecoveryEngine* engine, const BtreeOptions& options)
    : engine_(engine),
      options_(options),
      meta_id_(options.id_base),
      page_index_(kIndexSlots) {
  RegisterBtreeTransforms();
}

Status Btree::Open() {
  if (engine_->Exists(meta_id_)) return LoadMeta();
  root_ = options_.id_base + 1;
  next_page_ = options_.id_base + 2;
  free_list_.clear();
  LOGLOG_RETURN_IF_ERROR(
      engine_->Execute(MakeCreate(root_, Slice(BtreePage::EmptyLeaf()))));
  return WriteMeta();
}

Status Btree::LoadMeta() {
  ObjectValue bytes;
  LOGLOG_RETURN_IF_ERROR(engine_->Read(meta_id_, &bytes));
  Meta meta;
  LOGLOG_RETURN_IF_ERROR(DeserializeMeta(Slice(bytes), &meta));
  root_ = meta.root;
  next_page_ = meta.next_page;
  free_list_ = std::move(meta.free_list);
  return Status::OK();
}

Status Btree::WriteMeta() {
  Meta meta;
  meta.root = root_;
  meta.next_page = next_page_;
  meta.free_list = free_list_;
  return engine_->Execute(
      MakePhysicalWrite(meta_id_, Slice(SerializeMeta(meta))));
}

Status Btree::ReadPage(ObjectId id, BtreePage* out) {
  return SearchPage(id, 0, out, nullptr);
}

Status Btree::SearchPage(ObjectId id, uint64_t key, BtreePage* out,
                         PageSearch* hit) {
  Slice bytes;
  uint64_t stamp = 0;
  LOGLOG_RETURN_IF_ERROR(engine_->ReadView(id, &bytes, &stamp));
  // Only internal pages are indexed: a leaf version is rarely read twice
  // (an insert replaces the version it searched). The kind byte only
  // picks the path; the walk validates it.
  if (bytes.empty() || bytes[0] != 0) {
    ++stats_.page_walks;
    return hit != nullptr ? BtreePage::Search(bytes, key, out, hit)
                          : BtreePage::Parse(bytes, out);
  }
  IndexedPage& slot = page_index_[id % kIndexSlots];
  if (slot.id == id && slot.stamp == stamp) {
    ++stats_.page_index_hits;
    slot.index.Search(bytes, key, out, hit);
    return Status::OK();
  }
  ++stats_.page_walks;
  slot.id = kInvalidObjectId;  // Build overwrites the slot's entries
  LOGLOG_RETURN_IF_ERROR(slot.index.Build(bytes, key, out, hit));
  if (slot.index.searchable()) {
    slot.id = id;
    slot.stamp = stamp;
  }
  return Status::OK();
}

ObjectId Btree::AllocPageId() {
  if (!free_list_.empty()) {
    ObjectId id = *free_list_.begin();
    free_list_.erase(free_list_.begin());
    ++stats_.pages_reused;
    return id;
  }
  return next_page_++;
}

Status Btree::Get(uint64_t key, std::vector<uint8_t>* out) {
  ObjectId id = root_;
  BtreePage page;
  PageSearch hit;
  while (true) {
    LOGLOG_RETURN_IF_ERROR(SearchPage(id, key, &page, &hit));
    if (!page.is_leaf()) {
      id = hit.child;
      continue;
    }
    if (!hit.found) return Status::NotFound("key not in leaf");
    out->assign(hit.value.data(), hit.value.data() + hit.value.size());
    return Status::OK();
  }
}

Status Btree::Scan(
    uint64_t from, size_t limit,
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>>* out) {
  out->clear();
  ObjectId id = root_;
  BtreePage page;
  PageSearch hit;
  while (true) {
    LOGLOG_RETURN_IF_ERROR(SearchPage(id, from, &page, &hit));
    if (page.is_leaf()) break;
    id = hit.child;
  }
  while (out->size() < limit) {
    PageEntry e;
    for (BtreePage::Cursor c = page.entries(); c.Next(&e);) {
      if (e.key < from) continue;
      out->emplace_back(e.key, e.value.ToBytes());
      if (out->size() >= limit) return Status::OK();
    }
    if (page.next_leaf() == kInvalidObjectId) break;
    LOGLOG_RETURN_IF_ERROR(ReadPage(page.next_leaf(), &page));
  }
  return Status::OK();
}

Status Btree::Insert(uint64_t key, Slice value) {
  ++stats_.inserts;
  // Descend, recording the path for possible splits.
  std::vector<ObjectId> path = {root_};
  BtreePage page;
  PageSearch hit;
  LOGLOG_RETURN_IF_ERROR(SearchPage(root_, key, &page, &hit));
  while (!page.is_leaf()) {
    path.push_back(hit.child);
    LOGLOG_RETURN_IF_ERROR(SearchPage(path.back(), key, &page, &hit));
  }
  // Taken before Execute, which ends the page view.
  const size_t size_after = page.SizeAfterLeafPut(hit, key, value.size());
  LOGLOG_RETURN_IF_ERROR(
      engine_->Execute(MakeLeafInsertOp(path.back(), key, value)));
  if (size_after > options_.max_page_bytes) {
    LOGLOG_RETURN_IF_ERROR(SplitUpwards(path));
  }
  return Status::OK();
}

Status Btree::SplitUpwards(std::vector<ObjectId> path) {
  while (!path.empty()) {
    ObjectId page_id = path.back();
    path.pop_back();
    BtreePage page;
    LOGLOG_RETURN_IF_ERROR(ReadPage(page_id, &page));
    if (page.size() <= options_.max_page_bytes) return Status::OK();

    ++stats_.splits;
    ObjectId new_id = AllocPageId();
    bool is_root = path.empty();
    ObjectId new_root_id = is_root ? AllocPageId() : kInvalidObjectId;

    if (options_.logical_splits) {
      // The whole structure modification is one atomic logical operation;
      // no page image is logged and a crash can never tear it apart.
      if (is_root) {
        ++stats_.root_splits;
        LOGLOG_RETURN_IF_ERROR(engine_->Execute(
            MakeRootSplitOp(page_id, new_id, new_root_id, meta_id_)));
      } else {
        LOGLOG_RETURN_IF_ERROR(engine_->Execute(
            MakeSplitOp(page_id, new_id, path.back(), meta_id_)));
      }
      // The transform updated the meta object; mirror it.
      LOGLOG_RETURN_IF_ERROR(LoadMeta());
    } else {
      // Physiological baseline: single-page records only; the new page's
      // full image goes on the log. Meta first so allocation ordering
      // survives a torn suffix (the log is force-ordered by prefix). The
      // halves are cut before the first Execute ends the page view.
      ObjectValue left, right;
      uint64_t separator = 0;
      LOGLOG_RETURN_IF_ERROR(
          BtreePage::Split(page.bytes(), new_id, &left, &right, &separator));
      LOGLOG_RETURN_IF_ERROR(WriteMeta());
      LOGLOG_RETURN_IF_ERROR(
          engine_->Execute(MakeTruncateOp(page_id, new_id)));
      LOGLOG_RETURN_IF_ERROR(
          engine_->Execute(MakePhysicalWrite(new_id, Slice(right))));
      if (is_root) {
        ++stats_.root_splits;
        LOGLOG_RETURN_IF_ERROR(engine_->Execute(MakeCreate(
            new_root_id,
            Slice(BtreePage::NewRoot(page_id, separator, new_id)))));
        root_ = new_root_id;
        LOGLOG_RETURN_IF_ERROR(WriteMeta());
      } else {
        LOGLOG_RETURN_IF_ERROR(engine_->Execute(
            MakeInternalInsertOp(path.back(), separator, new_id)));
      }
    }
    if (is_root) return Status::OK();
    // Loop continues: the parent may now be oversized.
  }
  return Status::OK();
}

Status Btree::Erase(uint64_t key) {
  ++stats_.erases;
  std::vector<ObjectId> path = {root_};
  BtreePage page;
  PageSearch hit;
  LOGLOG_RETURN_IF_ERROR(SearchPage(root_, key, &page, &hit));
  while (!page.is_leaf()) {
    path.push_back(hit.child);
    LOGLOG_RETURN_IF_ERROR(SearchPage(path.back(), key, &page, &hit));
  }
  if (!hit.found) return Status::NotFound("key not in leaf");
  LOGLOG_RETURN_IF_ERROR(engine_->Execute(MakeEraseLeafOp(path.back(), key)));
  if (options_.merge_on_underflow && options_.logical_splits) {
    LOGLOG_RETURN_IF_ERROR(MaybeMerge(path));
  }
  return Status::OK();
}

Status Btree::MaybeMerge(const std::vector<ObjectId>& path) {
  if (path.size() < 2) return Status::OK();  // the root never merges
  ObjectId leaf_id = path.back();
  ObjectId parent_id = path[path.size() - 2];
  BtreePage leaf, parent;
  LOGLOG_RETURN_IF_ERROR(ReadPage(leaf_id, &leaf));
  if (leaf.size() >= options_.max_page_bytes / 4) return Status::OK();
  LOGLOG_RETURN_IF_ERROR(ReadPage(parent_id, &parent));

  // Locate the leaf among the parent's children and pick the adjacent
  // sibling to merge with (prefer the right neighbor).
  std::vector<ObjectId> children = {parent.first_child()};
  PageEntry e;
  for (BtreePage::Cursor c = parent.entries(); c.Next(&e);) {
    children.push_back(e.child);
  }
  size_t idx = children.size();
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i] == leaf_id) {
      idx = i;
      break;
    }
  }
  if (idx == children.size()) {
    return Status::Corruption("leaf missing from its parent");
  }
  ObjectId left_id, right_id;
  if (idx + 1 < children.size()) {
    left_id = leaf_id;
    right_id = children[idx + 1];
  } else if (idx > 0) {
    left_id = children[idx - 1];
    right_id = leaf_id;
  } else {
    return Status::OK();  // only child: nothing to merge with
  }
  BtreePage left, right;
  LOGLOG_RETURN_IF_ERROR(ReadPage(left_id, &left));
  LOGLOG_RETURN_IF_ERROR(ReadPage(right_id, &right));
  if (!left.is_leaf() || !right.is_leaf()) return Status::OK();
  if (left.size() + right.size() > options_.max_page_bytes) {
    return Status::OK();  // combined page would overflow
  }

  ++stats_.merges;
  LOGLOG_RETURN_IF_ERROR(
      engine_->Execute(MakeMergeOp(left_id, right_id, parent_id, meta_id_)));
  LOGLOG_RETURN_IF_ERROR(LoadMeta());

  // Root collapse: if the root lost its last separator, its single child
  // takes over.
  if (parent_id == root_) {
    BtreePage root;
    LOGLOG_RETURN_IF_ERROR(ReadPage(root_, &root));
    if (!root.is_leaf() && root.count() == 0) {
      ++stats_.root_collapses;
      LOGLOG_RETURN_IF_ERROR(
          engine_->Execute(MakeCollapseRootOp(root_, meta_id_)));
      LOGLOG_RETURN_IF_ERROR(LoadMeta());
    }
  }
  return Status::OK();
}

namespace {

Status ValidateSubtree(RecoveryEngine* engine, ObjectId id, uint64_t lo,
                       uint64_t hi, int depth,
                       std::vector<uint64_t>* in_order,
                       ObjectId* leftmost_leaf) {
  if (depth > 64) return Status::Corruption("tree too deep (cycle?)");
  Slice bytes;
  LOGLOG_RETURN_IF_ERROR(engine->ReadView(id, &bytes));
  BtreePage page;
  LOGLOG_RETURN_IF_ERROR(BtreePage::Parse(bytes, &page));
  PageEntry e;
  BtreePage::Cursor c = page.entries();
  if (page.is_leaf()) {
    if (*leftmost_leaf == kInvalidObjectId) *leftmost_leaf = id;
    uint64_t prev = 0;
    bool first = true;
    while (c.Next(&e)) {
      if (!first && e.key <= prev) {
        return Status::Corruption("leaf keys out of order");
      }
      if (e.key < lo || e.key >= hi) {
        return Status::Corruption("leaf key outside separator range");
      }
      in_order->push_back(e.key);
      prev = e.key;
      first = false;
    }
    return Status::OK();
  }
  // Each child's range ends at the next separator; peek one entry ahead.
  bool has = c.Next(&e);
  LOGLOG_RETURN_IF_ERROR(ValidateSubtree(engine, page.first_child(), lo,
                                         has ? e.key : hi, depth + 1,
                                         in_order, leftmost_leaf));
  uint64_t prev = lo;
  while (has) {
    PageEntry next;
    const bool has_next = c.Next(&next);
    if (e.key < prev) return Status::Corruption("separators out of order");
    LOGLOG_RETURN_IF_ERROR(ValidateSubtree(engine, e.child, e.key,
                                           has_next ? next.key : hi,
                                           depth + 1, in_order,
                                           leftmost_leaf));
    prev = e.key;
    e = next;
    has = has_next;
  }
  return Status::OK();
}

}  // namespace

Status Btree::Validate() {
  std::vector<uint64_t> in_order;
  ObjectId leftmost = kInvalidObjectId;
  LOGLOG_RETURN_IF_ERROR(
      ValidateSubtree(engine_, root_, 0, kMaxLsn, 0, &in_order, &leftmost));
  // The leaf chain must visit exactly the in-order keys.
  std::vector<uint64_t> chained;
  ObjectId id = leftmost;
  int guard = 0;
  while (id != kInvalidObjectId) {
    if (++guard > 1 << 20) return Status::Corruption("leaf chain cycle");
    Slice bytes;
    LOGLOG_RETURN_IF_ERROR(engine_->ReadView(id, &bytes));
    BtreePage page;
    LOGLOG_RETURN_IF_ERROR(BtreePage::Parse(bytes, &page));
    if (!page.is_leaf()) return Status::Corruption("chain hit non-leaf");
    PageEntry e;
    for (BtreePage::Cursor c = page.entries(); c.Next(&e);) {
      chained.push_back(e.key);
    }
    id = page.next_leaf();
  }
  if (chained != in_order) {
    return Status::Corruption("leaf chain disagrees with tree order");
  }
  return Status::OK();
}

}  // namespace loglog
