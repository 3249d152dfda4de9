#include "cache/object_table.h"

#include <atomic>

namespace loglog {

void CachedObject::SetValue(ObjectValue value) {
  static std::atomic<uint64_t> last_stamp{0};
  value_ = std::move(value);
  stamp_ = last_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
}

CachedObject* ObjectTable::Find(ObjectId id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

const CachedObject* ObjectTable::Find(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

CachedObject& ObjectTable::GetOrCreate(ObjectId id) {
  auto [it, inserted] = objects_.try_emplace(id);
  if (inserted) {
    it->second.id_ = id;
    clean_.emplace(0, id);
  }
  return it->second;
}

void ObjectTable::Erase(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return;
  if (it->second.dirty()) {
    DropDirty(&it->second);
  } else {
    clean_.erase({it->second.last_access_, id});
  }
  objects_.erase(it);
}

void ObjectTable::Touch(CachedObject* obj) {
  uint64_t stamp = ++access_clock_;
  if (!obj->dirty()) {
    auto node = clean_.extract({obj->last_access_, obj->id_});
    node.value().first = stamp;
    clean_.insert(std::move(node));
  }
  obj->last_access_ = stamp;
}

void ObjectTable::SetDirty(CachedObject* obj, bool dirty) {
  if (obj->dirty() == dirty) return;
  if (dirty) {
    clean_.erase({obj->last_access_, obj->id_});
    obj->dirty_slot_ = dirty_.size();
    dirty_.push_back(obj);
  } else {
    DropDirty(obj);
    clean_.emplace(obj->last_access_, obj->id_);
  }
}

void ObjectTable::DropDirty(CachedObject* obj) {
  // Swap-remove: the last listed object takes obj's slot.
  CachedObject* last = dirty_.back();
  dirty_[obj->dirty_slot_] = last;
  last->dirty_slot_ = obj->dirty_slot_;
  dirty_.pop_back();
  obj->dirty_slot_ = CachedObject::kClean;
}

std::vector<DotEntry> ObjectTable::DirtySnapshot() const {
  std::vector<DotEntry> out;
  out.reserve(dirty_.size());
  for (const CachedObject* obj : dirty_) {
    out.push_back(DotEntry{obj->id_, obj->rsi, !obj->exists});
  }
  return out;
}

void ObjectTable::ForEach(
    const std::function<void(ObjectId, CachedObject&)>& fn) {
  for (auto& [id, obj] : objects_) fn(id, obj);
}

void ObjectTable::ForEach(
    const std::function<void(ObjectId, const CachedObject&)>& fn) const {
  for (const auto& [id, obj] : objects_) fn(id, obj);
}

ObjectId ObjectTable::OldestClean() const {
  return clean_.empty() ? kInvalidObjectId : clean_.begin()->second;
}

}  // namespace loglog
