#include "cache/object_table.h"

namespace loglog {

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
  if (!it->second.dirty_) clean_.erase({it->second.last_access_, id});
  objects_.erase(it);
}

void ObjectTable::Touch(CachedObject* obj) {
  uint64_t stamp = ++access_clock_;
  if (!obj->dirty_) {
    auto node = clean_.extract({obj->last_access_, obj->id_});
    node.value().first = stamp;
    clean_.insert(std::move(node));
  }
  obj->last_access_ = stamp;
}

void ObjectTable::SetDirty(CachedObject* obj, bool dirty) {
  if (obj->dirty_ == dirty) return;
  obj->dirty_ = dirty;
  if (dirty) {
    clean_.erase({obj->last_access_, obj->id_});
  } else {
    clean_.emplace(obj->last_access_, obj->id_);
  }
}

std::vector<DotEntry> ObjectTable::DirtySnapshot() const {
  std::vector<DotEntry> out;
  for (const auto& [id, obj] : objects_) {
    if (obj.dirty_) out.push_back(DotEntry{id, obj.rsi, !obj.exists});
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
