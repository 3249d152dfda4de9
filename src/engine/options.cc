#include "engine/options.h"

namespace loglog {

Status EngineOptions::Validate() const {
  if (graph_kind == GraphKind::kW &&
      flush_policy == FlushPolicy::kIdentityWrites) {
    // A blind identity write merges into the W node owning the object
    // (W coalesces on any writeset overlap), so it can never break a
    // flush set apart: "once objects need to be flushed together
    // atomically, there is no way to flush them separately" (Section 6).
    return Status::InvalidArgument(
        "graph kW rejects flush_policy kIdentityWrites: identity writes "
        "cannot split W's flush sets");
  }
  if (backend != StorageBackend::kLogStore) return Status::OK();
  if (!log_installs) {
    return Status::InvalidArgument(
        "kLogStore requires log_installs: the index rebuild keys off "
        "install records");
  }
  if (redo_test == RedoTestKind::kAlways) {
    return Status::InvalidArgument(
        "kLogStore rejects redo_test kAlways: its repeat-all baseline is "
        "defined over the stable store, which the backend never writes");
  }
  if (recovery.redo_threads > 1) {
    return Status::InvalidArgument(
        "kLogStore requires serial redo: parallel redo partitions over "
        "stable-store base images");
  }
  return Status::OK();
}

}  // namespace loglog
