#ifndef LOGLOG_COMMON_RETRY_H_
#define LOGLOG_COMMON_RETRY_H_

#include <cstdint>
#include <utility>

#include "common/status.h"

namespace loglog {

/// Retry budget for transient I/O errors. The simulator has no clock, so
/// "bounded backoff" is a bounded number of immediate re-issues; each
/// re-issue is billed to the caller's retry counter. A fault armed as
/// permanent keeps failing, exhausts the budget, and surfaces as a clean
/// IoError; a transient fault succeeds on a retry and the caller never
/// sees it.
inline constexpr int kMaxIoRetries = 3;

/// The tighter budget of the rollback path (TxnManager and the recovery
/// loser pass): rollback already runs under duress, and a rollback that
/// fails cleanly is re-runnable after crash-recovery, so failing fast is
/// safe.
inline constexpr int kRollbackIoRetries = 1;

/// Runs `fn` (a callable returning Status), re-issuing it up to `budget`
/// times while it fails with IoError. Other failure codes (Corruption,
/// Aborted, NotFound...) are never retried — they are not transient device
/// conditions. A tighter budget than kMaxIoRetries suits paths that must
/// fail fast (rollback I/O under fault storms); budget == 0 disables
/// retrying entirely, which lets tests force exhaustion without arming
/// permanent faults everywhere.
template <typename Fn>
Status RetryTransientIo(int budget, uint64_t* retry_counter, Fn&& fn) {
  Status st = std::forward<Fn>(fn)();
  for (int i = 0; i < budget && st.IsIoError(); ++i) {
    ++*retry_counter;
    st = std::forward<Fn>(fn)();
  }
  return st;
}

/// Default-budget form (the common call shape).
template <typename Fn>
Status RetryTransientIo(uint64_t* retry_counter, Fn&& fn) {
  return RetryTransientIo(kMaxIoRetries, retry_counter,
                          std::forward<Fn>(fn));
}

}  // namespace loglog

#endif  // LOGLOG_COMMON_RETRY_H_
