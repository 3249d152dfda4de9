#ifndef LOGLOG_CACHE_POLICIES_H_
#define LOGLOG_CACHE_POLICIES_H_

namespace loglog {

/// How the cache manager realizes a multi-object atomic flush set.
enum class FlushPolicy {
  /// Idealized hardware multi-object atomic write. Baseline.
  kNativeAtomic,
  /// Section 4's contribution: inject W_IP identity writes to peel
  /// objects out of the set until one object remains, then flush it.
  kIdentityWrites,
  /// Section 4 "Atomic Flush" technique 2: log all values + commit, then
  /// write in place. Requires quiescing the system.
  kFlushTransaction,
  /// Section 4 technique 1: System R shadows — out-of-place writes plus a
  /// pointer swing; relocates objects.
  kShadow,
};

/// Which write graph drives flush ordering.
enum class GraphKind {
  /// W of Figure 3 (Lomet & Tuttle 1995): vars(n) == Writes(n), grows
  /// monotonically.
  kW,
  /// rW of Figure 6: unexposed objects leave vars(n).
  kRefined,
};

/// How operations are logged (Figure 1a vs 1b).
enum class LoggingMode {
  /// Log logical operations: identifiers + transform only.
  kLogical,
  /// Convert cross-object logical operations to physical writes whose
  /// values are logged (the Figure 1b baseline). Single-object
  /// physiological operations are logged as-is.
  kPhysiological,
};

/// How LogManager::Force maps force obligations onto device appends.
enum class ForcePolicy {
  /// One device append per Force call, covering exactly the requested
  /// prefix. Baseline; every caller pays its own force.
  kImmediate,
  /// Group commit: a Force appends the *entire* volatile buffer, so one
  /// device append discharges every pending obligation — later Force
  /// calls for already-stable LSNs are no-ops.
  kGroup,
  /// Like kGroup, but the append is extended past the requested LSN only
  /// while the batch stays under a byte budget (bounds force latency on
  /// a slow device while still coalescing small obligations).
  kSizeThreshold,
};

/// REDO test variants of Section 5.
enum class RedoTestKind {
  /// Redo every applicable operation (repeat all of history).
  kAlways,
  /// Classic SI test: skip when some written object's vSI >= lSI.
  kVsi,
  /// Generalized test with recovery SIs: additionally skip operations
  /// whose written objects are unexposed, uninstalled-free, or deleted.
  /// Deleted-object skips are gated by a conservative one-step reader
  /// check.
  kRsiGeneralized,
  /// Like kRsiGeneralized, but deleted-object skips use the exact
  /// reverse-order fixpoint over reader dependencies: an operation on a
  /// deleted object is skipped unless some transitively-redone operation
  /// still reads it. Skips a superset of kRsiGeneralized.
  kRsiFixpoint,
};

}  // namespace loglog

#endif  // LOGLOG_CACHE_POLICIES_H_
