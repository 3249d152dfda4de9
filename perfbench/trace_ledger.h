// Per-layer time from the program's trace: the benchmark's own spans
// around public calls, nested with the spans the library already records
// (wal.force, cm.install_node, cm.checkpoint, recovery.*, redo.*).
#ifndef PERFBENCH_TRACE_LEDGER_H_
#define PERFBENCH_TRACE_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Durations and self times of every span with one name.
struct SpanTotals {
  std::vector<double> dur_us;
  std::vector<double> self_us;
  double total_us = 0.0;
  double self_total_us = 0.0;
};

/// Collects spans from loglog::TraceRecorder::Global(). A span's self
/// time is its duration minus the durations of its direct children on
/// the same thread. Drain only between user ops: a span is recorded when
/// it ends, so draining mid-op would separate a parent from its children.
class TraceLedger {
 public:
  /// Moves every event recorded so far out of the recorder into the
  /// per-name totals.
  void Drain();
  /// Totals for `name` (empty when no such span was seen).
  const SpanTotals& Of(const std::string& name) const;

  /// Nests `events` per thread and adds their durations and self times
  /// into `out` (exposed for the math test).
  static void Accumulate(std::vector<loglog::TraceEvent> events,
                         std::map<std::string, SpanTotals>* out);

 private:
  std::map<std::string, SpanTotals> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_LEDGER_H_
