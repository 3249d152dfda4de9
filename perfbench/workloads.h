// The four benchmark workloads and the runner that measures them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics from untraced phases. true: per-layer
  /// metrics from a traced phase, plus the tracing overhead.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Quantities that must repeat exactly for a fixed seed (the
  /// determinism self-check compares them across two runs).
  std::vector<Metric> counts;
  /// Human-readable lines (sample counts, phase notes).
  std::vector<std::string> notes;
  /// First error that stopped the run, if any.
  std::string error;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Runs one workload. An unknown workload name sets `error`.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
