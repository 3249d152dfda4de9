// Metric arithmetic shared by the benchmark program and its test: nearest-
// rank percentiles with their sample count, the "ten samples beyond"
// support rule, per-op ratios that survive an empty denominator, medians,
// and the space-amplification ratio.
#ifndef PERFBENCH_METRIC_MATH_H_
#define PERFBENCH_METRIC_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A latency percentile together with what supports it.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly above the percentile's rank. A percentile is only
  /// reported when at least kMinBeyond samples lie beyond it.
  size_t beyond = 0;
  bool supported = false;
};

inline constexpr size_t kMinBeyond = 10;

/// Nearest rank of percentile q (in (0, 1]) among n samples: ceil(q * n),
/// at least 1.
inline size_t Rank(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `samples`, which is sorted in place.
/// `beyond` counts the samples above the rank, and `supported` says
/// whether that is at least kMinBeyond.
inline Quantile Percentile(std::vector<double>* samples, double q) {
  Quantile out;
  out.samples = samples->size();
  if (samples->empty() || q <= 0.0 || q > 1.0) return out;
  std::sort(samples->begin(), samples->end());
  size_t rank = Rank(samples->size(), q);
  out.value = (*samples)[rank - 1];
  out.beyond = samples->size() - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for none). Sorts a copy.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// numerator / denominator, or 0 when nothing was attempted: a per-op
/// figure over zero ops has no cost to report, and must not print inf/nan.
inline double PerOp(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Bytes a device holds for the data set, split the way the benchmark
/// accounts them.
struct Footprint {
  uint64_t store_bytes = 0;     // stable object store payload
  uint64_t log_bytes = 0;       // retained (hot) log window
  uint64_t cold_bytes = 0;      // spilled cold-tier segments
  uint64_t live_user_bytes = 0; // what the user could read back
};

/// Device bytes held per live user byte; 0 when nothing is live.
inline double SpaceAmp(const Footprint& f) {
  return PerOp(static_cast<double>(f.store_bytes + f.log_bytes + f.cold_bytes),
               static_cast<double>(f.live_user_bytes));
}

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_MATH_H_
