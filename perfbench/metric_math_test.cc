// Tests of the benchmark's own metric arithmetic. Run through
// `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <map>
#include <string>
#include <cstdio>
#include <vector>

#include "metric_math.h"
#include "trace_ledger.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: p50 of 1..100 is 50, p99 is 99 with one sample beyond.
  std::vector<double> v = OneTo(100);
  Quantile p50 = Percentile(&v, 0.50);
  Check(Near(p50.value, 50) && p50.samples == 100 && p50.beyond == 50,
        "p50 of 1..100");
  Quantile p99 = Percentile(&v, 0.99);
  Check(Near(p99.value, 99) && p99.beyond == 1 && !p99.supported,
        "p99 of 100 samples is unsupported");

  // Ten samples beyond p99 need 1000 samples; 999 leave only nine.
  std::vector<double> k = OneTo(1000);
  Quantile q = Percentile(&k, 0.99);
  Check(Near(q.value, 990) && q.beyond == 10 && q.supported,
        "p99 of 1000 samples is supported");
  std::vector<double> k9 = OneTo(999);
  Check(!Percentile(&k9, 0.99).supported, "p99 of 999 samples");

  // Degenerate inputs.
  std::vector<double> empty;
  Quantile e = Percentile(&empty, 0.5);
  Check(e.samples == 0 && !e.supported && e.value == 0, "empty percentile");
  std::vector<double> one = {7};
  Check(Near(Percentile(&one, 0.99).value, 7), "single sample");
  Check(Near(Median({3, 1, 2}), 2) && Near(Median({4, 1, 3, 2}), 2.5) &&
            Median({}) == 0,
        "median");

  // Per-op ratios with a zero denominator report 0, never inf or nan.
  Check(PerOp(5, 0) == 0 && Near(PerOp(3, 2), 1.5) && PerOp(0, 0) == 0,
        "PerOp");

  // space_amp: store + hot log + cold tier over live user bytes.
  Footprint f;
  f.store_bytes = 1000;
  f.log_bytes = 300;
  f.cold_bytes = 200;
  f.live_user_bytes = 500;
  Check(Near(SpaceAmp(f), 3.0), "space_amp sums all three tiers");
  f.live_user_bytes = 0;
  Check(SpaceAmp(f) == 0, "space_amp with nothing live");

  // Self time: a span minus its direct children on the same thread.
  using loglog::TraceEvent;
  auto span = [](const char* name, uint64_t ts, uint64_t dur, uint32_t tid) {
    TraceEvent e;
    e.name = name;
    e.ts_us = ts;
    e.dur_us = dur;
    e.tid = tid;
    return e;
  };
  std::map<std::string, SpanTotals> totals;
  TraceLedger::Accumulate({span("c", 12, 5, 1), span("a", 0, 100, 1),
                           span("b", 10, 20, 1), span("b", 50, 10, 1),
                           span("d", 5, 50, 2)},
                          &totals);
  Check(Near(totals["a"].self_total_us, 70) && Near(totals["a"].total_us, 100),
        "parent self time excludes direct children only");
  Check(totals["b"].self_us.size() == 2 && Near(totals["b"].self_total_us, 25),
        "child self time excludes the grandchild");
  Check(Near(totals["c"].self_total_us, 5), "leaf self time is its duration");
  Check(Near(totals["d"].self_total_us, 50),
        "a span on another thread is never a child");

  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
