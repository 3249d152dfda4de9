#include "trace_ledger.h"

#include <algorithm>

namespace perfbench {

void TraceLedger::Drain() {
  loglog::TraceRecorder& rec = loglog::TraceRecorder::Global();
  std::vector<loglog::TraceEvent> events = rec.Events();
  rec.Clear();
  Accumulate(std::move(events), &spans_);
}

const SpanTotals& TraceLedger::Of(const std::string& name) const {
  static const SpanTotals kEmpty;
  auto it = spans_.find(name);
  return it == spans_.end() ? kEmpty : it->second;
}

void TraceLedger::Accumulate(std::vector<loglog::TraceEvent> events,
                             std::map<std::string, SpanTotals>* out) {
  using loglog::TraceEvent;
  std::erase_if(events, [](const TraceEvent& e) {
    return e.phase != TraceEvent::Phase::kComplete;
  });
  // Parents sort before the children they contain: by thread, start,
  // then longest first.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  struct Open {
    const TraceEvent* event;
    uint64_t child_us;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    SpanTotals& t = (*out)[o.event->name];
    const double dur = static_cast<double>(o.event->dur_us);
    const double self =
        std::max(0.0, dur - static_cast<double>(o.child_us));
    t.dur_us.push_back(dur);
    t.self_us.push_back(self);
    t.total_us += dur;
    t.self_total_us += self;
  };
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
    }
    const uint64_t end = e.ts_us + e.dur_us;
    while (!stack.empty()) {
      const TraceEvent& top = *stack.back().event;
      if (e.ts_us >= top.ts_us && end <= top.ts_us + top.dur_us) break;
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += e.dur_us;
    stack.push_back({&e, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

}  // namespace perfbench
