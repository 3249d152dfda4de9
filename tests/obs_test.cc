// Tests for the observability layer: exact histograms, the metrics
// registry (including concurrent recording — run under LOGLOG_TSAN),
// snapshot deltas, the trace recorder's Chrome JSON export, and the
// end-to-end recovery timeline the instrumented engine produces.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/recovery_engine.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/workload.h"
#include "storage/simulated_disk.h"

namespace loglog {
namespace {

TEST(HistogramTest, QuantilesExact) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Percentile(q) = smallest v with at least q*n samples <= v; with the
  // exact 1..100 domain the quantiles are the obvious ranks.
  EXPECT_EQ(h.Percentile(0.50), 50u);
  EXPECT_EQ(h.Percentile(0.90), 90u);
  EXPECT_EQ(h.Percentile(0.99), 99u);
  EXPECT_EQ(h.Percentile(1.00), 100u);
  EXPECT_EQ(h.Percentile(0.0), 1u);
}

TEST(HistogramTest, QuantilesSkewedAndWeighted) {
  Histogram h;
  h.Add(1, 999);  // weighted insert: 999 samples of value 1
  h.Add(1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.CountOf(1), 999u);
  EXPECT_EQ(h.Percentile(0.50), 1u);
  EXPECT_EQ(h.Percentile(0.999), 1u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(HistogramTest, EmptyAndClear) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.Add(7);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_TRUE(h.counts().empty());
}

TEST(HistogramTest, MergeAndJson) {
  Histogram a, b;
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.CountOf(2), 2u);
  EXPECT_EQ(a.max(), 3u);
  EXPECT_TRUE(JsonSyntaxCheck(Slice(a.ToJson())).ok());
  EXPECT_FALSE(a.ToString().empty());
}

TEST(MetricsRegistryTest, StablePointersAndFullNames) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x.count");
  Counter* c2 = reg.GetCounter("x.count");
  EXPECT_EQ(c1, c2);  // same (name, labels) -> same instance

  // Label keys are sorted into the full name, so insertion order of the
  // label vector does not fork instances.
  Counter* l1 = reg.GetCounter("x.count", {{"b", "2"}, {"a", "1"}});
  Counter* l2 = reg.GetCounter("x.count", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(l1, l2);
  EXPECT_NE(l1, c1);
  EXPECT_EQ(MetricsRegistry::FullName("x.count", {{"b", "2"}, {"a", "1"}}),
            "x.count{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::FullName("x.count", {}), "x.count");

  c1->Inc();
  c1->Inc(4);
  l1->Inc();
  reg.GetGauge("x.level")->Set(-3);
  reg.GetHistogram("x.dist")->Observe(10);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("x.count"), 5u);
  EXPECT_EQ(snap.counters.at("x.count{a=1,b=2}"), 1u);
  EXPECT_EQ(snap.gauges.at("x.level"), -3);
  EXPECT_EQ(snap.histograms.at("x.dist").count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotDeltaSubtractsFlowsKeepsLevels) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("flow");
  Gauge* g = reg.GetGauge("level");
  HistogramMetric* h = reg.GetHistogram("dist");
  c->Inc(10);
  g->Set(5);
  h->Observe(1);
  h->Observe(1);
  MetricsSnapshot before = reg.Snapshot();

  c->Inc(7);
  g->Set(9);
  h->Observe(1);
  h->Observe(3);
  Counter* late = reg.GetCounter("flow.late");  // absent from `before`
  late->Inc(2);

  MetricsSnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("flow"), 7u);
  EXPECT_EQ(delta.counters.at("flow.late"), 2u);  // counts from zero
  EXPECT_EQ(delta.gauges.at("level"), 9);         // level, not flow
  // The delta histogram holds only the between-snapshot samples.
  EXPECT_EQ(delta.histograms.at("dist").count(), 2u);
  EXPECT_EQ(delta.histograms.at("dist").CountOf(1), 1u);
  EXPECT_EQ(delta.histograms.at("dist").CountOf(3), 1u);

  EXPECT_TRUE(JsonSyntaxCheck(Slice(delta.ToJson())).ok());
  EXPECT_FALSE(delta.ToString().empty());
}

TEST(MetricsRegistryTest, ResetAllKeepsInstances) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Inc(3);
  reg.GetHistogram("h")->Observe(1);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);  // outstanding pointer still valid
  EXPECT_EQ(reg.Snapshot().histograms.at("h").count(), 0u);
  c->Inc();
  EXPECT_EQ(reg.Snapshot().counters.at("c"), 1u);
}

// Concurrent hammering of one registry: registration races (same and
// distinct names), counter increments, histogram observes and snapshots
// all interleave. Correctness here is exact final counts; the data-race
// check is TSan's job (build with -DLOGLOG_TSAN=ON).
TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kIters = 2000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, t] {
      Counter* shared = reg.GetCounter("hammer.shared");
      Counter* mine =
          reg.GetCounter("hammer.per_thread", {{"t", std::to_string(t)}});
      HistogramMetric* hist = reg.GetHistogram("hammer.dist");
      Gauge* gauge = reg.GetGauge("hammer.level");
      for (uint64_t i = 0; i < kIters; ++i) {
        shared->Inc();
        mine->Inc();
        hist->Observe(i % 16);
        gauge->Add(1);
        if (i % 512 == 0) {
          MetricsSnapshot s = reg.Snapshot();  // concurrent reader
          EXPECT_LE(s.counters.at("hammer.shared"), kThreads * kIters);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.counters.at("hammer.shared"), kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(s.counters.at("hammer.per_thread{t=" + std::to_string(t) + "}"),
              kIters);
  }
  EXPECT_EQ(s.histograms.at("hammer.dist").count(), kThreads * kIters);
  EXPECT_EQ(s.gauges.at("hammer.level"),
            static_cast<int64_t>(kThreads * kIters));
}

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder rec;
  { TraceSpan span("ignored", "test", {}, &rec); }
  rec.AddInstant("also.ignored", "test");
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorderTest, SpanCapturesEnabledAtConstruction) {
  TraceRecorder rec;
  rec.Enable();
  {
    TraceSpan span("survives.disable", "test", {}, &rec);
    rec.Disable();  // flipped mid-span: the span still records
  }
  {
    TraceSpan span("never.recorded", "test", {}, &rec);
    rec.Enable();  // began while off: stays unrecorded
  }
  rec.Disable();
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "survives.disable");
}

TEST(TraceRecorderTest, NestedSpansInstantsAndArgs) {
  TraceRecorder rec;
  rec.Enable();
  {
    TraceSpan outer("outer", "test", {{"fixed", "yes"}}, &rec);
    rec.AddInstant("tick", "test", {{"k", "v"}});
    {
      TraceSpan inner("inner", "test", {}, &rec);
      inner.AddArg("late", uint64_t{42});
    }
    outer.End();
    outer.End();  // idempotent
  }
  rec.Disable();
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 3u);  // double End() did not duplicate

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* tick = nullptr;
  for (const TraceEvent& ev : events) {
    if (ev.name == "outer") outer = &ev;
    if (ev.name == "inner") inner = &ev;
    if (ev.name == "tick") tick = &ev;
  }
  ASSERT_TRUE(outer != nullptr && inner != nullptr && tick != nullptr);
  EXPECT_EQ(tick->phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(outer->phase, TraceEvent::Phase::kComplete);
  // inner nests inside outer on the same thread.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
  ASSERT_EQ(inner->args.size(), 1u);
  EXPECT_EQ(inner->args[0].first, "late");
  EXPECT_EQ(inner->args[0].second, "42");
  EXPECT_TRUE(ValidateSpanNesting(events).ok());
}

TEST(TraceRecorderTest, DenseThreadIds) {
  // Ids come from the process-wide ThreadRegistry, which earlier tests in
  // the same process have already handed ids to: assert what it promises
  // (one stable id per thread, handed out in registration order), not
  // which id the first thread gets.
  TraceRecorder rec;
  rec.Enable();
  rec.AddInstant("main", "test");
  std::thread([&rec] { rec.AddInstant("worker", "test"); }).join();
  std::thread([&rec] { rec.AddInstant("worker2", "test"); }).join();
  rec.AddInstant("main again", "test");
  rec.Disable();
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].tid, ThreadRegistry::Global().CurrentTid());
  EXPECT_EQ(events[3].tid, events[0].tid);  // stable per thread
  EXPECT_GT(events[1].tid, events[0].tid);  // registered after main
  EXPECT_GT(events[2].tid, events[1].tid);
}

TEST(TraceRecorderTest, ChromeJsonStructure) {
  TraceRecorder rec;
  rec.Enable();
  {
    TraceSpan span("phase \"one\"", "cat", {{"key", "va\\lue"}}, &rec);
  }
  rec.AddInstant("marker", "cat");
  rec.Disable();

  std::string doc = rec.ToChromeJson();
  EXPECT_TRUE(JsonSyntaxCheck(Slice(doc)).ok()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(doc.find("\"pid\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\""), std::string::npos);
  // The quote and backslash in name/args survived escaping (the syntax
  // check above would also fail on broken escapes).
  EXPECT_NE(doc.find("phase \\\"one\\\""), std::string::npos);
}

TEST(ValidateSpanNestingTest, RejectsPartialOverlap) {
  std::vector<TraceEvent> events(2);
  events[0].name = "a";
  events[0].ts_us = 0;
  events[0].dur_us = 10;
  events[1].name = "b";
  events[1].ts_us = 5;
  events[1].dur_us = 10;  // [5,15) straddles a's end: not nested
  EXPECT_TRUE(ValidateSpanNesting(events).IsCorruption());

  events[1].dur_us = 3;  // [5,8) nests inside [0,10)
  EXPECT_TRUE(ValidateSpanNesting(events).ok());

  events[1].ts_us = 20;
  events[1].dur_us = 100;  // disjoint is fine too
  EXPECT_TRUE(ValidateSpanNesting(events).ok());

  // Partial overlap on *different* threads is fine — nesting is per-tid.
  events[1].ts_us = 5;
  events[1].dur_us = 10;
  events[1].tid = 1;
  EXPECT_TRUE(ValidateSpanNesting(events).ok());
}

/// Runs a crash-recovery cycle with the global tracer on and returns the
/// recovery timeline: workload -> force -> drop the engine (all volatile
/// state dies) -> recover over the surviving disk with `threads` workers.
std::vector<TraceEvent> TracedRecovery(int threads) {
  SimulatedDisk disk;
  EngineOptions eo;
  eo.purge_threshold_ops = 10;
  eo.recovery.redo_threads = threads;
  {
    RecoveryEngine engine(eo, &disk);
    MixedWorkloadOptions wopts;
    wopts.seed = 99;
    MixedWorkload workload(wopts);
    for (const OperationDesc& op : workload.SetupOps()) {
      EXPECT_TRUE(engine.Execute(op).ok());
    }
    for (int i = 0; i < 300; ++i) {
      Status st = engine.Execute(workload.Next());
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    EXPECT_TRUE(engine.log().ForceAll().ok());
  }  // crash

  TraceRecorder& tracer = TraceRecorder::Global();
  tracer.Clear();
  tracer.Enable();
  RecoveryEngine engine(eo, &disk);
  RecoveryStats rstats;
  EXPECT_TRUE(engine.Recover(&rstats).ok());
  tracer.Disable();
  EXPECT_GT(rstats.ops_redone, 0u);
  return tracer.Events();
}

uint64_t CountByName(const std::vector<TraceEvent>& events,
                     std::string_view name) {
  uint64_t n = 0;
  for (const TraceEvent& ev : events) n += ev.name == name;
  return n;
}

TEST(RecoveryTimelineTest, ParallelRecoveryProducesNestedSpans) {
  std::vector<TraceEvent> events = TracedRecovery(/*threads=*/4);
  EXPECT_TRUE(ValidateSpanNesting(events).ok());

  ASSERT_EQ(CountByName(events, "recovery.run"), 1u);
  EXPECT_EQ(CountByName(events, "recovery.log_scan"), 1u);
  EXPECT_EQ(CountByName(events, "recovery.analysis"), 1u);
  EXPECT_EQ(CountByName(events, "recovery.redo"), 1u);
  EXPECT_EQ(CountByName(events, "redo.partition"), 1u);
  EXPECT_EQ(CountByName(events, "redo.apply"), 1u);
  EXPECT_GE(CountByName(events, "redo.worker"), 1u);
  EXPECT_GE(CountByName(events, "redo.component"), 1u);

  // The phase spans nest inside recovery.run on the coordinating thread.
  const TraceEvent* run = nullptr;
  for (const TraceEvent& ev : events) {
    if (ev.name == "recovery.run") run = &ev;
  }
  ASSERT_NE(run, nullptr);
  uint64_t components = 0;
  for (const TraceEvent& ev : events) {
    if (ev.name == "recovery.log_scan" || ev.name == "recovery.analysis" ||
        ev.name == "recovery.redo") {
      EXPECT_EQ(ev.tid, run->tid) << ev.name;
      EXPECT_GE(ev.ts_us, run->ts_us) << ev.name;
      EXPECT_LE(ev.ts_us + ev.dur_us, run->ts_us + run->dur_us) << ev.name;
    }
    if (ev.name == "redo.component") {
      ++components;
      // Every component span nests inside some worker span.
      bool inside_worker = false;
      for (const TraceEvent& w : events) {
        if (w.name == "redo.worker" && w.tid == ev.tid &&
            w.ts_us <= ev.ts_us &&
            ev.ts_us + ev.dur_us <= w.ts_us + w.dur_us) {
          inside_worker = true;
        }
      }
      EXPECT_TRUE(inside_worker);
    }
  }
  EXPECT_GT(components, 0u);

  // The exported document is valid, loadable Chrome trace JSON.
  std::string doc = TraceRecorder::Global().ToChromeJson();
  EXPECT_TRUE(JsonSyntaxCheck(Slice(doc)).ok());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("redo.worker"), std::string::npos);
  EXPECT_NE(doc.find("redo.component"), std::string::npos);
}

TEST(RecoveryTimelineTest, SerialRecoveryTracesOnOneThread) {
  std::vector<TraceEvent> events = TracedRecovery(/*threads=*/1);
  EXPECT_TRUE(ValidateSpanNesting(events).ok());
  EXPECT_EQ(CountByName(events, "recovery.run"), 1u);
  EXPECT_EQ(CountByName(events, "recovery.redo"), 1u);
  // Serial redo runs inline in the driver — no worker pool, no worker or
  // component spans, and the redo span says so.
  EXPECT_EQ(CountByName(events, "redo.worker"), 0u);
  for (const TraceEvent& ev : events) {
    if (ev.name != "recovery.redo") continue;
    bool found = false;
    for (const auto& [k, v] : ev.args) {
      if (k == "mode") {
        EXPECT_EQ(v, "serial");
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(RecoveryTimelineTest, RecoveryUpdatesGlobalMetrics) {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  std::vector<TraceEvent> events = TracedRecovery(/*threads=*/2);
  MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().Delta(before);
  EXPECT_GE(delta.counters.at(std::string(metric::kRecoveryRuns)), 1u);
  EXPECT_GT(delta.counters.at(std::string(metric::kRecoveryOpsRedone)), 0u);
  EXPECT_GE(
      delta.histograms.at(std::string(metric::kRecoveryDurationUs)).count(),
      1u);
  EXPECT_TRUE(JsonSyntaxCheck(Slice(delta.ToJson())).ok());
  EXPECT_FALSE(events.empty());
}

}  // namespace
}  // namespace loglog
