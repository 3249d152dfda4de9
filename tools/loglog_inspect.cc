// loglog_inspect: operational inspection of a loglog disk.
//
// Modes:
//   loglog_inspect --demo [--crash] [--save FILE]   run a built-in workload
//   loglog_inspect FILE                             open a saved disk image
//   loglog_inspect --ship-status                    two-node replication demo
//
// Either way the tool dumps the retained log (DumpLog listing + summary),
// replays recovery as a dry run with tracing enabled (the on-disk image
// file is never modified), and reports the metrics snapshot. Output is
// text by default, one JSON document with --json; --trace FILE writes the
// recovery timeline as Chrome trace-event JSON (load in about:tracing or
// https://ui.perfetto.dev).
//
// Flags:
//   --demo          populate a fresh disk with the mixed workload
//   --txns N        (with --demo) append N multi-op transactions, every
//                   third rolled back — the dump then shows begin/commit/
//                   abort markers, compensation records, and the abort
//                   rate (default 6, 0 disables)
//   --crash         (with --demo) stop without flushing: recovery has work
//   --save FILE     save the disk image (then continue inspecting)
//   --json          emit one JSON document instead of text
//   --trace FILE    write the recovery timeline as Chrome trace JSON
//   --threads N     redo worker threads for the dry-run recovery (default 4)
//   --no-recover    skip the dry-run recovery (log listing + metrics only)
//   --seed N        demo workload seed (default 321)
//   --ops N         demo workload operation count (default 400)
//   --quiet         suppress the per-record listing in text mode
//   --class-mix     per-logging-class breakdown (counts, bytes, % of log)
//                   of the retained log and the full archive; in JSON the
//                   breakdown is always embedded as "class_mix"
//   --ship-status   run a primary + log-shipped standby pair and report
//                   primary durable LSN vs standby applied LSN with the
//                   current lag (records/bytes/LSN) from the ship.*
//                   metrics snapshot; honors --seed/--ops/--threads/--json
//   --logstore-stats  run the mixed workload on a log-as-database engine
//                   (StorageBackend::kLogStore, background compaction,
//                   cold-tier GC) and report the object index (entries,
//                   live bytes), the two-tier footprint (hot window +
//                   cold segment table), dead bytes and space
//                   amplification, compactor totals, and the logstore.*
//                   metrics; honors --seed/--ops/--json/--quiet (drops
//                   the segment table)
//   --blackbox FILE read a *.blackbox postmortem artifact (standalone):
//                   build/config provenance, the flight-recorder tail as
//                   a merged human timeline with thread names, and the
//                   embedded metrics + health snapshot; honors --json,
//                   --quiet drops the per-event listing
//   --blackbox-out FILE   cut a black box of this process after the run
//   --telemetry-out FILE  append one telemetry JSONL sample after the run
//   --prom-out FILE       write the Prometheus text exposition after the
//                         run (both exporter flags feed CI artifacts)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/recovery_engine.h"
#include "engine/txn_manager.h"
#include "logstore/compactor.h"
#include "obs/blackbox.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "ship/log_shipper.h"
#include "ship/replication_channel.h"
#include "ship/standby_applier.h"
#include "sim/workload.h"
#include "storage/disk_image.h"
#include "storage/simulated_disk.h"
#include "wal/log_dump.h"

namespace loglog {
namespace {

struct InspectOptions {
  bool demo = false;
  bool ship_status = false;
  bool logstore_stats = false;
  bool crash = false;
  bool json = false;
  bool recover = true;
  bool quiet = false;
  bool class_mix = false;
  int threads = 4;
  uint64_t seed = 321;
  uint64_t ops = 400;
  uint64_t txns = 6;
  std::string save_path;
  std::string trace_path;
  std::string image_path;
  std::string blackbox_path;
  std::string blackbox_out;
  std::string telemetry_out;
  std::string prom_out;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [IMAGE] [--demo] [--ship-status] "
               "[--logstore-stats] [--blackbox FILE] [--crash] "
               "[--save FILE] [--json] [--trace FILE] [--threads N] "
               "[--no-recover] [--seed N] [--ops N] [--txns N] [--quiet] "
               "[--class-mix] [--blackbox-out FILE] [--telemetry-out FILE] "
               "[--prom-out FILE]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, InspectOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_value = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--demo") {
      out->demo = true;
    } else if (arg == "--ship-status") {
      out->ship_status = true;
    } else if (arg == "--logstore-stats") {
      out->logstore_stats = true;
    } else if (arg == "--crash") {
      out->crash = true;
    } else if (arg == "--json") {
      out->json = true;
    } else if (arg == "--no-recover") {
      out->recover = false;
    } else if (arg == "--quiet") {
      out->quiet = true;
    } else if (arg == "--class-mix") {
      out->class_mix = true;
    } else if (arg == "--save") {
      if (!next_value(&out->save_path)) return false;
    } else if (arg == "--trace") {
      if (!next_value(&out->trace_path)) return false;
    } else if (arg == "--blackbox") {
      if (!next_value(&out->blackbox_path)) return false;
    } else if (arg == "--blackbox-out") {
      if (!next_value(&out->blackbox_out)) return false;
    } else if (arg == "--telemetry-out") {
      if (!next_value(&out->telemetry_out)) return false;
    } else if (arg == "--prom-out") {
      if (!next_value(&out->prom_out)) return false;
    } else if (arg == "--threads") {
      if (!next_value(&value)) return false;
      out->threads = std::atoi(value.c_str());
    } else if (arg == "--seed") {
      if (!next_value(&value)) return false;
      out->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--ops") {
      if (!next_value(&value)) return false;
      out->ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--txns") {
      if (!next_value(&value)) return false;
      out->txns = std::strtoull(value.c_str(), nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else if (out->image_path.empty()) {
      out->image_path = arg;
    } else {
      std::fprintf(stderr, "extra positional argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (!out->blackbox_path.empty()) {
    if (out->demo || out->ship_status || !out->image_path.empty()) {
      std::fprintf(stderr, "--blackbox is standalone (no --demo/IMAGE)\n");
      return false;
    }
    return true;
  }
  if (out->ship_status) {
    if (out->demo || !out->image_path.empty()) {
      std::fprintf(stderr, "--ship-status is standalone (no --demo/IMAGE)\n");
      return false;
    }
    return true;
  }
  if (out->logstore_stats) {
    if (out->demo || !out->image_path.empty()) {
      std::fprintf(stderr,
                   "--logstore-stats is standalone (no --demo/IMAGE)\n");
      return false;
    }
    return true;
  }
  if (out->demo == !out->image_path.empty()) {
    std::fprintf(stderr, "pass exactly one of --demo or an IMAGE file\n");
    return false;
  }
  return true;
}

EngineOptions DemoEngineOptions(const InspectOptions& opts) {
  EngineOptions eo;
  eo.purge_threshold_ops = 12;
  eo.wal_force_policy = ForcePolicy::kGroup;  // exercise group commit
  eo.recovery.redo_threads = opts.threads;
  return eo;
}

/// Runs the mixed workload on a fresh engine over `disk`. With crash, the
/// engine is simply dropped afterwards — all volatile state (cache, write
/// graph, unforced log buffer) dies, so the stable disk is exactly what a
/// power loss would leave, and recovery has real work. Without crash the
/// state is flushed clean first.
Status RunDemo(const InspectOptions& opts, SimulatedDisk* disk) {
  auto engine =
      std::make_unique<RecoveryEngine>(DemoEngineOptions(opts), disk);
  MixedWorkloadOptions wopts;
  wopts.seed = opts.seed;
  MixedWorkload workload(wopts);
  for (const OperationDesc& op : workload.SetupOps()) {
    LOGLOG_RETURN_IF_ERROR(engine->Execute(op));
  }
  for (uint64_t i = 0; i < opts.ops; ++i) {
    Status st = engine->Execute(workload.Next());
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  // A transactional slice on top of the plain workload: every third
  // transaction rolls back, so the dump shows all four transaction
  // record types and a nonzero abort rate.
  if (opts.txns > 0) {
    TxnManager tm(engine.get());
    for (uint64_t t = 0; t < opts.txns; ++t) {
      TxnId id;
      LOGLOG_RETURN_IF_ERROR(tm.Begin(&id));
      for (int j = 0; j < 3; ++j) {
        Status st = tm.Execute(id, workload.Next());
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      LOGLOG_RETURN_IF_ERROR(t % 3 == 2 ? tm.Rollback(id) : tm.Commit(id));
    }
  }
  if (!opts.crash) {
    LOGLOG_RETURN_IF_ERROR(engine->FlushAll());
    LOGLOG_RETURN_IF_ERROR(engine->Checkpoint());
  }
  LOGLOG_RETURN_IF_ERROR(engine->log().ForceAll());
  return Status::OK();
}

/// Renders the recorded spans as an indented per-thread tree with
/// durations — the text-mode recovery timeline. Threads that named
/// themselves (redo workers, the shipper, the standby applier) show that
/// name next to the id.
void PrintTimeline(const std::vector<TraceEvent>& events, FILE* out) {
  std::map<uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& ev : events) by_tid[ev.tid].push_back(&ev);
  for (auto& [tid, evs] : by_tid) {
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                       return a->dur_us > b->dur_us;
                     });
    const std::string name = ThreadRegistry::Global().NameOf(tid);
    if (name.empty()) {
      std::fprintf(out, "  thread %u:\n", tid);
    } else {
      std::fprintf(out, "  thread %u (%s):\n", tid, name.c_str());
    }
    std::vector<const TraceEvent*> open;
    for (const TraceEvent* ev : evs) {
      while (!open.empty() &&
             open.back()->ts_us + open.back()->dur_us <= ev->ts_us) {
        open.pop_back();
      }
      std::string indent(4 + 2 * open.size(), ' ');
      std::string args;
      for (const auto& [k, v] : ev->args) {
        args += args.empty() ? " {" : ", ";
        args += k + "=" + v;
      }
      if (!args.empty()) args += "}";
      if (ev->phase == TraceEvent::Phase::kInstant) {
        std::fprintf(out, "%s* %s%s\n", indent.c_str(), ev->name.c_str(),
                     args.c_str());
      } else {
        std::fprintf(out, "%s%s %llu us%s\n", indent.c_str(),
                     ev->name.c_str(),
                     static_cast<unsigned long long>(ev->dur_us),
                     args.c_str());
        open.push_back(ev);
      }
    }
  }
}

/// Reads a `*.blackbox` postmortem artifact and renders it: provenance,
/// the flight-recorder tail as one merged timeline (oldest first, thread
/// names resolved from the dump's own table), and the metrics + health
/// snapshot frozen at dump time. Decode failures (truncation, bit rot)
/// report the corruption instead of crashing.
int RunBlackBox(const InspectOptions& opts) {
  std::string bytes;
  FILE* f = std::fopen(opts.blackbox_path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "open black box: %s\n", opts.blackbox_path.c_str());
    return 1;
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);

  BlackBoxDump dump;
  Status st = DecodeBlackBox(Slice(bytes), &dump);
  if (!st.ok()) {
    std::fprintf(stderr, "decode black box: %s\n", st.ToString().c_str());
    return 1;
  }
  std::map<uint32_t, std::string> threads(dump.thread_names.begin(),
                                          dump.thread_names.end());
  auto thread_label = [&threads](uint32_t tid) {
    auto it = threads.find(tid);
    return it != threads.end() && !it->second.empty()
               ? it->second
               : "t" + std::to_string(tid);
  };

  if (opts.json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("reason").String(dump.reason);
    w.Key("build_info").Raw(dump.build_info_json);
    w.Key("total_recorded").Uint(dump.total_recorded);
    w.Key("capacity").Uint(dump.capacity);
    w.Key("dropped").Uint(dump.dropped());
    w.Key("threads").BeginObject();
    for (const auto& [tid, name] : dump.thread_names) {
      w.Key(std::to_string(tid)).String(name);
    }
    w.EndObject();
    w.Key("events").BeginArray();
    for (const FlightEventView& ev : dump.events) {
      w.BeginObject();
      w.Key("seq").Uint(ev.seq);
      w.Key("ts_us").Uint(ev.ts_us);
      w.Key("type").String(FlightEventTypeName(ev.type));
      w.Key("tid").Uint(ev.tid);
      w.Key("thread").String(thread_label(ev.tid));
      w.Key("lsn").Uint(ev.lsn);
      w.Key("a").Uint(ev.a);
      w.Key("b").Uint(ev.b);
      w.Key("text").String(DescribeFlightEvent(ev, dump.strings));
      w.EndObject();
    }
    w.EndArray();
    w.Key("metrics").Raw(dump.metrics_json);
    w.Key("health").Raw(dump.health_json);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
    return 0;
  }

  std::printf("black box: %s\n", opts.blackbox_path.c_str());
  std::printf("  reason: %s\n", dump.reason.c_str());
  std::printf("  build:  %s\n", dump.build_info_json.c_str());
  std::printf("  events: %llu recorded, %zu in ring (capacity %llu, "
              "%llu overwritten)\n",
              static_cast<unsigned long long>(dump.total_recorded),
              dump.events.size(),
              static_cast<unsigned long long>(dump.capacity),
              static_cast<unsigned long long>(dump.dropped()));
  if (!opts.quiet) {
    std::printf("flight timeline (oldest first):\n");
    for (const FlightEventView& ev : dump.events) {
      std::printf("  %8llu +%-10llu [%-18s] %s\n",
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(ev.ts_us),
                  thread_label(ev.tid).c_str(),
                  DescribeFlightEvent(ev, dump.strings).c_str());
    }
  }
  std::printf("metrics at dump:\n%s", dump.metrics_text.c_str());
  std::printf("health at dump: %s\n", dump.health_json.c_str());
  return 0;
}

/// Two-node replication demo: a primary streams the mixed workload to a
/// log-shipped standby, polling every few operations; the final quarter
/// of the workload runs without polling so the status report shows a
/// real, nonzero backlog (one last poll ships it but the standby has not
/// pumped yet). Reports primary durable vs standby applied LSN and the
/// ship.* lag gauges from a metrics snapshot.
int RunShipStatus(const InspectOptions& opts) {
  SimulatedDisk disk;
  EngineOptions eo = DemoEngineOptions(opts);
  auto engine = std::make_unique<RecoveryEngine>(eo, &disk);
  MixedWorkloadOptions wopts;
  wopts.seed = opts.seed;
  MixedWorkload workload(wopts);
  ReplicationChannel channel;
  StandbyOptions sopts;
  sopts.redo_threads = opts.threads;
  StandbyApplier standby(&channel, sopts);
  LogShipper shipper(&disk.log(), &channel);

  auto step = [&](const OperationDesc& op) -> Status {
    Status st = engine->Execute(op);
    if (!st.ok() && !st.IsNotFound()) return st;
    return Status::OK();
  };
  auto fail = [](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    return 1;
  };

  Status st;
  for (const OperationDesc& op : workload.SetupOps()) {
    if (!(st = step(op)).ok()) return fail("ship demo workload", st);
  }
  const uint64_t streamed = opts.ops - opts.ops / 4;
  for (uint64_t i = 0; i < opts.ops; ++i) {
    if (!(st = step(workload.Next())).ok()) {
      return fail("ship demo workload", st);
    }
    if (i < streamed && i % 8 == 0) {
      // Shipping moves stable bytes only: force, ship, apply.
      if (!(st = engine->log().ForceAll()).ok()) return fail("force", st);
      if (!(st = shipper.Poll()).ok()) return fail("ship poll", st);
      if (!(st = standby.Pump()).ok()) return fail("standby pump", st);
    }
  }
  if (!(st = engine->log().ForceAll()).ok()) return fail("force", st);
  if (!(st = shipper.Poll()).ok()) return fail("ship poll", st);

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto gauge = [&snap](std::string_view name) -> int64_t {
    auto it = snap.gauges.find(std::string(name));
    return it == snap.gauges.end() ? 0 : it->second;
  };
  const ShipperStats& ship = shipper.stats();
  const StandbyStats& stand = standby.stats();

  if (opts.json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("primary_durable_lsn").Uint(shipper.durable_lsn());
    w.Key("standby_applied_lsn").Uint(standby.applied_lsn());
    w.Key("lag");
    w.BeginObject();
    w.Key("lsn").Int(gauge(metric::kShipLagLsn));
    w.Key("records").Int(gauge(metric::kShipLagRecords));
    w.Key("bytes").Int(gauge(metric::kShipLagBytes));
    w.EndObject();
    w.Key("shipper");
    w.BeginObject();
    w.Key("polls").Uint(ship.polls);
    w.Key("batches_sent").Uint(ship.batches_sent);
    w.Key("records_shipped").Uint(ship.records_shipped);
    w.Key("bytes_shipped").Uint(ship.bytes_shipped);
    w.Key("reconnects").Uint(ship.reconnects);
    w.Key("resyncs").Uint(ship.resyncs);
    w.EndObject();
    w.Key("standby");
    w.BeginObject();
    w.Key("batches_applied").Uint(stand.batches_applied);
    w.Key("records_applied").Uint(stand.records_applied);
    w.Key("ops_redone").Uint(stand.ops_redone);
    w.Key("parallel_bursts").Uint(stand.parallel_bursts);
    w.Key("pending_frames").Uint(channel.pending_frames());
    w.EndObject();
    w.Key("metrics").Raw(snap.ToJson());
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
    return 0;
  }

  std::printf("ship status (demo pair, %llu ops):\n",
              static_cast<unsigned long long>(opts.ops));
  std::printf("  primary durable lsn: %llu\n",
              static_cast<unsigned long long>(shipper.durable_lsn()));
  std::printf("  standby applied lsn: %llu\n",
              static_cast<unsigned long long>(standby.applied_lsn()));
  std::printf("  lag: %lld lsn, %lld records, %lld bytes"
              " (%llu frames in flight)\n",
              static_cast<long long>(gauge(metric::kShipLagLsn)),
              static_cast<long long>(gauge(metric::kShipLagRecords)),
              static_cast<long long>(gauge(metric::kShipLagBytes)),
              static_cast<unsigned long long>(channel.pending_frames()));
  std::printf("  shipper: %llu polls, %llu batches, %llu records,"
              " %llu bytes, %llu reconnects, %llu resyncs\n",
              static_cast<unsigned long long>(ship.polls),
              static_cast<unsigned long long>(ship.batches_sent),
              static_cast<unsigned long long>(ship.records_shipped),
              static_cast<unsigned long long>(ship.bytes_shipped),
              static_cast<unsigned long long>(ship.reconnects),
              static_cast<unsigned long long>(ship.resyncs));
  std::printf("  standby: %llu batches applied, %llu records,"
              " %llu ops redone, %llu parallel bursts\n",
              static_cast<unsigned long long>(stand.batches_applied),
              static_cast<unsigned long long>(stand.records_applied),
              static_cast<unsigned long long>(stand.ops_redone),
              static_cast<unsigned long long>(stand.parallel_bursts));
  std::printf("metrics:\n%s", snap.ToString().c_str());
  return 0;
}

/// Log-as-database status demo: the mixed workload on a kLogStore engine
/// with background compaction on a cadence and cold-tier retention GC,
/// then the operational numbers an operator would ask for — how big is
/// the index, where do the bytes live (hot window vs cold segments), how
/// much of the footprint is dead, and what has the compactor done.
int RunLogstoreStats(const InspectOptions& opts) {
  SimulatedDisk disk;
  // Small cold segments so the table shows the GC granularity at demo
  // scale.
  disk.log().set_cold_segment_target(16 * 1024);
  EngineOptions eo;
  eo.backend = StorageBackend::kLogStore;
  eo.purge_threshold_ops = 12;
  eo.checkpoint_interval_ops = 64;
  eo.logstore.compact_interval_ops = 24;
  eo.logstore.compact_batch_objects = 16;
  eo.logstore.cold_retention_full = false;
  RecoveryEngine engine(eo, &disk);

  MixedWorkloadOptions wopts;
  wopts.seed = opts.seed;
  MixedWorkload workload(wopts);
  auto fail = [](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    return 1;
  };
  Status st;
  for (const OperationDesc& op : workload.SetupOps()) {
    if (!(st = engine.Execute(op)).ok()) return fail("logstore demo", st);
  }
  for (uint64_t i = 0; i < opts.ops; ++i) {
    st = engine.Execute(workload.Next());
    if (!st.ok() && !st.IsNotFound()) return fail("logstore demo", st);
  }
  if (!(st = engine.FlushAll()).ok()) return fail("flush", st);
  if (!(st = engine.Checkpoint()).ok()) return fail("checkpoint", st);

  const LogIndex& index = *engine.log_index();
  const StableLogDevice& dev = disk.log();
  const ColdTier& cold = dev.cold_tier();
  const CompactionStats& comp = engine.compactor()->stats();
  const uint64_t live = index.live_bytes();
  const uint64_t footprint = dev.retained_bytes() + cold.total_bytes();
  const uint64_t dead = footprint > live ? footprint - live : 0;
  const double amp =
      live == 0 ? 0.0
                : static_cast<double>(footprint) / static_cast<double>(live);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Index checkpoints on the retained log: the base recovery restarts
  // from and the deltas that extend it.
  LogDumpSummary retained;
  if (!(st = DumpLog(dev.Contents(), nullptr, &retained)).ok()) {
    return fail("dump log", st);
  }

  if (opts.json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("index");
    w.BeginObject();
    w.Key("entries").Uint(index.size());
    w.Key("live_bytes").Uint(live);
    w.Key("min_lsn").Uint(index.MinLsn());
    w.Key("retained_bases").Uint(retained.index_bases);
    w.Key("retained_base_bytes").Uint(retained.index_base_bytes);
    w.Key("retained_deltas").Uint(retained.index_deltas);
    w.Key("retained_delta_bytes").Uint(retained.index_delta_bytes);
    w.EndObject();
    w.Key("footprint");
    w.BeginObject();
    w.Key("hot_bytes").Uint(dev.retained_bytes());
    w.Key("cold_bytes").Uint(cold.total_bytes());
    w.Key("dead_bytes").Uint(dead);
    w.Key("space_amp").Double(amp);
    w.Key("reclaimed_bytes").Uint(dev.reclaimed_bytes());
    w.EndObject();
    w.Key("cold_segments").BeginArray();
    for (const ColdSegment& seg : cold.segments()) {
      w.BeginObject();
      w.Key("start_offset").Uint(seg.start_offset);
      w.Key("end_offset").Uint(seg.end_offset());
      w.Key("bytes").Uint(seg.bytes.size());
      w.EndObject();
    }
    w.EndArray();
    w.Key("compactor");
    w.BeginObject();
    w.Key("runs").Uint(comp.runs);
    w.Key("images_moved").Uint(comp.images_moved);
    w.Key("bytes_moved").Uint(comp.bytes_moved);
    w.Key("noop_runs").Uint(comp.noop_runs);
    w.Key("failures").Uint(comp.failures);
    w.EndObject();
    w.Key("metrics").Raw(snap.ToJson());
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
    return 0;
  }

  std::printf("logstore status (demo workload, %llu ops):\n",
              static_cast<unsigned long long>(opts.ops));
  std::printf("  index: %zu entries, %llu live bytes, min lsn %llu\n",
              index.size(), static_cast<unsigned long long>(live),
              static_cast<unsigned long long>(index.MinLsn()));
  std::printf("  index checkpoints on the retained log: %llu base (%llu"
              " bytes) + %llu delta (%llu bytes)\n",
              static_cast<unsigned long long>(retained.index_bases),
              static_cast<unsigned long long>(retained.index_base_bytes),
              static_cast<unsigned long long>(retained.index_deltas),
              static_cast<unsigned long long>(retained.index_delta_bytes));
  std::printf("  footprint: %llu hot + %llu cold = %llu bytes"
              " (%llu dead, space amp %.2fx)\n",
              static_cast<unsigned long long>(dev.retained_bytes()),
              static_cast<unsigned long long>(cold.total_bytes()),
              static_cast<unsigned long long>(footprint),
              static_cast<unsigned long long>(dead), amp);
  std::printf("  reclaimed: %llu bytes (hot truncation + cold GC)\n",
              static_cast<unsigned long long>(dev.reclaimed_bytes()));
  if (!opts.quiet) {
    std::printf("  cold segments (%zu):\n", cold.segment_count());
    for (const ColdSegment& seg : cold.segments()) {
      std::printf("    [%10llu, %10llu)  %8zu bytes\n",
                  static_cast<unsigned long long>(seg.start_offset),
                  static_cast<unsigned long long>(seg.end_offset()),
                  seg.bytes.size());
    }
  }
  std::printf("  compactor: %llu runs (%llu no-op, %llu failed),"
              " %llu images / %llu bytes moved\n",
              static_cast<unsigned long long>(comp.runs),
              static_cast<unsigned long long>(comp.noop_runs),
              static_cast<unsigned long long>(comp.failures),
              static_cast<unsigned long long>(comp.images_moved),
              static_cast<unsigned long long>(comp.bytes_moved));
  std::printf("metrics (logstore.*):\n");
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("logstore.", 0) == 0 ||
        name == metric::kLogDeviceReclaimedBytes) {
      std::printf("  %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("logstore.", 0) == 0) {
      std::printf("  %-32s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    }
  }
  return 0;
}

int Run(const InspectOptions& opts) {
  SimulatedDisk disk;
  if (opts.demo) {
    Status st = RunDemo(opts, &disk);
    if (!st.ok()) {
      std::fprintf(stderr, "demo workload: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    Status st = ReadDiskImageFile(opts.image_path, &disk);
    if (!st.ok()) {
      std::fprintf(stderr, "open image: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (!opts.save_path.empty()) {
    Status st = WriteDiskImageFile(disk, opts.save_path);
    if (!st.ok()) {
      std::fprintf(stderr, "save image: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!opts.json) {
      std::printf("saved disk image: %s\n", opts.save_path.c_str());
    }
  }

  // The log listing, before recovery touches the disk (recovery trims a
  // torn tail in memory; the listing should show what is actually there).
  std::string listing;
  LogDumpSummary summary;
  Status st = DumpLog(disk.log().Contents(),
                      opts.quiet || opts.json ? nullptr : &listing, &summary);
  if (!st.ok()) {
    std::fprintf(stderr, "dump log: %s\n", st.ToString().c_str());
    return 1;
  }
  LogDumpSummary archive;
  st = DumpLog(disk.log().ArchiveContents(), nullptr, &archive);
  if (!st.ok()) {
    std::fprintf(stderr, "dump archive: %s\n", st.ToString().c_str());
    return 1;
  }

  // Dry-run recovery under tracing. "Dry" relative to the image file:
  // the in-memory disk absorbs the recovery side effects (torn-tail trim,
  // flush-transaction completion) but nothing is written back.
  TraceRecorder& tracer = TraceRecorder::Global();
  RecoveryStats rstats;
  MetricsSnapshot before_recovery = MetricsRegistry::Global().Snapshot();
  bool recovered = false;
  if (opts.recover) {
    tracer.Clear();
    tracer.Enable();
    EngineOptions eo;
    eo.recovery.redo_threads = opts.threads;
    RecoveryEngine engine(eo, &disk);
    st = engine.Recover(&rstats);
    tracer.Disable();
    if (!st.ok()) {
      std::fprintf(stderr, "recovery: %s\n", st.ToString().c_str());
      return 1;
    }
    recovered = true;
  }
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  std::vector<TraceEvent> events = tracer.Events();

  if (!opts.trace_path.empty()) {
    st = tracer.WriteChromeJson(opts.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "write trace: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!opts.json) {
      std::printf("wrote recovery trace: %s\n", opts.trace_path.c_str());
    }
  }

  // CI-artifact exports of the state this run just produced.
  if (!opts.telemetry_out.empty() || !opts.prom_out.empty()) {
    TelemetryExporter exporter({opts.telemetry_out, opts.prom_out, nullptr});
    st = exporter.Sample();
    if (!st.ok()) {
      std::fprintf(stderr, "export telemetry: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!opts.json) {
      std::printf("wrote telemetry sample: %s\n",
                  (opts.telemetry_out.empty() ? opts.prom_out
                                              : opts.telemetry_out)
                      .c_str());
    }
  }
  if (!opts.blackbox_out.empty()) {
    st = WriteBlackBoxFile(opts.blackbox_out, "inspect");
    if (!st.ok()) {
      std::fprintf(stderr, "write black box: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!opts.json) {
      std::printf("wrote black box: %s\n", opts.blackbox_out.c_str());
    }
  }

  if (opts.json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("log").Raw(summary.ToJson());
    w.Key("archive").Raw(archive.ToJson());
    if (recovered) {
      w.Key("recovery").Raw(rstats.ToJson());
      w.Key("recovery_metrics").Raw(after.Delta(before_recovery).ToJson());
    }
    w.Key("io").Raw(disk.stats().ToJson());
    w.Key("metrics").Raw(after.ToJson());
    w.Key("trace_event_count").Uint(events.size());
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
    return 0;
  }

  if (!opts.quiet) std::printf("%s", listing.c_str());
  std::printf("---\nretained log: %s\n", summary.ToString().c_str());
  std::printf("full history:  %s\n", archive.ToString().c_str());
  if (opts.class_mix) {
    std::printf("retained %s", summary.ClassMixToString().c_str());
    std::printf("archive %s", archive.ClassMixToString().c_str());
  }
  std::printf("io:            %s\n", disk.stats().ToString().c_str());
  if (recovered) {
    std::printf("recovery:      %s\n", rstats.ToString().c_str());
    std::printf("recovery timeline (%zu events):\n", events.size());
    PrintTimeline(events, stdout);
  }
  std::printf("metrics:\n%s", after.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace loglog

int main(int argc, char** argv) {
  loglog::InspectOptions opts;
  if (!loglog::ParseArgs(argc, argv, &opts)) return loglog::Usage(argv[0]);
  if (!opts.blackbox_path.empty()) return loglog::RunBlackBox(opts);
  if (opts.ship_status) return loglog::RunShipStatus(opts);
  if (opts.logstore_stats) return loglog::RunLogstoreStats(opts);
  return loglog::Run(opts);
}
