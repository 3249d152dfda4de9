// E20 (log as database): what dropping the second write of the data
// buys, what reading from the log costs, and what compaction cadence
// does to space amplification.
//
// The dual-write backend pays for every object twice — once into the
// log, once into the stable store at install. The log-store backend
// installs by *pointing* (a LogIndex publish against the forced log
// bytes), so the data is written exactly once. Three series:
//
//   WriteThroughput  ops/sec per backend, with the simulated device
//                    both free (io:0, pure CPU) and charging a per-I/O
//                    latency (io:1, the paper's cost model — I/Os
//                    dominate). Acceptance: kLogStore >= 1.5x
//                    kDualWrite under the device model.
//   Read             per-read cost by source: cache hit, log (hot
//                    window) fault-in, cold-tier fault-in.
//   SpaceAmp         total device footprint (hot window + retained cold
//                    segments) over live bytes, as the compaction
//                    cadence varies, with archive retention set to
//                    GC-below-oldest-live (cold_retention_full=false).
//                    A skewed workload — most objects written once, a
//                    hot few overwritten forever — makes the stakes
//                    real: without compaction the cold-resident live
//                    images pin the whole archive and the footprint
//                    grows with history; a steady cadence rewrites them
//                    forward so checkpoints release the dead prefix.
//                    Acceptance: < 2x under steady compaction.
//
// `--smoke` (the bench_logstore_smoke ctest entry) runs every shape at
// minimum duration — a pipeline check, not a measurement.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "engine/recovery_engine.h"
#include "logstore/compactor.h"
#include "ops/op_builder.h"
#include "storage/simulated_disk.h"

namespace loglog {
namespace {

constexpr int kObjects = 64;
constexpr int kPayloadBytes = 256;
// Device model for io:1 rows: a few microseconds per object install and
// per log force, identical for both backends — only the I/O *count*
// differs.
constexpr uint32_t kStoreWriteUs = 2;
constexpr uint64_t kLogAppendUs = 2;

std::string Payload(int round, ObjectId id) {
  std::string s = "r" + std::to_string(round) + "-o" + std::to_string(id) +
                  "-";
  s.resize(kPayloadBytes, 'x');
  return s;
}

EngineOptions BaseOpts(StorageBackend backend) {
  EngineOptions opts;
  opts.backend = backend;
  opts.flush_policy = FlushPolicy::kNativeAtomic;
  opts.purge_threshold_ops = 16;
  opts.checkpoint_interval_ops = 256;
  return opts;
}

// Steady overwrite stream: `ops` writes round-robin over kObjects, all
// full images (the builders' kPhysical class), installs riding the
// purge cadence.
Status RunWrites(RecoveryEngine* engine, int ops) {
  for (int i = 0; i < ops; ++i) {
    Status st = engine->Execute(
        MakePhysicalWrite(1 + (i % kObjects), Payload(i / kObjects, i)));
    if (!st.ok()) return st;
  }
  return engine->FlushAll();
}

void BM_LogstoreWriteThroughput(benchmark::State& state) {
  const StorageBackend backend = state.range(0) == 0
                                     ? StorageBackend::kDualWrite
                                     : StorageBackend::kLogStore;
  const bool device_model = state.range(1) != 0;
  constexpr int kOps = 600;

  uint64_t object_writes = 0;
  uint64_t log_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedDisk disk;
    if (device_model) {
      disk.store().set_sim_latency(/*read_us=*/kStoreWriteUs,
                                   /*write_us=*/kStoreWriteUs);
      disk.log().set_append_latency_us(kLogAppendUs);
    }
    RecoveryEngine engine(BaseOpts(backend), &disk);
    state.ResumeTiming();

    Status st = RunWrites(&engine, kOps);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());

    state.PauseTiming();
    object_writes = disk.stats().object_writes +
                    disk.stats().objects_in_atomic_writes;
    log_bytes = disk.stats().log_bytes;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
  state.counters["object_writes"] = static_cast<double>(object_writes);
  state.counters["log_kb"] = static_cast<double>(log_bytes) / 1024.0;
  state.SetLabel(std::string(backend == StorageBackend::kLogStore
                                 ? "logstore"
                                 : "dual-write") +
                 (device_model ? "/device" : "/cpu"));
}

void BM_LogstoreRead(benchmark::State& state) {
  // source 0 = cache hit, 1 = hot-window log fault-in, 2 = cold tier.
  const int source = static_cast<int>(state.range(0));

  SimulatedDisk disk;
  RecoveryEngine engine(BaseOpts(StorageBackend::kLogStore), &disk);
  for (ObjectId id = 1; id <= kObjects; ++id) {
    Status st = engine.Execute(MakePhysicalWrite(id, Payload(0, id)));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  Status st = engine.FlushAll();
  if (st.ok() && source == 2) {
    // Checkpoint truncation spills the live images below the horizon to
    // the cold tier (the floor deliberately ignores LogIndex::MinLsn).
    st = engine.Checkpoint();
    if (st.ok() && disk.log().cold_tier().total_bytes() == 0) {
      st = Status::Corruption("images did not spill cold");
    }
  }
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());

  ObjectValue value;
  for (auto _ : state) {
    if (source != 0) {
      state.PauseTiming();
      engine.cache().EvictTo(0);
      state.ResumeTiming();
    }
    for (ObjectId id = 1; id <= kObjects; ++id) {
      Status rst = engine.Read(id, &value);
      if (!rst.ok()) state.SkipWithError(rst.ToString().c_str());
      benchmark::DoNotOptimize(value.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
  state.SetLabel(source == 0 ? "cache-hit"
                             : (source == 1 ? "log-hot" : "log-cold"));
}

void BM_LogstoreSpaceAmp(benchmark::State& state) {
  // Compaction cadence in ops; 0 disables the compactor. Time measures
  // the whole workload, so cadence overhead shows up as throughput.
  const uint64_t cadence = static_cast<uint64_t>(state.range(0));
  constexpr int kTotalObjects = 256;  // live set ~64 KiB of payload
  constexpr int kHotObjects = 16;
  constexpr int kOps = 2000;

  double space_amp = 0.0;
  double cold_kb = 0.0;
  double hot_kb = 0.0;
  double live_kb = 0.0;
  double reclaimed_kb = 0.0;
  uint64_t compaction_runs = 0;
  uint64_t moved_kb = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedDisk disk;
    // Fine-grained cold segments: GC releases whole segments only, so
    // the coalescing target is the reclamation granularity.
    disk.log().set_cold_segment_target(8 * 1024);
    EngineOptions opts = BaseOpts(StorageBackend::kLogStore);
    opts.checkpoint_interval_ops = 128;
    opts.logstore.compact_interval_ops = cadence;
    opts.logstore.compact_batch_objects = 32;
    opts.logstore.cold_retention_full = false;
    RecoveryEngine engine(opts, &disk);
    state.ResumeTiming();

    // One pass over every object, then a hot few overwritten forever —
    // the once-written majority is what compaction keeps unsticking.
    Status st = Status::OK();
    for (ObjectId id = 1; st.ok() && id <= kTotalObjects; ++id) {
      st = engine.Execute(MakePhysicalWrite(id, Payload(0, id)));
    }
    for (int i = 0; st.ok() && i < kOps; ++i) {
      st = engine.Execute(MakePhysicalWrite(1 + (i % kHotObjects),
                                            Payload(1 + i / kHotObjects, i)));
    }
    if (st.ok()) st = engine.FlushAll();
    if (st.ok()) st = engine.Checkpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());

    state.PauseTiming();
    uint64_t live = engine.log_index()->live_bytes();
    uint64_t hot = disk.log().retained_bytes();
    uint64_t cold = disk.log().cold_tier().total_bytes();
    space_amp = live == 0 ? 0.0
                          : static_cast<double>(hot + cold) /
                                static_cast<double>(live);
    cold_kb = static_cast<double>(cold) / 1024.0;
    hot_kb = static_cast<double>(hot) / 1024.0;
    live_kb = static_cast<double>(live) / 1024.0;
    reclaimed_kb = static_cast<double>(disk.log().reclaimed_bytes()) / 1024.0;
    if (engine.compactor() != nullptr) {
      compaction_runs = engine.compactor()->stats().runs;
      moved_kb = engine.compactor()->stats().bytes_moved / 1024;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
  state.counters["space_amp"] = space_amp;
  state.counters["cold_kb"] = cold_kb;
  state.counters["hot_kb"] = hot_kb;
  state.counters["live_kb"] = live_kb;
  state.counters["reclaimed_kb"] = reclaimed_kb;
  state.counters["compaction_runs"] = static_cast<double>(compaction_runs);
  state.counters["moved_kb"] = static_cast<double>(moved_kb);
  state.SetLabel(cadence == 0 ? "no-compaction"
                              : "every-" + std::to_string(cadence));
}

}  // namespace
}  // namespace loglog

BENCHMARK(loglog::BM_LogstoreWriteThroughput)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->ArgNames({"logstore", "io"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(loglog::BM_LogstoreRead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"source"})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(loglog::BM_LogstoreSpaceAmp)
    ->Arg(0)
    ->Arg(64)
    ->Arg(16)
    ->ArgNames({"cadence"})
    ->Unit(benchmark::kMillisecond);

// Custom main for the `--smoke` pipeline check: strip the flag and run
// every shape at minimum duration (wired up as the bench_logstore_smoke
// ctest entry).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool smoke = false;
  for (auto it = args.begin(); it != args.end();) {
    if (std::string(*it) == "--smoke") {
      smoke = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (smoke) args.insert(args.begin() + 1, min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
