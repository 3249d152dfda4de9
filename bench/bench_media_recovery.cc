// E10 (Section 1 "media recovery" discussion, reconstructing [10]):
// fuzzy online backup under logical logging, with and without the
// copy-order repair, and the cost of media recovery from the image.
//
// Reported per backup pacing (objects copied per burst of execution):
// bytes copied, repair re-copies and their byte overhead, whether naive
// images void operations during media recovery, and media-recovery redo
// counts and wall time.

#include <benchmark/benchmark.h>

#include "backup/backup_manager.h"
#include "backup/media_recovery.h"
#include "engine/recovery_engine.h"
#include "sim/recoverability_oracle.h"
#include "sim/workload.h"

namespace loglog {
namespace {

void BM_FuzzyBackup(benchmark::State& state) {
  const bool repair = state.range(0) != 0;
  const int churn_per_step = static_cast<int>(state.range(1));

  BackupStats bstats;
  RecoveryStats rstats;
  bool image_ok = true;
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedDisk disk;
    EngineOptions opts;
    opts.purge_threshold_ops = 8;
    RecoveryEngine engine(opts, &disk);
    MixedWorkloadOptions wopts;
    wopts.seed = 777;
    MixedWorkload workload(wopts);
    for (const OperationDesc& op : workload.SetupOps()) {
      (void)engine.Execute(op);
    }
    for (int i = 0; i < 150; ++i) {
      Status st = engine.Execute(workload.Next());
      if (!st.ok() && !st.IsNotFound()) {
        state.SkipWithError(st.ToString().c_str());
      }
    }
    (void)engine.FlushAll();

    BackupManager backup(&disk, repair);
    (void)backup.Begin();
    while (!backup.done()) {
      (void)backup.Step(2);
      for (int i = 0; i < churn_per_step; ++i) {
        Status st = engine.Execute(workload.Next());
        if (!st.ok() && !st.IsNotFound()) break;
      }
      // Flushing is what creates copy-order hazards.
      while (engine.cache().uninstalled_ops() > 4) {
        if (!engine.PurgeOne().ok()) break;
      }
    }
    (void)engine.log().ForceAll();
    bstats = backup.stats();
    rstats = RecoveryStats();
    SimulatedDisk fresh;
    std::unique_ptr<RecoveryEngine> recovered;
    state.ResumeTiming();

    // Timed region: media recovery itself.
    Status st = MediaRecover(backup.image(), disk.log().ArchiveContents(),
                             &fresh, &recovered, &rstats);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());

    state.PauseTiming();
    (void)recovered->FlushAll();
    RecoverabilityOracle ref;
    DivergenceReport report;
    image_ok = ref.Advance(disk.log().ArchiveContents(), kMaxLsn).ok() &&
               ref.Compare(fresh.store(), &report, kMaxLsn).ok();
    state.ResumeTiming();
  }
  state.counters["bytes_copied"] = static_cast<double>(bstats.bytes_copied);
  state.counters["repair_recopies"] =
      static_cast<double>(bstats.repair_recopies);
  state.counters["repair_bytes"] = static_cast<double>(bstats.repair_bytes);
  state.counters["mr_ops_redone"] = static_cast<double>(rstats.ops_redone);
  state.counters["mr_voided"] = static_cast<double>(rstats.ops_voided);
  state.counters["recovered_ok"] = image_ok ? 1 : 0;
  state.SetLabel(std::string(repair ? "repaired" : "naive") + "/churn" +
                 std::to_string(churn_per_step));
}

}  // namespace
}  // namespace loglog

BENCHMARK(loglog::BM_FuzzyBackup)
    ->ArgsProduct({{0, 1}, {0, 5, 20}})
    ->ArgNames({"repair", "churn"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
