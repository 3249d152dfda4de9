// Storm soak runner: the crash grid, the transactional (abort) matrix and
// the failover chain, all driven by RunStorm. Unlike the rest of the
// suite this binary owns its main() so the iteration count is tunable:
//
//   loglog_storm_test --storm-iters=N     (or env LOGLOG_STORM_ITERS=N)
//
// The short default (25 iterations x 12 crash configurations = 300
// randomized crash/fault injections) runs as the tier-1
// `crash_storm_short` test; `ctest -C soak` runs the long configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/storm.h"

namespace loglog {
namespace {

int g_storm_iters = 25;

// Where failing configs leave their black box. CI points this at the
// artifact directory via LOGLOG_STORM_ARTIFACTS so a red storm uploads
// its flight-recorder tail; locally it lands in the gtest temp dir.
std::string StormArtifactPath(const std::string& config_name) {
  std::string dir;
  if (const char* env = std::getenv("LOGLOG_STORM_ARTIFACTS")) {
    dir = env;
  } else {
    dir = testing::TempDir();
  }
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + "storm-" + config_name + ".blackbox";
}

struct StormConfig {
  const char* name;
  LoggingMode logging;
  GraphKind graph;
  FlushPolicy flush;
  RedoTestKind redo;
  uint64_t seed;
  /// Redo worker threads during every recovery of the storm (1 = serial).
  int redo_threads = 1;
  /// WAL batching policy under fire (group commit coalesces forces).
  ForcePolicy force_policy = ForcePolicy::kImmediate;
  /// Adaptive logging policy: per-write class promotion plus (budget > 0)
  /// proactive W_IP installs, soaked against the same fault mix.
  bool adaptive = false;
  uint64_t budget = 0;
  /// Storage backend: kLogStore configs serve every post-recovery read
  /// from the log index (the store stays empty), so the verification
  /// exercises the rebuild-and-read path instead of the store compare.
  StorageBackend backend = StorageBackend::kDualWrite;
  /// Log-store compaction cadence in ops (0 = none): compaction passes
  /// run inside the fault-armed bursts, racing crashes and torn tails.
  uint64_t compact_every = 0;
};

// Two logging modes x all four flush policies, with graph kinds, redo
// tests, redo parallelism and force policies varied across the grid so
// every enum value is under fire. The parallel-redo configs soak the
// worker pool against crash faults, torn tails, bit rot and re-crashed
// recoveries — anything that diverges from the serial path fails the
// post-recovery verification.
constexpr StormConfig kConfigs[] = {
    {"LogicalNativeAtomic", LoggingMode::kLogical, GraphKind::kRefined,
     FlushPolicy::kNativeAtomic, RedoTestKind::kRsiGeneralized, 1001},
    {"LogicalIdentityWrites", LoggingMode::kLogical, GraphKind::kRefined,
     FlushPolicy::kIdentityWrites, RedoTestKind::kRsiFixpoint, 1002,
     /*redo_threads=*/4},
    {"LogicalFlushTransaction", LoggingMode::kLogical, GraphKind::kW,
     FlushPolicy::kFlushTransaction, RedoTestKind::kRsiGeneralized, 1003,
     /*redo_threads=*/4, ForcePolicy::kGroup},
    {"LogicalShadow", LoggingMode::kLogical, GraphKind::kRefined,
     FlushPolicy::kShadow, RedoTestKind::kVsi, 1004},
    {"PhysiologicalNativeAtomic", LoggingMode::kPhysiological,
     GraphKind::kRefined, FlushPolicy::kNativeAtomic,
     RedoTestKind::kRsiGeneralized, 1005, /*redo_threads=*/1,
     ForcePolicy::kSizeThreshold},
    {"PhysiologicalIdentityWrites", LoggingMode::kPhysiological,
     GraphKind::kRefined, FlushPolicy::kIdentityWrites, RedoTestKind::kVsi,
     1006, /*redo_threads=*/2},
    {"PhysiologicalFlushTransaction", LoggingMode::kPhysiological,
     GraphKind::kRefined, FlushPolicy::kFlushTransaction,
     RedoTestKind::kRsiFixpoint, 1007, /*redo_threads=*/4,
     ForcePolicy::kGroup},
    {"PhysiologicalShadow", LoggingMode::kPhysiological,
     GraphKind::kRefined, FlushPolicy::kShadow,
     RedoTestKind::kRsiGeneralized, 1008},
    {"AdaptiveIdentityWrites", LoggingMode::kLogical, GraphKind::kRefined,
     FlushPolicy::kIdentityWrites, RedoTestKind::kRsiGeneralized, 1009,
     /*redo_threads=*/4, ForcePolicy::kGroup, /*adaptive=*/true,
     /*budget=*/32},
    {"AdaptiveNoBudget", LoggingMode::kLogical, GraphKind::kRefined,
     FlushPolicy::kIdentityWrites, RedoTestKind::kRsiFixpoint, 1010,
     /*redo_threads=*/2, ForcePolicy::kImmediate, /*adaptive=*/true,
     /*budget=*/0},
    // Log-as-database: no store writes ever; recovery rebuilds the log
    // index and verification reads everything back through it (including
    // cold-tier faulted reads once truncation has spilled segments).
    {"LogStore", LoggingMode::kLogical, GraphKind::kRefined,
     FlushPolicy::kNativeAtomic, RedoTestKind::kVsi, 1011,
     /*redo_threads=*/1, ForcePolicy::kImmediate, /*adaptive=*/false,
     /*budget=*/0, StorageBackend::kLogStore},
    // Same, with the background compactor racing the crash/fault mix:
    // W_IP rewrite batches and their index republishes must be crash-
    // consistent at every interleaving.
    {"LogStoreCompaction", LoggingMode::kLogical, GraphKind::kW,
     FlushPolicy::kNativeAtomic, RedoTestKind::kRsiGeneralized, 1012,
     /*redo_threads=*/1, ForcePolicy::kGroup, /*adaptive=*/false,
     /*budget=*/0, StorageBackend::kLogStore, /*compact_every=*/24},
};

class CrashStormTest : public testing::TestWithParam<StormConfig> {};

TEST_P(CrashStormTest, SurvivesTheStorm) {
  const StormConfig& cfg = GetParam();
  StormOptions options;
  options.engine.logging_mode = cfg.logging;
  options.engine.graph_kind = cfg.graph;
  options.engine.flush_policy = cfg.flush;
  options.engine.redo_test = cfg.redo;
  options.engine.recovery.redo_threads = cfg.redo_threads;
  options.engine.wal_force_policy = cfg.force_policy;
  // Purge aggressively so flushes (and their fault sites) happen inside
  // the fault-armed bursts, not only in the post-disarm verification.
  options.engine.purge_threshold_ops = 12;
  options.engine.backend = cfg.backend;
  options.engine.logstore.compact_interval_ops = cfg.compact_every;
  if (cfg.adaptive) {
    options.engine.adaptive.enabled = true;
    options.engine.adaptive.hot_interval_writes = 8.0;
    options.engine.adaptive.cold_interval_writes = 24.0;
    options.engine.adaptive.small_value_bytes = 32;
    options.engine.adaptive.large_value_bytes = 96;
    options.engine.adaptive.decision_cooldown_writes = 4;
    options.engine.recovery_budget = cfg.budget;
  }
  options.seed = cfg.seed;
  options.iterations = g_storm_iters;
  options.blackbox_on_failure = StormArtifactPath(cfg.name);

  StormStats stats;
  Status st = RunStorm(options, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n  " << stats.ToString();
  SCOPED_TRACE(stats.ToString());
  std::printf("[ STORM    ] %s: %s\n", cfg.name, stats.ToString().c_str());
  // Every iteration crashed at least once and verified after recovery.
  EXPECT_EQ(stats.iterations, static_cast<uint64_t>(g_storm_iters));
  EXPECT_EQ(stats.verify_passes, stats.iterations);
  EXPECT_GE(stats.crashes, stats.iterations);
  EXPECT_GE(stats.recoveries, stats.iterations);
  // The fault mix actually bit: over a whole storm at least one armed
  // fault must have fired (they are randomized per iteration). Too few
  // iterations may legitimately arm or fire nothing, so this sanity
  // check only holds at scale.
  if (g_storm_iters >= 10) {
    EXPECT_GT(stats.faults_armed, 0u);
    EXPECT_GT(stats.faults_fired, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Storm, CrashStormTest,
                         testing::ValuesIn(kConfigs),
                         [](const testing::TestParamInfo<StormConfig>& i) {
                           return std::string(i.param.name);
                         });

struct AbortStormConfig {
  const char* name;
  uint64_t seed;
  /// Interleaving degree (transactions open at once).
  int max_txns;
  int abort_inject_percent;
  int explicit_abort_percent;
  int rollback_crash_percent;
  int commit_torn_percent;
  /// Share of iterations that end in failover instead of a crash.
  int failover_percent = 0;
  StorageBackend backend = StorageBackend::kDualWrite;
};

// The (interleaving, injected-abort, crash-point) matrix: each axis gets
// a config that leans on it hard, plus one with everything at once. Every
// iteration of every config ends in a crash (or a failover) and its
// recovery, then the repeat-history verification and the committed-only
// serial oracle.
constexpr AbortStormConfig kAbortConfigs[] = {
    // Aborts and rollbacks but no crash faults: compensation itself.
    {"CleanAborts", 3001, 3, 60, 40, 0, 0},
    // Crash at a random depth of (almost) every rollback, runtime or
    // recovery loser pass; resumed rollback must not double-compensate.
    {"RollbackCrashes", 3002, 4, 60, 30, 100, 0},
    // Commit records appended but never forced: the torn-commit window.
    {"TornCommits", 3003, 4, 40, 10, 0, 100},
    // Wide interleaving drives strict-2PL conflict aborts.
    {"WideInterleave", 3004, 8, 30, 25, 25, 15},
    // Everything at once.
    {"FullStorm", 3005, 6, 60, 25, 50, 35},
    // Some iterations fail over instead of crashing: the burst ships to a
    // backup-seeded standby which promotes with transactions in flight
    // and rolls them back as losers; both oracles follow the chain.
    {"FailoverTxns", 3006, 4, 40, 25, 35, 20, /*failover_percent=*/30},
    // Log-as-database under transactions: both oracles compare through
    // the engine's read path instead of the stable store.
    {"LogStoreTxns", 3007, 4, 60, 25, 35, 20, /*failover_percent=*/0,
     StorageBackend::kLogStore},
};

class AbortStormTest : public testing::TestWithParam<AbortStormConfig> {};

TEST_P(AbortStormTest, EquivalentToSerialOracle) {
  const AbortStormConfig& cfg = GetParam();
  StormOptions options;
  // Transactional bursts require native-atomic installation (see
  // StormOptions::max_txns).
  options.engine.flush_policy = FlushPolicy::kNativeAtomic;
  // Purge aggressively so installs land inside transactional bursts.
  options.engine.purge_threshold_ops = 12;
  options.engine.backend = cfg.backend;
  options.seed = cfg.seed;
  options.iterations = g_storm_iters;
  options.checkpoint_every = 5;
  options.max_txns = cfg.max_txns;
  options.failover_percent = cfg.failover_percent;
  options.abort_inject_percent = cfg.abort_inject_percent;
  options.explicit_abort_percent = cfg.explicit_abort_percent;
  options.rollback_crash_percent = cfg.rollback_crash_percent;
  options.commit_torn_percent = cfg.commit_torn_percent;
  options.blackbox_on_failure =
      StormArtifactPath(std::string("abort-") + cfg.name);

  StormStats stats;
  Status st = RunStorm(options, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n  " << stats.ToString();
  std::printf("[ STORM    ] Abort/%s: %s\n", cfg.name,
              stats.ToString().c_str());
  EXPECT_EQ(stats.iterations, static_cast<uint64_t>(g_storm_iters));
  // Both verifications ran after every recovery.
  EXPECT_EQ(stats.verify_passes, stats.iterations);
  EXPECT_EQ(stats.oracle_passes, stats.iterations);
  EXPECT_GE(stats.crashes + stats.failovers, stats.iterations);
  EXPECT_GE(stats.recoveries + stats.failovers, stats.iterations);
  EXPECT_GT(stats.txns_begun, 0u);
  if (g_storm_iters >= 10) {
    // At scale the mix must actually bite: commits, rollbacks, and
    // losers for the recovery pass.
    EXPECT_GT(stats.txns_committed, 0u);
    EXPECT_GT(stats.txns_rolled_back, 0u);
    EXPECT_GT(stats.clrs_logged, 0u);
    EXPECT_GT(stats.loser_txns, 0u);
    if (cfg.rollback_crash_percent >= 100) {
      EXPECT_GT(stats.rollback_crashes, 0u);
    }
    if (cfg.commit_torn_percent >= 100) {
      EXPECT_GT(stats.torn_commits, 0u);
    }
    if (cfg.failover_percent > 0) {
      EXPECT_GT(stats.failovers, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Storm, AbortStormTest,
                         testing::ValuesIn(kAbortConfigs),
                         [](const testing::TestParamInfo<AbortStormConfig>& i) {
                           return std::string(i.param.name);
                         });

// Replication counterpart: primary-crash -> failover -> re-seed rounds
// with randomized channel faults, scaled from the same iteration knob
// (every ~5 storm iterations buys one full failover round).
TEST(FailoverStormTest, SurvivesFailoverRounds) {
  StormOptions options;
  options.failover_percent = 100;
  options.min_ops = 48;
  options.max_ops = 160;
  options.checkpoint_every = 2;
  options.engine.purge_threshold_ops = 12;
  // Install records would interleave with the shipped stream mid-burst;
  // the standby handles them, but keeping the primary's log purely
  // operational makes the storm's divergence audit reading simpler.
  options.engine.log_installs = false;
  options.standby.redo_threads = 2;
  options.standby.parallel_apply_threshold = 24;
  options.seed = 2026;
  options.iterations = std::clamp(g_storm_iters / 5, 2, 64);
  options.blackbox_on_failure = StormArtifactPath("failover");

  StormStats stats;
  Status st = RunStorm(options, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n  " << stats.ToString();
  std::printf("[ STORM    ] Failover: %s\n", stats.ToString().c_str());
  EXPECT_EQ(stats.iterations, static_cast<uint64_t>(options.iterations));
  EXPECT_EQ(stats.failovers, stats.iterations);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.verify_passes, stats.iterations);
  EXPECT_EQ(stats.channel_faults_armed, stats.iterations);
  EXPECT_GT(stats.rto_us_max, 0u);
}

}  // namespace
}  // namespace loglog

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (const char* env = std::getenv("LOGLOG_STORM_ITERS")) {
    loglog::g_storm_iters = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--storm-iters=";
    if (arg.rfind(prefix, 0) == 0) {
      loglog::g_storm_iters = std::atoi(arg.c_str() + prefix.size());
    }
  }
  if (loglog::g_storm_iters <= 0) loglog::g_storm_iters = 25;
  return RUN_ALL_TESTS();
}
