// Two-node failover demo: a primary streams its WAL to a log-shipped
// standby over a faulty channel, the primary dies mid-flight, and the
// standby promotes and keeps serving — including everything that was
// still in the replication pipeline at the moment of the crash.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/example_failover_demo

#include <cstdio>
#include <memory>

#include "engine/recovery_engine.h"
#include "ops/op_builder.h"
#include "sim/recoverability_oracle.h"
#include "ship/log_shipper.h"
#include "ship/replication_channel.h"
#include "ship/standby_applier.h"
#include "sim/workload.h"
#include "storage/simulated_disk.h"

using namespace loglog;

static int Die(const char* what, const Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  return 1;
}

int main() {
  // Node A: an ordinary primary. Node B: a cold standby behind an
  // in-process channel with fault-injection sites (ship.channel.*).
  SimulatedDisk primary_disk;
  auto primary = std::make_unique<RecoveryEngine>(EngineOptions{},
                                                  &primary_disk);
  ReplicationChannel channel(&primary_disk.fault_injector());
  StandbyOptions standby_opts;
  standby_opts.redo_threads = 2;  // burst catch-up uses the redo pool
  StandbyApplier standby(&channel, standby_opts);
  LogShipper shipper(&primary_disk.log(), &channel);

  // The primary runs the mixed workload, shipping every 8 operations.
  // One frame is silently dropped mid-stream: the standby detects the
  // LSN gap, NAKs back to its applied watermark, and the shipper
  // rewinds — replication survives without any manual repair.
  primary_disk.fault_injector().Arm(fault::kShipSend, FaultSpec::LostOnce());
  MixedWorkloadOptions wopts;
  wopts.seed = 99;
  MixedWorkload workload(wopts);
  Status st;
  for (const OperationDesc& op : workload.SetupOps()) {
    if (!(st = primary->Execute(op)).ok()) return Die("setup", st);
  }
  for (int i = 0; i < 240; ++i) {
    st = primary->Execute(workload.Next());
    if (!st.ok() && !st.IsNotFound()) return Die("workload", st);
    if (i % 8 == 0) {
      // Only stable bytes ship: force, then poll/pump one round.
      if (!(st = primary->log().ForceAll()).ok()) return Die("force", st);
      if (!(st = shipper.Poll()).ok()) return Die("ship", st);
      if (!(st = standby.Pump()).ok()) return Die("apply", st);
    }
  }
  if (!(st = primary->log().ForceAll()).ok()) return Die("force", st);
  if (!(st = shipper.Poll()).ok()) return Die("ship", st);

  std::printf("primary durable lsn %llu, standby applied lsn %llu "
              "(%llu records shipped, %llu gap NAKs)\n",
              (unsigned long long)shipper.durable_lsn(),
              (unsigned long long)standby.applied_lsn(),
              (unsigned long long)shipper.stats().records_shipped,
              (unsigned long long)standby.stats().batches_gap);

  // The primary crashes. Its volatile state is gone; only the stable
  // disk (which we keep for the audit) and the frames already in the
  // channel survive.
  primary.reset();
  std::printf("-- primary crashed --\n");

  // Promote: drain the channel, install the replicated prefix, run
  // ordinary recovery on the standby's own disk. rto_us measures the
  // whole takeover.
  PromotionResult promo;
  if (!(st = standby.Promote(EngineOptions{}, &promo)).ok()) {
    return Die("promote", st);
  }
  std::printf("standby promoted at lsn %llu in %llu us\n",
              (unsigned long long)promo.applied_lsn,
              (unsigned long long)promo.rto_us);

  // Audit: the promoted node's stable state (values AND version state
  // identifiers) must equal a sequential replay of the dead primary's
  // log through the promoted watermark.
  DivergenceReport report;
  st = RunDivergenceAudit(primary_disk.log().ArchiveContents(),
                          promo.applied_lsn, promo.disk->store(), &report);
  if (!st.ok()) return Die("divergence audit", st);
  std::printf("divergence audit clean: %s\n", report.ToString().c_str());

  // The promoted node serves reads and writes at LSNs the dead primary
  // never issued.
  Lsn lsn = 0;
  st = promo.engine->Execute(MakeCreate(4242, "written after failover"),
                             &lsn);
  if (!st.ok()) return Die("post-failover write", st);
  ObjectValue value;
  if (!(st = promo.engine->Read(4242, &value)).ok()) {
    return Die("post-failover read", st);
  }
  std::printf("post-failover write at lsn %llu: \"%.*s\"\n",
              (unsigned long long)lsn, (int)value.size(),
              reinterpret_cast<const char*>(value.data()));
  return 0;
}
