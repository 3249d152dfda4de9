#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "domains/btree/btree.h"
#include "domains/btree/btree_page.h"
#include "domains/queue/recoverable_queue.h"
#include "engine/recovery_engine.h"
#include "engine/txn_manager.h"
#include "fault/fault_injector.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"

namespace loglog {
namespace {

std::string AsString(const ObjectValue& v) {
  return std::string(v.begin(), v.end());
}

std::string ReadString(RecoveryEngine* engine, ObjectId id) {
  ObjectValue v;
  Status st = engine->Read(id, &v);
  return st.ok() ? AsString(v) : "<" + st.ToString() + ">";
}

TEST(TxnTest, CommitIsDurableAcrossCrash) {
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
  {
    TxnManager tm(&h.engine());
    TxnId id;
    ASSERT_TRUE(tm.Begin(&id).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "updated")).ok());
    ASSERT_TRUE(tm.Execute(id, MakeCreate(2, "fresh")).ok());
    ASSERT_TRUE(tm.Commit(id).ok());
  }
  // Commit forced the log: the whole transaction survives a crash that
  // loses every unforced byte.
  h.Crash();
  ASSERT_TRUE(h.Recover().ok());
  EXPECT_EQ(ReadString(&h.engine(), 1), "updated");
  EXPECT_EQ(ReadString(&h.engine(), 2), "fresh");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(TxnTest, RollbackCompensatesEveryEffect) {
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
  TxnManager tm(&h.engine());
  TxnId id;
  ASSERT_TRUE(tm.Begin(&id).ok());
  ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "dirty")).ok());
  ASSERT_TRUE(tm.Execute(id, MakeCreate(2, "temp")).ok());
  ASSERT_TRUE(tm.Rollback(id).ok());

  EXPECT_EQ(ReadString(&h.engine(), 1), "base");
  EXPECT_FALSE(h.engine().Exists(2));
  // The overwrite restores a before-image; the create is undone by its
  // structural logical inverse (delete).
  EXPECT_GE(tm.undo_stats().image_restores, 1u);
  EXPECT_GE(tm.undo_stats().logical_inverses, 1u);
  EXPECT_EQ(tm.undo_stats().clrs_logged, 2u);

  // Compensation is ordinary logged history: redo repeats it verbatim.
  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  h.Crash();
  ASSERT_TRUE(h.Recover().ok());
  EXPECT_EQ(ReadString(&h.engine(), 1), "base");
  EXPECT_FALSE(h.engine().Exists(2));
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(TxnTest, AbandonedTransactionRolledBackAsLoser) {
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
  {
    TxnManager tm(&h.engine());
    TxnId id;
    ASSERT_TRUE(tm.Begin(&id).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "dirty")).ok());
    ASSERT_TRUE(h.engine().log().ForceAll().ok());
    // The manager dies with the transaction open — its stable records
    // make it a loser for the next recovery.
  }
  h.Crash();
  RecoveryStats rs;
  ASSERT_TRUE(h.Recover(&rs).ok());
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_GE(rs.loser_clrs, 1u);
  EXPECT_EQ(ReadString(&h.engine(), 1), "base");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(TxnTest, RollbackCrashSweepResumesAtEveryDepth) {
  // Crash the rollback between every pair of compensation records (depth
  // 1, 2, ...), force the partial CLR trail stable, and let recovery
  // finish from the last stable CLR's undo-next. Every depth must land in
  // the identical pre-transaction state, nothing compensated twice.
  for (uint64_t depth = 1; depth <= 8; ++depth) {
    SCOPED_TRACE(depth);
    CrashHarness h{EngineOptions{}};
    ASSERT_TRUE(h.Execute(MakeCreate(1, "one")).ok());
    ASSERT_TRUE(h.Execute(MakeCreate(2, "two")).ok());
    TxnManager tm(&h.engine());
    TxnId id;
    ASSERT_TRUE(tm.Begin(&id).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "d1")).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(2, "d2")).ok());
    ASSERT_TRUE(tm.Execute(id, MakeCreate(3, "d3")).ok());
    ASSERT_TRUE(h.engine().log().ForceAll().ok());

    FaultInjector& inj = h.disk().fault_injector();
    inj.Arm(fault::kTxnRollbackCrash, FaultSpec::CrashOnHit(depth));
    Status st = tm.Rollback(id);
    inj.DisarmAll();
    if (st.ok()) {
      // Depth beyond the CLR count: the rollback ran to completion.
      EXPECT_GT(depth, 3u);
    } else {
      EXPECT_TRUE(st.IsAborted()) << st.ToString();
      // Whatever CLRs made it out become stable — recovery must resume
      // after them, not redo them.
      ASSERT_TRUE(h.engine().log().ForceAll().ok());
      h.Crash();
      RecoveryStats rs;
      ASSERT_TRUE(h.Recover(&rs).ok());
      EXPECT_EQ(rs.loser_txns, 1u);
      // Runtime CLRs + loser CLRs together cover each of the three
      // forward operations exactly once.
      EXPECT_EQ(tm.undo_stats().clrs_logged + rs.loser_clrs, 3u);
    }
    EXPECT_EQ(ReadString(&h.engine(), 1), "one");
    EXPECT_EQ(ReadString(&h.engine(), 2), "two");
    EXPECT_FALSE(h.engine().Exists(3));
    EXPECT_TRUE(h.VerifyAgainstReference().ok());
    if (st.ok()) break;
  }
}

TEST(TxnTest, CrashDuringRecoveryRollbackIsRetriable) {
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
  {
    TxnManager tm(&h.engine());
    TxnId id;
    ASSERT_TRUE(tm.Begin(&id).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "d1")).ok());
    ASSERT_TRUE(tm.Execute(id, MakeCreate(2, "d2")).ok());
    ASSERT_TRUE(h.engine().log().ForceAll().ok());
  }
  h.Crash();
  FaultInjector& inj = h.disk().fault_injector();
  inj.Arm(fault::kTxnRollbackCrash, FaultSpec::CrashOnHit(2));
  RecoveryStats rs;
  EXPECT_FALSE(h.Recover(&rs).ok());  // died mid-loser-rollback
  inj.DisarmAll();
  h.Crash();
  ASSERT_TRUE(h.Recover(&rs).ok());
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_EQ(ReadString(&h.engine(), 1), "base");
  EXPECT_FALSE(h.engine().Exists(2));
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(TxnTest, TornCommitDecidedByTheStableRecord) {
  // A commit that crashes between append and force is decided by whether
  // the record happens to survive: lost record => loser, surviving
  // record => committed. Both outcomes must recover consistently.
  for (bool record_survives : {false, true}) {
    SCOPED_TRACE(record_survives);
    CrashHarness h{EngineOptions{}};
    ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
    TxnManager tm(&h.engine());
    TxnId id;
    ASSERT_TRUE(tm.Begin(&id).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "dirty")).ok());
    ASSERT_TRUE(h.engine().log().ForceAll().ok());

    FaultInjector& inj = h.disk().fault_injector();
    inj.Arm(fault::kTxnCommitTorn, FaultSpec::CrashOnHit(1));
    Status st = tm.Commit(id);
    inj.DisarmAll();
    ASSERT_TRUE(st.IsAborted()) << st.ToString();
    if (record_survives) {
      ASSERT_TRUE(h.engine().log().ForceAll().ok());
    }
    h.Crash();
    RecoveryStats rs;
    ASSERT_TRUE(h.Recover(&rs).ok());
    if (record_survives) {
      EXPECT_EQ(rs.loser_txns, 0u);
      EXPECT_EQ(ReadString(&h.engine(), 1), "dirty");
    } else {
      EXPECT_EQ(rs.loser_txns, 1u);
      EXPECT_EQ(ReadString(&h.engine(), 1), "base");
    }
    EXPECT_TRUE(h.VerifyAgainstReference().ok());
  }
}

TEST(TxnTest, CheckpointTruncationKeepsLoserBackchain) {
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
  TxnManager tm(&h.engine());
  TxnId id;
  ASSERT_TRUE(tm.Begin(&id).ok());
  ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "dirty")).ok());
  EXPECT_NE(tm.OldestActiveBeginLsn(), kMaxLsn);
  // The checkpoint truncates the log but clamps at the open
  // transaction's begin record; the backchain survives for the loser
  // pass below.
  ASSERT_TRUE(h.engine().Checkpoint().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.Execute(MakeCreate(1000 + i, "filler")).ok());
  }
  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  h.Crash();
  RecoveryStats rs;
  ASSERT_TRUE(h.Recover(&rs).ok());
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_EQ(ReadString(&h.engine(), 1), "base");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(TxnTest, TxnIdWatermarkSurvivesCheckpointTruncation) {
  // After a checkpoint truncates every transaction record off the live
  // log, recovery must still know the highest id ever issued (the
  // checkpoint carries it) — otherwise a new transaction would reuse a
  // finished one's id and the archive would conflate their histories.
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "base")).ok());
  TxnId last = 0;
  {
    TxnManager tm(&h.engine());
    for (int i = 0; i < 3; ++i) {
      TxnId id;
      ASSERT_TRUE(tm.Begin(&id).ok());
      ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "v")).ok());
      ASSERT_TRUE(tm.Commit(id).ok());
      last = id;
    }
  }
  ASSERT_TRUE(h.engine().FlushAll().ok());
  ASSERT_TRUE(h.engine().Checkpoint().ok());
  h.Crash();
  RecoveryStats rs;
  ASSERT_TRUE(h.Recover(&rs).ok());
  EXPECT_EQ(rs.max_txn_id, last);
  TxnManager tm2(&h.engine());
  TxnId fresh;
  ASSERT_TRUE(tm2.Begin(&fresh).ok());
  EXPECT_GT(fresh, last);
  ASSERT_TRUE(tm2.Rollback(fresh).ok());
}

TEST(TxnTest, QueueEnqueueRollsBackByRetreat) {
  CrashHarness h{EngineOptions{}};
  RecoverableQueue q(&h.engine());
  ASSERT_TRUE(q.Open().ok());
  ASSERT_TRUE(q.Enqueue("m0").ok());

  // A transactional enqueue: the same two operations Enqueue logs, but
  // in transaction scope. Rolling back undoes the tail bump with the
  // registered retreat inverse — no meta before-image needed — and the
  // message create with a delete.
  const ObjectId meta = 300'000;
  const ObjectId msg = 300'000 + 1 + 1;  // MessageId(tail=1)
  OperationDesc bump;
  bump.op_class = OpClass::kPhysiological;
  bump.func = kFuncQueueAdvanceTail;
  bump.writes = {meta};
  bump.reads = {meta};
  TxnManager tm(&h.engine());
  TxnId id;
  ASSERT_TRUE(tm.Begin(&id).ok());
  ASSERT_TRUE(tm.Execute(id, MakeCreate(msg, "m1")).ok());
  ASSERT_TRUE(tm.Execute(id, bump).ok());
  ASSERT_TRUE(tm.Rollback(id).ok());
  EXPECT_EQ(tm.undo_stats().logical_inverses, 2u);
  EXPECT_EQ(tm.undo_stats().image_restores, 0u);

  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  h.Crash();
  ASSERT_TRUE(h.Recover().ok());
  RecoverableQueue reopened(&h.engine());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.tail(), 1u);
  EXPECT_FALSE(h.engine().Exists(msg));
  ObjectValue front;
  ASSERT_TRUE(reopened.Peek(&front).ok());
  EXPECT_EQ(AsString(front), "m0");
}

TEST(TxnTest, BtreeInsertRollsBackByErase) {
  CrashHarness h{EngineOptions{}};
  RegisterBtreeTransforms();
  const ObjectId page_id = 777;
  ObjectValue page = BtreePage::EmptyLeaf();
  ASSERT_TRUE(BtreePage::LeafPut(&page, 7, Slice("seven")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(page_id, Slice(page))).ok());

  // Fresh-key insert: exactly inverted by erase (logical, no image).
  OperationDesc insert;
  insert.op_class = OpClass::kPhysiological;
  insert.func = kFuncBtreeInsertLeaf;
  insert.writes = {page_id};
  insert.reads = {page_id};
  PutVarint64(&insert.params, 42);
  PutLengthPrefixed(&insert.params, Slice("fresh"));

  // Replacing insert on the same key: erase would lose the old value, so
  // the engine must fall back to a page before-image.
  OperationDesc replace = insert;
  replace.params.clear();
  PutVarint64(&replace.params, 7);
  PutLengthPrefixed(&replace.params, Slice("SEVEN"));

  TxnManager tm(&h.engine());
  TxnId id;
  ASSERT_TRUE(tm.Begin(&id).ok());
  ASSERT_TRUE(tm.Execute(id, insert).ok());
  ASSERT_TRUE(tm.Execute(id, replace).ok());
  ASSERT_TRUE(tm.Rollback(id).ok());
  EXPECT_EQ(tm.undo_stats().logical_inverses, 1u);
  EXPECT_EQ(tm.undo_stats().image_restores, 1u);

  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  h.Crash();
  ASSERT_TRUE(h.Recover().ok());
  ObjectValue bytes;
  ASSERT_TRUE(h.engine().Read(page_id, &bytes).ok());
  BtreePage after;
  PageSearch hit;
  ASSERT_TRUE(BtreePage::Search(Slice(bytes), 42, &after, &hit).ok());
  EXPECT_FALSE(hit.found);
  ASSERT_TRUE(BtreePage::Search(Slice(bytes), 7, &after, &hit).ok());
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(AsString(hit.value.ToBytes()), "seven");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

}  // namespace
}  // namespace loglog
