#include <gtest/gtest.h>

#include "ops/op_builder.h"
#include "storage/simulated_disk.h"
#include "wal/log_dump.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace loglog {
namespace {

LogRecord OpRecord(Lsn lsn, OperationDesc op) {
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.lsn = lsn;
  rec.op = std::move(op);
  return rec;
}

TEST(LogRecordTest, OperationRoundTrip) {
  LogRecord rec = OpRecord(42, MakeAppRead(7, 9));
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  Slice s(buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(&s, &out).ok());
  EXPECT_EQ(out.type, RecordType::kOperation);
  EXPECT_EQ(out.lsn, 42u);
  EXPECT_TRUE(out.op == rec.op);
  EXPECT_TRUE(s.empty());
}

TEST(LogRecordTest, ReusedRecordDropsStaleTxnTrailer) {
  // Log cursors decode every record into one LogRecord; a
  // non-transactional operation after a transactional one must not
  // inherit its txn id, backchain or before-images.
  LogRecord txn_op = OpRecord(5, MakePhysicalWrite(1, "a"));
  txn_op.txn_id = 9;
  txn_op.prev_lsn = 4;
  txn_op.undo_images = {UndoImage{true, ObjectValue{'z'}}};
  LogRecord plain = OpRecord(6, MakePhysicalWrite(2, "b"));
  std::vector<uint8_t> buf;
  txn_op.EncodeTo(&buf);
  std::vector<uint8_t> buf2;
  plain.EncodeTo(&buf2);

  LogRecord out;
  Slice s(buf);
  ASSERT_TRUE(LogRecord::DecodeFrom(&s, &out).ok());
  EXPECT_EQ(out.txn_id, 9u);
  Slice s2(buf2);
  ASSERT_TRUE(LogRecord::DecodeFrom(&s2, &out).ok());
  EXPECT_EQ(out.lsn, 6u);
  EXPECT_EQ(out.txn_id, 0u);
  EXPECT_EQ(out.prev_lsn, kInvalidLsn);
  EXPECT_TRUE(out.undo_images.empty());
}

TEST(LogRecordTest, CheckpointRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.lsn = 10;
  rec.dot = {{1, 5, false}, {2, 7, true}};
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  Slice s(buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(&s, &out).ok());
  ASSERT_EQ(out.dot.size(), 2u);
  EXPECT_EQ(out.dot[0].id, 1u);
  EXPECT_EQ(out.dot[0].rsi, 5u);
  EXPECT_FALSE(out.dot[0].dead);
  EXPECT_TRUE(out.dot[1].dead);
}

TEST(LogRecordTest, InstallRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kInstall;
  rec.lsn = 11;
  rec.installed_vars = {{3, kInvalidLsn}, {4, 9}};
  rec.installed_notx = {{5, 12}};
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  Slice s(buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(&s, &out).ok());
  ASSERT_EQ(out.installed_vars.size(), 2u);
  EXPECT_EQ(out.installed_vars[0].rsi, kInvalidLsn);
  ASSERT_EQ(out.installed_notx.size(), 1u);
  EXPECT_EQ(out.installed_notx[0].id, 5u);
}

TEST(LogRecordTest, FlushTxnRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kFlushTxnBegin;
  rec.lsn = 20;
  rec.flush_values.push_back({1, 15, {0xaa, 0xbb}, false});
  rec.flush_values.push_back({2, 16, {}, true});
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  Slice s(buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(&s, &out).ok());
  ASSERT_EQ(out.flush_values.size(), 2u);
  EXPECT_EQ(out.flush_values[0].value, (std::vector<uint8_t>{0xaa, 0xbb}));
  EXPECT_TRUE(out.flush_values[1].erase);

  LogRecord commit;
  commit.type = RecordType::kFlushTxnCommit;
  commit.lsn = 21;
  commit.ref_lsn = 20;
  buf.clear();
  commit.EncodeTo(&buf);
  Slice s2(buf);
  ASSERT_TRUE(LogRecord::DecodeFrom(&s2, &out).ok());
  EXPECT_EQ(out.ref_lsn, 20u);
}

TEST(LogRecordTest, FramingDetectsCorruption) {
  LogRecord rec = OpRecord(1, MakePhysicalWrite(1, "value"));
  std::vector<uint8_t> framed;
  FrameRecord(rec, &framed);

  // Intact record decodes.
  Slice ok(framed);
  LogRecord out;
  ASSERT_TRUE(ReadFramedRecord(&ok, &out).ok());

  // Bit flip in payload breaks the checksum.
  std::vector<uint8_t> flipped = framed;
  flipped.back() ^= 0x1;
  Slice bad(flipped);
  EXPECT_TRUE(ReadFramedRecord(&bad, &out).IsCorruption());

  // Truncated header/payload is a torn record.
  for (size_t keep : {1ul, 4ul, 7ul, framed.size() - 1}) {
    std::vector<uint8_t> torn(framed.begin(), framed.begin() + keep);
    Slice t(torn);
    EXPECT_TRUE(ReadFramedRecord(&t, &out).IsCorruption()) << keep;
  }

  // Empty input is a clean end of log.
  Slice empty;
  EXPECT_TRUE(ReadFramedRecord(&empty, &out).IsNotFound());
}

TEST(LogManagerTest, AppendAssignsDenseLsns) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  EXPECT_EQ(log.Append(OpRecord(0, MakePhysicalWrite(1, "a"))), 1u);
  EXPECT_EQ(log.Append(OpRecord(0, MakePhysicalWrite(1, "b"))), 2u);
  EXPECT_EQ(log.last_assigned_lsn(), 2u);
  EXPECT_EQ(log.last_stable_lsn(), 0u);
  EXPECT_EQ(log.volatile_record_count(), 2u);
}

TEST(LogManagerTest, ForceMakesPrefixStable) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  for (int i = 0; i < 5; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(1, "x")));
  }
  ASSERT_TRUE(log.Force(3).ok());
  EXPECT_EQ(log.last_stable_lsn(), 3u);
  EXPECT_EQ(log.volatile_record_count(), 2u);
  EXPECT_EQ(disk.stats().log_forces, 1u);

  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(
      LogManager::ReadStable(disk.log(), &records, &torn, &next, &valid_end)
          .ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(next, 4u);

  ASSERT_TRUE(log.ForceAll().ok());
  EXPECT_EQ(log.last_stable_lsn(), 5u);
}

TEST(LogManagerTest, ForceBelowStableIsNoop) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  log.Append(OpRecord(0, MakePhysicalWrite(1, "x")));
  ASSERT_TRUE(log.ForceAll().ok());
  uint64_t forces = disk.stats().log_forces;
  ASSERT_TRUE(log.Force(1).ok());
  EXPECT_EQ(disk.stats().log_forces, forces);
}

TEST(LogManagerTest, RecoverySeedsFromExistingLog) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    for (int i = 0; i < 3; ++i) {
      log.Append(OpRecord(0, MakePhysicalWrite(1, "x")));
    }
    ASSERT_TRUE(log.ForceAll().ok());
  }
  LogManager revived(&disk.log());
  EXPECT_EQ(revived.last_stable_lsn(), 3u);
  EXPECT_EQ(revived.Append(OpRecord(0, MakePhysicalWrite(1, "y"))), 4u);
}

TEST(LogManagerTest, TornTailStopsCleanly) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  for (int i = 0; i < 3; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(1, "abcdefgh")));
  }
  ASSERT_TRUE(log.ForceAll().ok());
  disk.log().TearTail(5);

  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(
      LogManager::ReadStable(disk.log(), &records, &torn, &next, &valid_end)
          .ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(next, 3u);
  EXPECT_LT(valid_end, disk.log().end_offset());
}

TEST(LogManagerTest, TruncateBeforeDropsPrefix) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  for (int i = 0; i < 4; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(1, "x")));
    ASSERT_TRUE(log.ForceAll().ok());  // one force per record
  }
  uint64_t before = disk.log().retained_bytes();
  log.TruncateBefore(3);
  EXPECT_LT(disk.log().retained_bytes(), before);

  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(
      LogManager::ReadStable(disk.log(), &records, &torn, &next, &valid_end)
          .ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 3u);
  // The archive still holds everything for verification.
  EXPECT_GT(disk.log().ArchiveContents().size(),
            disk.log().retained_bytes());
}

TEST(LogDumpTest, SummarizesAndPrints) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  log.Append(OpRecord(0, MakePhysicalWrite(1, "v")));
  log.Append(OpRecord(0, MakeCopy(2, 1)));
  LogRecord ckpt;
  ckpt.type = RecordType::kCheckpoint;
  log.Append(std::move(ckpt));
  LogRecord install;
  install.type = RecordType::kInstall;
  install.installed_vars = {{1, kInvalidLsn}};
  log.Append(std::move(install));
  ASSERT_TRUE(log.ForceAll().ok());

  std::string text;
  LogDumpSummary summary;
  ASSERT_TRUE(DumpLog(disk.log().Contents(), &text, &summary).ok());
  EXPECT_EQ(summary.operations, 2u);
  EXPECT_EQ(summary.checkpoints, 1u);
  EXPECT_EQ(summary.installs, 1u);
  EXPECT_EQ(summary.total(), 4u);
  EXPECT_FALSE(summary.torn_tail);
  EXPECT_NE(text.find("checkpoint"), std::string::npos);
  EXPECT_NE(text.find("lsn=1"), std::string::npos);

  // Torn tails are reported, not errors; nullptr output means scan-only.
  disk.log().TearTail(3);
  ASSERT_TRUE(DumpLog(disk.log().Contents(), nullptr, &summary).ok());
  EXPECT_TRUE(summary.torn_tail);
  EXPECT_EQ(summary.total(), 3u);
}

TEST(LogManagerTest, TruncateToEndDropsEverything) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  log.Append(OpRecord(0, MakePhysicalWrite(1, "x")));
  ASSERT_TRUE(log.ForceAll().ok());
  log.TruncateBefore(100);  // beyond all stable records
  EXPECT_EQ(disk.log().retained_bytes(), 0u);
}

}  // namespace
}  // namespace loglog
