#include <gtest/gtest.h>

#include "common/coding.h"
#include "btree_page_oracle.h"
#include "common/random.h"
#include "domains/btree/btree_page.h"
#include "ops/op_builder.h"
#include "recovery/txn_undo.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace loglog {
namespace {

// One of each transactional record form (and a checkpoint carrying the
// txn-id watermark), for the fuzz rounds below.
std::vector<LogRecord> TxnRecordCorpus() {
  std::vector<LogRecord> recs;
  LogRecord begin;
  begin.type = RecordType::kTxnBegin;
  begin.lsn = 10;
  begin.txn_id = 3;
  begin.prev_lsn = kInvalidLsn;
  recs.push_back(begin);
  LogRecord op;
  op.type = RecordType::kOperation;
  op.lsn = 11;
  op.txn_id = 3;
  op.prev_lsn = 10;
  op.op = MakePhysicalWrite(5, "payload");
  op.undo_images.push_back({true, {'o', 'l', 'd'}});
  recs.push_back(op);
  LogRecord clr;
  clr.type = RecordType::kCompensation;
  clr.lsn = 12;
  clr.txn_id = 3;
  clr.prev_lsn = 11;
  clr.undo_next_lsn = 10;
  clr.undo_skip = 0;
  clr.op = MakePhysicalWrite(5, "old");
  recs.push_back(clr);
  LogRecord abort;
  abort.type = RecordType::kTxnAbort;
  abort.lsn = 13;
  abort.txn_id = 3;
  abort.prev_lsn = 12;
  recs.push_back(abort);
  LogRecord commit;
  commit.type = RecordType::kTxnCommit;
  commit.lsn = 14;
  commit.txn_id = 4;
  commit.prev_lsn = 9;
  recs.push_back(commit);
  LogRecord ckpt;
  ckpt.type = RecordType::kCheckpoint;
  ckpt.lsn = 15;
  ckpt.txn_id = 4;  // the id high-water mark, not a transaction
  ckpt.dot.push_back({7, 11, false});
  recs.push_back(ckpt);
  // Log-store index checkpoint: object -> (lsn, device extent) entries.
  // A scribbled offset or size here would send recovery's faulted reads
  // into the weeds, so decode robustness matters as much as for the
  // transactional forms.
  LogRecord idx;
  idx.type = RecordType::kIndexCheckpoint;
  idx.lsn = 16;
  idx.index_entries.push_back({/*id=*/5, /*lsn=*/11, /*offset=*/128,
                               /*size=*/64});
  idx.index_entries.push_back({/*id=*/9, /*lsn=*/14, /*offset=*/4096,
                               /*size=*/257});
  recs.push_back(idx);
  // A delta over that base: one republished entry, one erasure.
  LogRecord delta;
  delta.type = RecordType::kIndexCheckpoint;
  delta.lsn = 300;
  delta.ref_lsn = 16;
  delta.index_entries.push_back({/*id=*/5, /*lsn=*/200, /*offset=*/8192,
                                 /*size=*/70});
  delta.index_entries.push_back({/*id=*/9});
  recs.push_back(delta);
  return recs;
}

// Robustness: decoders must reject arbitrary and mutated bytes with a
// Status, never crash or accept trailing garbage. (Recovery reads these
// from a device that can hand it torn or scribbled sectors.)

class DecodeFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesNeverCrashDecoders) {
  Random rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk = rng.Bytes(rng.Uniform(64));
    {
      Slice s(junk);
      LogRecord rec;
      (void)LogRecord::DecodeFrom(&s, &rec);
    }
    {
      Slice s(junk);
      OperationDesc op;
      (void)OperationDesc::DecodeFrom(&s, &op);
    }
    {
      BtreePage page;
      PageSearch hit;
      (void)BtreePage::Parse(Slice(junk), &page);
      (void)BtreePage::Search(Slice(junk), rng.Next(), &page, &hit);
    }
    {
      Slice s(junk);
      LogRecord rec;
      (void)ReadFramedRecord(&s, &rec);
    }
  }
}

TEST_P(DecodeFuzzTest, MutatedValidRecordsAreRejectedOrEquivalent) {
  Random rng(GetParam() * 31 + 5);
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.lsn = 42;
  rec.op = MakeAppRead(7, 9);
  std::vector<uint8_t> framed;
  FrameRecord(rec, &framed);

  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = framed;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    Slice s(mutated);
    LogRecord out;
    Status st = ReadFramedRecord(&s, &out);
    // The CRC catches every single-byte payload flip; header flips can
    // only fail (bad length) — never decode to a different record.
    EXPECT_TRUE(st.IsCorruption()) << "pos " << pos;
  }
}

TEST_P(DecodeFuzzTest, TruncationsOfValidEncodingsFail) {
  Random rng(GetParam() * 7 + 3);
  for (const OperationDesc& op :
       {MakeAppRead(1, 2), MakePhysicalWrite(3, "payload"),
        MakeSort(4, 5, 16), MakeHashCombine(6, {7, 8}, 64, 9)}) {
    std::vector<uint8_t> bytes;
    op.EncodeTo(&bytes);
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
      Slice s(cut);
      OperationDesc out;
      Status st = OperationDesc::DecodeFrom(&s, &out);
      // Either a clean rejection, or (rarely) a shorter valid prefix —
      // but then bytes must remain unconsumed... a full parse of a strict
      // prefix cannot leave the cursor empty AND equal the original.
      if (st.ok()) {
        EXPECT_FALSE(out == op) << keep;
      }
    }
  }
}

TEST_P(DecodeFuzzTest, TxnRecordMutationsAreRejected) {
  // Single-byte flips over framed transactional records (begin, in-txn
  // operation with before-image trailer, compensation, abort, commit,
  // watermark checkpoint) must always fail the frame CRC — a scribbled
  // backchain or undo-next LSN can never decode as a different record.
  Random rng(GetParam() * 17 + 1);
  for (const LogRecord& rec : TxnRecordCorpus()) {
    std::vector<uint8_t> framed;
    FrameRecord(rec, &framed);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> mutated = framed;
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      Slice s(mutated);
      LogRecord out;
      EXPECT_TRUE(ReadFramedRecord(&s, &out).IsCorruption())
          << "type " << static_cast<int>(rec.type) << " pos " << pos;
    }
  }
}

TEST(DecodeTxnTest, TxnRecordTruncationsFail) {
  // Every strict prefix of a framed transactional record is an
  // incomplete frame; none may decode successfully.
  for (const LogRecord& rec : TxnRecordCorpus()) {
    std::vector<uint8_t> framed;
    FrameRecord(rec, &framed);
    for (size_t keep = 0; keep < framed.size(); ++keep) {
      std::vector<uint8_t> cut(framed.begin(), framed.begin() + keep);
      Slice s(cut);
      LogRecord out;
      EXPECT_FALSE(ReadFramedRecord(&s, &out).ok())
          << "type " << static_cast<int>(rec.type) << " keep " << keep;
    }
  }
}

TEST(DecodeTxnTest, ZeroTxnIdPayloadsRejected) {
  // txn_id == 0 marks a record non-transactional, so a marker or CLR
  // carrying it is contradictory and must be rejected at decode.
  for (RecordType type : {RecordType::kTxnBegin, RecordType::kTxnCommit,
                          RecordType::kTxnAbort, RecordType::kCompensation}) {
    std::vector<uint8_t> payload;
    payload.push_back(static_cast<uint8_t>(type));
    PutVarint64(&payload, /*lsn=*/20);
    PutVarint64(&payload, /*txn_id=*/0);
    PutVarint64(&payload, /*prev_lsn=*/19);
    Slice s(payload);
    LogRecord out;
    EXPECT_TRUE(LogRecord::DecodeFrom(&s, &out).IsCorruption())
        << static_cast<int>(type);
  }
}

LogRecord IndexCheckpoint(Lsn lsn, Lsn base,
                          std::vector<IndexCheckpointEntry> entries) {
  LogRecord rec;
  rec.type = RecordType::kIndexCheckpoint;
  rec.lsn = lsn;
  rec.ref_lsn = base;
  rec.index_entries = std::move(entries);
  return rec;
}

Status DecodeBytes(const std::vector<uint8_t>& bytes, LogRecord* out) {
  Slice s(bytes);
  LOGLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(&s, out));
  return s.empty() ? Status::OK() : Status::Corruption("trailing bytes");
}

void ExpectSameIndexRecord(const LogRecord& got, const LogRecord& want) {
  EXPECT_EQ(got.type, RecordType::kIndexCheckpoint);
  EXPECT_EQ(got.lsn, want.lsn);
  EXPECT_EQ(got.ref_lsn, want.ref_lsn);
  ASSERT_EQ(got.index_entries.size(), want.index_entries.size());
  for (size_t i = 0; i < want.index_entries.size(); ++i) {
    const IndexCheckpointEntry& g = got.index_entries[i];
    const IndexCheckpointEntry& w = want.index_entries[i];
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.lsn, w.lsn);
    EXPECT_EQ(g.offset, w.offset);
    EXPECT_EQ(g.size, w.size);
  }
}

TEST(DecodeIndexCheckpointTest, BaseAndDeltaRoundTrip) {
  LogRecord base = IndexCheckpoint(
      700, kInvalidLsn, {{5, 11, 128, 64}, {1u << 20, 600, 1u << 30, 300}});
  LogRecord delta =
      IndexCheckpoint(900, 700, {{5, 800, 9000, 65}, {1u << 20}, {77}});
  for (const LogRecord& rec : {base, delta}) {
    std::vector<uint8_t> bytes;
    rec.EncodeTo(&bytes);
    EXPECT_EQ(bytes.size(), rec.EncodedSize());
    LogRecord out;
    ASSERT_TRUE(DecodeBytes(bytes, &out).ok());
    ExpectSameIndexRecord(out, rec);
    // And through the device framing.
    std::vector<uint8_t> framed;
    FrameRecord(rec, &framed);
    Slice s(framed);
    LogRecord framed_out;
    ASSERT_TRUE(ReadFramedRecord(&s, &framed_out).ok());
    ExpectSameIndexRecord(framed_out, rec);
  }
  EXPECT_EQ(base.DebugString(), "Rec{lsn=700 type=index-checkpoint base n=2}");
  EXPECT_EQ(delta.DebugString(),
            "Rec{lsn=900 type=index-checkpoint delta n=1 erased=2 base=700}");
}

TEST(DecodeIndexCheckpointTest, RecordWithoutTrailerDecodesAsBase) {
  // The layout before deltas existed: count, entries, nothing after.
  std::vector<uint8_t> bytes;
  bytes.push_back(static_cast<uint8_t>(RecordType::kIndexCheckpoint));
  PutVarint64(&bytes, /*lsn=*/40);
  PutVarint64(&bytes, /*count=*/1);
  for (uint64_t v : {3u, 12u, 512u, 80u}) PutVarint64(&bytes, v);
  LogRecord out;
  out.ref_lsn = 99;  // stale field from a reused record
  ASSERT_TRUE(DecodeBytes(bytes, &out).ok());
  EXPECT_EQ(out.ref_lsn, kInvalidLsn);
  ASSERT_EQ(out.index_entries.size(), 1u);
  EXPECT_EQ(out.index_entries[0].offset, 512u);
}

TEST(DecodeIndexCheckpointTest, BadTrailersAreCorruption) {
  // A base LSN of 300 takes a two-byte varint; cutting its last byte
  // leaves a truncated varint, never a base.
  LogRecord delta = IndexCheckpoint(400, 300, {{5, 350, 64, 20}});
  std::vector<uint8_t> bytes;
  delta.EncodeTo(&bytes);
  bytes.pop_back();
  LogRecord out;
  EXPECT_TRUE(DecodeBytes(bytes, &out).IsCorruption());

  // A zero base, or one at or after the delta itself.
  for (Lsn bad : {Lsn{0}, Lsn{400}, Lsn{401}}) {
    std::vector<uint8_t> b;
    IndexCheckpoint(400, kInvalidLsn, {{5, 350, 64, 20}}).EncodeTo(&b);
    PutVarint64(&b, bad);
    EXPECT_TRUE(DecodeBytes(b, &out).IsCorruption()) << bad;
  }

  // An erasure belongs in a delta only.
  std::vector<uint8_t> base_bytes;
  IndexCheckpoint(400, kInvalidLsn, {{5, 350, 64, 20}, {6}})
      .EncodeTo(&base_bytes);
  EXPECT_TRUE(DecodeBytes(base_bytes, &out).IsCorruption());
}

TEST(DecodeTxnTest, CorruptBackchainLsnIsRejectedByRollback) {
  // A compensation record whose undo-next LSN points off the
  // transaction's backchain (decode-valid bytes, corrupted meaning) must
  // stop the rollback with Corruption, not silently skip or re-undo.
  SimulatedDisk disk;
  LogManager log(&disk.log());
  CacheManager cm(&disk, &log, GraphKind::kRefined,
                  FlushPolicy::kNativeAtomic, /*log_installs=*/true);
  FaultInjector faults;
  TxnRollbackPlan plan;
  plan.txn_id = 9;
  plan.last_lsn = 33;
  plan.forward.push_back(
      {/*lsn=*/30, MakePhysicalWrite(1, "x"), {{true, {'o'}}}});
  plan.resume_lsn = 500;  // not the LSN of any forward record
  TxnUndoStats stats;
  Status st = RollbackTxn(&cm, &log, &faults, plan, /*io_budget=*/1, &stats);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(stats.clrs_logged, 0u);
}

// Valid pages of both kinds whose varint fields take every length.
std::vector<ObjectValue> PageCorpus(Random* rng) {
  auto any = [&] { return rng->Next() >> rng->Uniform(64); };
  std::vector<ObjectValue> corpus;
  for (int i = 0; i < 12; ++i) {
    ReferencePage page;
    page.is_leaf = i % 2 == 0;
    page.next_leaf = page.is_leaf && i % 4 == 0 ? kInvalidObjectId : any();
    page.first_child = page.is_leaf ? kInvalidObjectId : any();
    const size_t n = rng->Uniform(i < 4 ? 3 : 40);
    for (size_t e = 0; e < n; ++e) {
      if (page.is_leaf) {
        page.LeafInsert(any(), Slice(rng->Bytes(rng->Uniform(
                                   rng->OneIn(4) ? 200 : 8))));
      } else {
        page.InternalInsert(any(), any());
      }
    }
    corpus.push_back(page.Serialize());
  }
  return corpus;
}

// The page validator behind every B-tree page read accepts exactly the
// pages the decoding model accepts, rejects the rest with Corruption and,
// run under ASan, never reads outside the page (each candidate sits in an
// exactly-sized buffer).
TEST_P(DecodeFuzzTest, PageValidatorAcceptsExactlyWhatReferenceAccepts) {
  Random rng(GetParam() * 13 + 1);
  size_t accepted = 0, rejected = 0;
  for (const ObjectValue& page : PageCorpus(&rng)) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<uint8_t> m = page;
      switch (rng.Uniform(5)) {
        case 0:  // flip a byte
          if (!m.empty()) {
            m[rng.Uniform(m.size())] ^=
                static_cast<uint8_t>(1 + rng.Uniform(255));
          }
          break;
        case 1:  // truncate
          m.resize(rng.Uniform(m.size() + 1));
          break;
        case 2:  // trailing garbage
          for (uint64_t n = rng.Range(1, 3); n > 0; --n) {
            m.push_back(static_cast<uint8_t>(rng.Next()));
          }
          break;
        case 3:  // stretch a varint with a continuation byte
          m.insert(m.begin() + static_cast<ptrdiff_t>(rng.Uniform(m.size() + 1)),
                   rng.OneIn(2) ? 0x80 : 0xff);
          break;
        default:  // unchanged
          break;
      }
      const std::vector<uint8_t> exact(m.begin(), m.end());
      ReferencePage ref;
      const bool want = ReferencePage::Deserialize(Slice(exact), &ref).ok();
      BtreePage view;
      Status got = BtreePage::Parse(Slice(exact), &view);
      ASSERT_EQ(got.ok(), want) << "trial " << trial;
      PageSearch hit;
      Status searched =
          BtreePage::Search(Slice(exact), rng.Next(), &view, &hit);
      ASSERT_EQ(searched.ok(), want) << "trial " << trial;
      if (!want) {
        EXPECT_TRUE(got.IsCorruption()) << got.ToString();
        EXPECT_TRUE(searched.IsCorruption()) << searched.ToString();
        ++rejected;
        continue;
      }
      ++accepted;
      // Accepted pages read back exactly as the model decodes them.
      ASSERT_EQ(view.is_leaf(), ref.is_leaf);
      ASSERT_EQ(view.count(), ref.EntryCount());
      if (ref.is_leaf) {
        EXPECT_EQ(view.next_leaf(), ref.next_leaf);
      } else {
        EXPECT_EQ(view.first_child(), ref.first_child);
      }
      size_t i = 0;
      PageEntry e;
      for (BtreePage::Cursor c = view.entries(); c.Next(&e); ++i) {
        if (ref.is_leaf) {
          EXPECT_EQ(e.key, ref.leaf_entries[i].key);
          EXPECT_EQ(e.value.ToBytes(), ref.leaf_entries[i].value);
        } else {
          EXPECT_EQ(e.key, ref.internal_entries[i].key);
          EXPECT_EQ(e.child, ref.internal_entries[i].child);
        }
      }
      EXPECT_EQ(i, ref.EntryCount());
    }
  }
  // Both outcomes must actually occur for the comparison to mean much.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest, testing::Values(1, 2, 3));

}  // namespace
}  // namespace loglog
