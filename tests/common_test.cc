#include <gtest/gtest.h>

#include <limits>

#include "common/coding.h"
#include "common/crc32.h"
#include "obs/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace loglog {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  EXPECT_TRUE(Status::OK().ok());
  Status nf = Status::NotFound("missing");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: missing");
  EXPECT_EQ(Status::Corruption("x").code(), Status::Code::kCorruption);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fn = [](bool fail) -> Status {
    LOGLOG_RETURN_IF_ERROR(fail ? Status::IoError("boom") : Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(fn(false).ok());
  EXPECT_TRUE(fn(true).IsIoError());
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  StatusOr<int> bad(Status::NotFound("no"));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(SliceTest, BasicsAndComparison) {
  std::string s = "hello";
  Slice a(s);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.ToString(), "hello");
  Slice b("hello");
  EXPECT_EQ(a, b);
  b.RemovePrefix(1);
  EXPECT_EQ(b.ToString(), "ello");
  EXPECT_NE(a, b);
  EXPECT_TRUE(Slice().empty());
}

TEST(CodingTest, FixedRoundTrip) {
  std::vector<uint8_t> buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice s(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&s, &v32).ok());
  ASSERT_TRUE(GetFixed64(&s, &v64).ok());
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(s.empty());
}

class VarintRoundTrip : public testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, GetParam());
  EXPECT_EQ(buf.size(), VarintLength(GetParam()));
  Slice s(buf);
  uint64_t v;
  ASSERT_TRUE(GetVarint64(&s, &v).ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(s.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    testing::Values(0u, 1u, 127u, 128u, 300u, 16383u, 16384u, 1u << 30,
                    (1ull << 35) + 7, std::numeric_limits<uint64_t>::max()));

TEST(CodingTest, TruncatedInputsFail) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1u << 20);
  buf.pop_back();
  Slice s(buf);
  uint64_t v;
  EXPECT_TRUE(GetVarint64(&s, &v).IsCorruption());

  std::vector<uint8_t> buf2 = {0x01, 0x02};
  Slice s2(buf2);
  uint32_t v32;
  EXPECT_TRUE(GetFixed32(&s2, &v32).IsCorruption());
}

// The plain decoder DecodeVarint64 must agree with: up to ten bytes, 7
// bits each, a clear top bit ends it, and a tenth byte with a clear top
// bit is accepted with only its lowest bit kept.
const uint8_t* ReferenceDecodeVarint64(const uint8_t* p, const uint8_t* limit,
                                       uint64_t* v) {
  uint64_t result = 0;
  for (int i = 0; i < 10 && p < limit; ++i) {
    const uint64_t byte = *p++;
    result |= (byte & 0x7f) << (7 * i);
    if (byte < 0x80) {
      *v = result;
      return p;
    }
  }
  return nullptr;
}

// Decodes `bytes` with the limit `distance` bytes past the start, from a
// buffer of exactly that size (so a read past the limit is a heap
// overflow under ASan), and compares with the reference: same cursor,
// same value, and *v untouched on failure.
void ExpectDecodeMatchesReference(const std::vector<uint8_t>& bytes,
                                  size_t distance) {
  const std::vector<uint8_t> buf(bytes.begin(),
                                 bytes.begin() + static_cast<ptrdiff_t>(
                                                     distance));
  constexpr uint64_t kUntouched = 0x5eed5eed5eed5eedull;
  uint64_t want = kUntouched, got = kUntouched;
  const uint8_t* const begin = buf.data();
  const uint8_t* const want_end =
      ReferenceDecodeVarint64(begin, begin + distance, &want);
  const uint8_t* const got_end = DecodeVarint64(begin, begin + distance, &got);
  ASSERT_EQ(got_end == nullptr, want_end == nullptr)
      << "distance " << distance << " first byte " << int(bytes[0]);
  if (want_end != nullptr) {
    ASSERT_EQ(got_end - begin, want_end - begin) << "distance " << distance;
  }
  ASSERT_EQ(got, want) << "distance " << distance;
}

// Every varint length 1-10 (and 11-byte, overlong inputs), every limit
// distance 0-16 (so truncations and the boundary of the path that skips
// per-byte bounds checks when ten bytes are in bounds), random group bits
// and trailing bytes.
TEST(CodingTest, DecodeVarint64MatchesReferenceByLengthAndLimit) {
  Random rng(2718);
  for (size_t length = 1; length <= 11; ++length) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<uint8_t> bytes = rng.Bytes(16);
      for (size_t i = 0; i < length && i < 10; ++i) {
        const bool last = i + 1 == length;
        bytes[i] = last ? bytes[i] & 0x7f : bytes[i] | 0x80;
      }
      // Overlong-but-valid encodings: zero groups before the stop byte.
      if (trial % 8 == 1) {
        for (size_t i = 0; i + 1 < length && i < 10; ++i) bytes[i] = 0x80;
      }
      if (trial % 8 == 2 && length <= 10) bytes[length - 1] = 0;
      for (size_t distance = 0; distance <= 16; ++distance) {
        ExpectDecodeMatchesReference(bytes, distance);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// The tenth byte: a set top bit makes the varint overlong; otherwise only
// its lowest bit lands, whatever the others hold.
TEST(CodingTest, DecodeVarint64TenthByteRule) {
  Random rng(31);
  for (int tenth = 0; tenth < 256; ++tenth) {
    for (uint8_t fill : {uint8_t{0x80}, uint8_t{0xff}, uint8_t{0}}) {
      std::vector<uint8_t> bytes = rng.Bytes(16);
      for (int i = 0; i < 9; ++i) {
        bytes[i] = fill == 0 ? static_cast<uint8_t>(bytes[i] | 0x80) : fill;
      }
      bytes[9] = static_cast<uint8_t>(tenth);
      for (size_t distance : {9, 10, 11, 16}) {
        ExpectDecodeMatchesReference(bytes, distance);
        if (testing::Test::HasFatalFailure()) return;
      }
      uint64_t v = 0;
      const uint8_t* end = DecodeVarint64(bytes.data(), bytes.data() + 16, &v);
      if (tenth < 0x80) {
        ASSERT_EQ(end, bytes.data() + 10);
        EXPECT_EQ(v >> 63, static_cast<uint64_t>(tenth & 1));
      } else {
        EXPECT_EQ(end, nullptr);
      }
    }
  }
}

// Random bytes of every top-bit pattern, decoded at every offset of a
// buffer: unaligned starts and every limit.
TEST(CodingTest, DecodeVarint64MatchesReferenceOnRandomBytes) {
  Random rng(99);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<uint8_t> bytes = rng.Bytes(16);
    const uint64_t continuation = rng.Next();
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = ((continuation >> i) & 1) != 0 ? bytes[i] | 0x80
                                                 : bytes[i] & 0x7f;
    }
    ExpectDecodeMatchesReference(bytes, rng.Uniform(17));
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::vector<uint8_t> buf;
  PutLengthPrefixed(&buf, "abc");
  PutLengthPrefixed(&buf, "");
  Slice s(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixed(&s, &a).ok());
  ASSERT_TRUE(GetLengthPrefixed(&s, &b).ok());
  EXPECT_EQ(a.ToString(), "abc");
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, LengthPrefixedTruncatedFails) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 100);  // claims 100 bytes but provides none
  Slice s(buf);
  Slice v;
  EXPECT_TRUE(GetLengthPrefixed(&s, &v).IsCorruption());
}

TEST(Crc32Test, KnownVectorAndProperties) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(Slice("")), 0u);
  // Extension property.
  uint32_t whole = Crc32c(Slice("hello world"));
  uint32_t ext = Crc32cExtend(Crc32c(Slice("hello ")), Slice("world"));
  EXPECT_EQ(whole, ext);
  // Sensitivity.
  EXPECT_NE(Crc32c(Slice("hello")), Crc32c(Slice("hellp")));
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  EXPECT_EQ(Random(9).Bytes(32).size(), 32u);
  EXPECT_EQ(Random(9).Bytes(32), Random(9).Bytes(32));
}

TEST(Mix64Test, DeterministicAndDispersive) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(HistogramTest, StatsAndPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.Percentile(0.5), 50u);
  EXPECT_EQ(h.Percentile(0.99), 99u);
  EXPECT_EQ(h.CountOf(42), 1u);
  EXPECT_EQ(h.CountOf(1000), 0u);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

}  // namespace
}  // namespace loglog
