// Round-trip tests for every Serde specialization that can cross the
// map->reduce boundary. dwm_lint's serde-roundtrip rule enforces that each
// specialization under src/ is exercised here: a Put/Get pair that is not
// byte-symmetric corrupts every record that follows it in a shuffle buffer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "dist/serde.h"
#include "mr/checkpoint.h"
#include "wavelet/synopsis.h"

namespace dwm::mr {
namespace {

// Serializes `value`, decodes it, and checks that (a) Get consumed exactly
// the bytes Put produced and (b) re-encoding the decoded value reproduces
// the same bytes. Returns the decoded value for field-level checks.
template <typename T>
T RoundTrip(const T& value) {
  ByteBuffer buf;
  Serde<T>::Put(buf, value);
  ByteReader reader(buf);
  T decoded = Serde<T>::Get(reader);
  EXPECT_TRUE(reader.Done()) << "Get consumed fewer bytes than Put produced";
  ByteBuffer again;
  Serde<T>::Put(again, decoded);
  EXPECT_EQ(again.size(), buf.size());
  EXPECT_EQ(std::memcmp(again.data(), buf.data(), buf.size()), 0)
      << "re-encoding the decoded value produced different bytes";
  return decoded;
}

TEST(SerdeRoundtripTest, Uint8) {
  EXPECT_EQ(RoundTrip<uint8_t>(0), 0);
  EXPECT_EQ(RoundTrip<uint8_t>(255), 255);
}

TEST(SerdeRoundtripTest, Int32) {
  EXPECT_EQ(RoundTrip<int32_t>(0), 0);
  EXPECT_EQ(RoundTrip<int32_t>(-7), -7);
  EXPECT_EQ(RoundTrip<int32_t>(std::numeric_limits<int32_t>::min()),
            std::numeric_limits<int32_t>::min());
}

TEST(SerdeRoundtripTest, Int64) {
  EXPECT_EQ(RoundTrip<int64_t>(int64_t{1} << 40), int64_t{1} << 40);
  EXPECT_EQ(RoundTrip<int64_t>(-1), -1);
}

TEST(SerdeRoundtripTest, Uint64) {
  EXPECT_EQ(RoundTrip<uint64_t>(~uint64_t{0}), ~uint64_t{0});
}

TEST(SerdeRoundtripTest, Double) {
  EXPECT_DOUBLE_EQ(RoundTrip<double>(3.25), 3.25);
  EXPECT_DOUBLE_EQ(RoundTrip<double>(-0.0), -0.0);
  EXPECT_DOUBLE_EQ(RoundTrip<double>(1e300), 1e300);
}

TEST(SerdeRoundtripTest, String) {
  EXPECT_EQ(RoundTrip<std::string>(""), "");
  EXPECT_EQ(RoundTrip<std::string>("hello"), "hello");
  EXPECT_EQ(RoundTrip<std::string>(std::string("\0with\0nuls", 10)),
            std::string("\0with\0nuls", 10));
}

TEST(SerdeRoundtripTest, Pair) {
  const std::pair<int64_t, std::string> p = {42, "key"};
  EXPECT_EQ((RoundTrip<std::pair<int64_t, std::string>>(p)), p);
}

TEST(SerdeRoundtripTest, Vector) {
  const std::vector<double> v = {1.0, -2.5, 0.0};
  EXPECT_EQ(RoundTrip<std::vector<double>>(v), v);
  EXPECT_EQ(RoundTrip<std::vector<double>>({}), std::vector<double>{});
}

TEST(SerdeRoundtripTest, Map) {
  const std::map<int64_t, double> flat = {{-4, 0.5}, {0, -1.0}, {9, 2.0}};
  EXPECT_EQ((RoundTrip<std::map<int64_t, double>>(flat)), flat);
  EXPECT_TRUE((RoundTrip<std::map<int64_t, double>>({}).empty()));
  const std::map<int64_t, std::map<int64_t, double>> nested = {
      {3, {{0, 1.5}, {2, -0.25}}}, {7, {}}, {11, {{1, 4.0}}}};
  EXPECT_EQ((RoundTrip<std::map<int64_t, std::map<int64_t, double>>>(nested)),
            nested);
}

TEST(SerdeRoundtripTest, MapMatchesVectorOfPairsBytes) {
  // The map encoding is a count then the pairs, so a checkpoint written
  // from either shape reads back as the other.
  const std::map<int64_t, int64_t> map = {{1, 10}, {2, 20}};
  const std::vector<std::pair<int64_t, int64_t>> pairs(map.begin(), map.end());
  ByteBuffer from_map;
  Serde<std::map<int64_t, int64_t>>::Put(from_map, map);
  ByteBuffer from_pairs;
  Serde<std::vector<std::pair<int64_t, int64_t>>>::Put(from_pairs, pairs);
  ASSERT_EQ(from_map.size(), from_pairs.size());
  EXPECT_EQ(std::memcmp(from_map.data(), from_pairs.data(), from_map.size()),
            0);
}

TEST(SerdeRoundtripTest, Coefficient) {
  // Coefficients are encoded as arrays only (one block copy each way).
  const std::vector<Coefficient> cs = {{int64_t{1} << 33, -7.5}, {0, 0.0}};
  EXPECT_EQ(RoundTrip<std::vector<Coefficient>>(cs), cs);
  EXPECT_TRUE(RoundTrip<std::vector<Coefficient>>({}).empty());
}

TEST(SerdeRoundtripTest, Synopsis) {
  const Synopsis synopsis(16, {{9, -2.0}, {0, 4.5}, {15, 0.125}});
  const Synopsis decoded = RoundTrip<Synopsis>(synopsis);
  EXPECT_EQ(decoded.domain_size(), 16);
  EXPECT_EQ(decoded.coefficients(), synopsis.coefficients());
  // The rank index is rebuilt on decode.
  EXPECT_EQ(decoded.CoefficientValue(9), -2.0);
  EXPECT_EQ(decoded.CoefficientValue(8), 0.0);
  EXPECT_EQ(RoundTrip<Synopsis>(Synopsis(1, {})).domain_size(), 1);
}

TEST(SerdeRoundtripTest, TaskExecutionAndAttempt) {
  TaskExecution execution;
  execution.attempts.push_back({1.5, 4.0, true, true, 0.25});
  execution.attempts.push_back({2.0, 1.0, false, false, 0.5});
  const TaskExecution decoded = RoundTrip<mr::TaskExecution>(execution);
  ASSERT_EQ(decoded.attempts.size(), 2u);
  const TaskAttempt first = RoundTrip<mr::TaskAttempt>(execution.attempts[0]);
  for (const TaskAttempt& a : {decoded.attempts[0], first}) {
    EXPECT_EQ(a.seconds, 1.5);
    EXPECT_EQ(a.slowdown, 4.0);
    EXPECT_TRUE(a.failed);
    EXPECT_TRUE(a.node_lost);
    EXPECT_EQ(a.cpu_seconds, 0.25);
  }
  EXPECT_FALSE(decoded.attempts[1].failed);
}

TEST(SerdeRoundtripTest, JobStatsAndDriverSpan) {
  JobStats stats;
  stats.name = "dgreedyabs_hist";
  stats.map_tasks = 8;
  stats.shuffle_bytes = 1 << 20;
  stats.real_seconds = 0.125;
  stats.reduce_attempts.resize(2);
  stats.reduce_attempts[1].attempts.push_back({3.0, 1.0, true, false, 0.0});
  stats.map_task_in_bytes = {64.0};
  stats.reduce_task_out_records = {5, 6};
  stats.straggler_attempts = 3;
  const JobStats decoded = RoundTrip<mr::JobStats>(stats);
  EXPECT_EQ(decoded.name, stats.name);
  EXPECT_EQ(decoded.map_tasks, 8);
  EXPECT_EQ(decoded.shuffle_bytes, 1 << 20);
  EXPECT_EQ(decoded.real_seconds, 0.125);
  ASSERT_EQ(decoded.reduce_attempts.size(), 2u);
  EXPECT_TRUE(decoded.reduce_attempts[0].attempts.empty());
  ASSERT_EQ(decoded.reduce_attempts[1].attempts.size(), 1u);
  EXPECT_TRUE(decoded.reduce_attempts[1].attempts[0].failed);
  EXPECT_EQ(decoded.map_task_in_bytes, stats.map_task_in_bytes);
  EXPECT_EQ(decoded.reduce_task_out_records, stats.reduce_task_out_records);
  EXPECT_EQ(decoded.straggler_attempts, 3);

  const DriverSpan span = RoundTrip<mr::DriverSpan>({"genRootSets", 0.5, 2});
  EXPECT_EQ(span.name, "genRootSets");
  EXPECT_EQ(span.seconds, 0.5);
  EXPECT_EQ(span.after_job, 2);
}

// LEB128 varints: 7 bits a byte, so the byte count steps at 2^(7k).
TEST(SerdeRoundtripTest, Varint) {
  const std::pair<uint64_t, size_t> cases[] = {
      {0, 1},
      {127, 1},
      {128, 2},
      {16383, 2},
      {16384, 3},
      {uint64_t{INT64_MAX}, 9},
      {std::numeric_limits<uint64_t>::max(), 10}};
  ByteBuffer all;
  for (const auto& [value, length] : cases) {
    ByteBuffer buf;
    buf.PutVarint(value);
    EXPECT_EQ(buf.size(), length) << value;
    ByteReader reader(buf);
    EXPECT_EQ(reader.GetVarint(), value);
    EXPECT_TRUE(reader.ok());
    EXPECT_TRUE(reader.Done());
    all.PutVarint(value);
  }
  ByteReader reader(all);  // back to back, each read stops at its own end
  for (const auto& [value, length] : cases) {
    EXPECT_EQ(reader.GetVarint(), value);
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.Done());
}

// DGreedy's histogram records, built as StateFrontier builds them: bucket
// = floor(error / e_b), strictly decreasing while `kept` strictly grows.
std::vector<dgreedy_internal::BaseFrontier> SampleFrontiers() {
  const auto record = [](int64_t base, std::vector<int64_t> sizes, double eb,
                         const std::vector<double>& errors) {
    dgreedy_internal::BaseFrontier value = {base, std::move(sizes), eb, {}};
    int64_t kept = 0;
    for (const double error : errors) {
      value.points.push_back({std::floor(error / eb), kept});
      kept += 1 + 37 * kept;  // increments from 1 up to multi-byte varints
    }
    return value;
  };
  return {
      // build_dgreedy's shape: e_b = 0.01, errors in the hundreds.
      record(5, {3, 4}, 0.01, {612.5, 431.27, 430.0, 12.875, 0.014, 0.0}),
      // The e_b <= 0 default, 1e-9: errors above ~9.2e9 give buckets past
      // 2^63 and escape; the rest are indices.
      record(131, {0, 2, 8}, 1e-9, {3.5e12, 9.3e9, 9.2e9, 17.25, 1e-8}),
      // A tiny relative sanity bound: one escape near 1e300 before indices.
      record(0, {7}, 1.0, {1e300, 0x1p63, 0x1p63 - 1024, 2.0, 0.5}),
  };
}

// Bucket by bucket: index-coded and escaped points keep their exact bits,
// and a point after an escape is coded absolutely. -0, negatives and
// non-finite buckets never come out of StateFrontier but must still escape.
TEST(SerdeRoundtripTest, DGreedyFrontierPoint) {
  const double buckets[] = {std::numeric_limits<double>::infinity(),
                            1e300,
                            0x1p63,
                            0x1p63 - 1024,  // the largest index-coded bucket
                            0x1p53 + 2,
                            12.0,
                            11.5,
                            11.0,
                            0.0,
                            -0.0,
                            -1.0,
                            std::numeric_limits<double>::quiet_NaN()};
  dgreedy_internal::BaseFrontier value = {2, {1}, 0.25, {}};
  for (const double bucket : buckets) {
    value.points.push_back({bucket, static_cast<int64_t>(value.points.size())});
  }
  const auto decoded = RoundTrip<dgreedy_internal::BaseFrontier>(value);
  ASSERT_EQ(decoded.points.size(), value.points.size());
  for (size_t i = 0; i < value.points.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.points[i].bucket),
              std::bit_cast<uint64_t>(value.points[i].bucket))
        << "point " << i;
    EXPECT_EQ(decoded.points[i].kept, value.points[i].kept);
  }
  // An index-coded point is two one-byte varints while the index steps
  // stay below 128; an escape is a zero byte and the double.
  ByteBuffer one;
  Serde<dgreedy_internal::BaseFrontier>::Put(one, {0, {}, 1.0, {{5.0, 0}}});
  ByteBuffer escaped;
  Serde<dgreedy_internal::BaseFrontier>::Put(escaped, {0, {}, 1.0, {{5.5, 0}}});
  EXPECT_EQ(one.size(), 3 + sizeof(double) + 2);
  EXPECT_EQ(escaped.size(), one.size() + sizeof(double));
}

TEST(SerdeRoundtripTest, DGreedyBaseFrontier) {
  for (const auto& value : SampleFrontiers()) {
    const auto decoded = RoundTrip<dgreedy_internal::BaseFrontier>(value);
    EXPECT_EQ(decoded.base, value.base);
    EXPECT_EQ(decoded.sizes, value.sizes);
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.bucket_width),
              std::bit_cast<uint64_t>(value.bucket_width));
    ASSERT_EQ(decoded.points.size(), value.points.size());
    for (size_t i = 0; i < value.points.size(); ++i) {
      // The receiver's bucketed error is the sender's, bit for bit.
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded.points[i].bucket *
                                        decoded.bucket_width),
                std::bit_cast<uint64_t>(value.points[i].bucket *
                                        value.bucket_width))
          << "base " << value.base << " point " << i;
      EXPECT_EQ(decoded.points[i].kept, value.points[i].kept);
    }
  }
  const auto empty = RoundTrip<dgreedy_internal::BaseFrontier>({0, {}, 0.5, {}});
  EXPECT_TRUE(empty.sizes.empty());
  EXPECT_TRUE(empty.points.empty());
  // Dense: the e_b = 0.01 record costs under 6 bytes a point, against 16
  // for a raw (double, int64) pair.
  ByteBuffer buf;
  const dgreedy_internal::BaseFrontier dense = SampleFrontiers()[0];
  Serde<dgreedy_internal::BaseFrontier>::Put(buf, dense);
  EXPECT_LT(buf.size(), 6 * dense.points.size() + 16);
}

TEST(SerdeRoundtripTest, MhsCell) {
  mhs::Cell c;
  c.count = 17;
  c.err = 0.125;
  const auto decoded = RoundTrip<mhs::Cell>(c);
  EXPECT_EQ(decoded.count, 17);
  EXPECT_DOUBLE_EQ(decoded.err, 0.125);
}

TEST(SerdeRoundtripTest, MhsRow) {
  mhs::Row row;
  row.lo = -3;
  row.cells = {{1, 0.5}, {2, 1.5}, {mhs::Cell::kInfCount,
                                    std::numeric_limits<double>::infinity()}};
  const auto decoded = RoundTrip<mhs::Row>(row);
  EXPECT_EQ(decoded.lo, row.lo);
  ASSERT_EQ(decoded.cells.size(), row.cells.size());
  for (size_t i = 0; i < row.cells.size(); ++i) {
    EXPECT_EQ(decoded.cells[i].count, row.cells[i].count);
    EXPECT_DOUBLE_EQ(decoded.cells[i].err, row.cells[i].err);
  }
  // The empty (infeasible) row must round-trip too.
  EXPECT_TRUE(RoundTrip<mhs::Row>(mhs::Row{}).cells.empty());
}

TEST(SerdeRoundtripTest, MmvCell) {
  mmv::Cell c;
  c.v = 2.75;
  c.y_units = 3;
  c.left_units = 1;
  const auto decoded = RoundTrip<mmv::Cell>(c);
  EXPECT_DOUBLE_EQ(decoded.v, 2.75);
  EXPECT_EQ(decoded.y_units, 3);
  EXPECT_EQ(decoded.left_units, 1);
}

// ---- Corrupt-buffer hardening: a malformed stream must never abort the
// process or request absurd allocations; it drains the reader, latches the
// failure flag, and yields zero-filled values the caller discards. ----

TEST(SerdeCorruptionTest, ReaderPastEndZeroFillsAndLatches) {
  const uint8_t bytes[4] = {1, 2, 3, 4};
  ByteReader reader(bytes, sizeof(bytes));
  EXPECT_TRUE(reader.ok());
  // A read larger than the buffer must not wrap the bounds check.
  EXPECT_EQ(reader.GetScalar<int64_t>(), 0);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.Done());
  // Every later read stays zero-filled.
  EXPECT_EQ(reader.GetScalar<int32_t>(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeCorruptionTest, ReaderHugeLenDoesNotWrap) {
  // pos_ + len would overflow size_t; the check must be len <= size - pos.
  const uint8_t bytes[8] = {0};
  ByteReader reader(bytes, sizeof(bytes));
  (void)reader.GetScalar<int32_t>();  // pos_ = 4
  std::vector<uint8_t> dst(16, 0xff);
  reader.GetRaw(dst.data(), std::numeric_limits<size_t>::max() - 2);
  EXPECT_FALSE(reader.ok());
  // The failure-path zero-fill is clamped to the buffer size (8), not the
  // absurd requested length: it must stay inside the real destination.
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[7], 0);
  EXPECT_EQ(dst[8], 0xff);
  EXPECT_EQ(dst[15], 0xff);
}

TEST(SerdeCorruptionTest, StringHugeLengthPrefix) {
  // A corrupt 32-bit length prefix far past the remaining bytes must not
  // allocate for it.
  ByteBuffer buf;
  buf.PutScalar<uint32_t>(std::numeric_limits<uint32_t>::max());
  buf.PutRaw("xy", 2);
  ByteReader reader(buf);
  const std::string s = Serde<std::string>::Get(reader);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.Done());
}

TEST(SerdeCorruptionTest, StringTruncatedPayload) {
  ByteBuffer buf;
  Serde<std::string>::Put(buf, "hello world");
  // Drop the last 4 payload bytes.
  ByteReader reader(buf.data(), buf.size() - 4);
  const std::string s = Serde<std::string>::Get(reader);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeCorruptionTest, VectorHugeLengthPrefix) {
  // A corrupt 2^64-ish element count must neither pre-reserve exabytes nor
  // spin the element loop to the bogus count.
  ByteBuffer buf;
  buf.PutScalar<uint64_t>(std::numeric_limits<uint64_t>::max());
  buf.PutScalar<double>(1.5);
  ByteReader reader(buf);
  const std::vector<double> v = Serde<std::vector<double>>::Get(reader);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.Done());
  // At most one whole element was decodable before the stream ran dry.
  EXPECT_LE(v.size(), 2u);
}

TEST(SerdeCorruptionTest, VectorTruncatedPayload) {
  ByteBuffer buf;
  Serde<std::vector<int64_t>>::Put(buf, {1, 2, 3, 4});
  ByteReader reader(buf.data(), buf.size() - 3);
  const std::vector<int64_t> v = Serde<std::vector<int64_t>>::Get(reader);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.Done());
}

// A truncated varint, an 11-byte one, a 10th byte with bits above 2^64 and
// an overlong form each fail the reader and drain it (the trailing 0x05
// is not read).
TEST(SerdeCorruptionTest, VarintTruncatedOverlongOrOverflowing) {
  const std::vector<uint8_t> ten_ff(9, 0xff);
  std::vector<std::vector<uint8_t>> cases = {{0x80}, {0xff, 0xff}};
  for (const uint8_t last : {uint8_t{0x81}, uint8_t{0x02}, uint8_t{0x7f}}) {
    cases.push_back(ten_ff);
    cases.back().push_back(last);  // 0x81 continues into an 11th byte
    if (last == 0x81) cases.back().push_back(0x01);
  }
  cases.push_back({0x80, 0x00});  // zero, overlong
  cases.push_back({0xff, 0x80, 0x00});
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<uint8_t> bytes = cases[i];
    const bool truncated = i < 2;
    if (!truncated) bytes.push_back(0x05);
    ByteReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.GetVarint(), 0u) << "case " << i;
    EXPECT_FALSE(reader.ok()) << "case " << i;
    EXPECT_TRUE(reader.Done()) << "case " << i;
  }
}

// The DGreedy histogram record {3, {2}, 0.5, {{18, 0}, {9, 2}}}: base, size
// count, size, e_b, point count, then (bucket code, kept code) per point.
// Every cut, an inflated count, a zero increment, a decrement below index
// 0, an escape Put would not write and an overlong varint fail the reader.
TEST(SerdeCorruptionTest, BaseFrontierTruncatedOrInflated) {
  ByteBuffer buf;
  Serde<dgreedy_internal::BaseFrontier>::Put(buf,
                                             {3, {2}, 0.5, {{18, 0}, {9, 2}}});
  const std::vector<uint8_t> bytes(buf.data(), buf.data() + buf.size());
  ASSERT_EQ(bytes.size(), 16u);
  const size_t points_at = 3 + sizeof(double);
  const std::vector<uint8_t> tail = {19, 0, 9, 2};
  ASSERT_EQ(std::vector<uint8_t>(bytes.begin() + points_at + 1, bytes.end()),
            tail);
  const auto fails = [](const std::vector<uint8_t>& input) {
    ByteReader reader(input.data(), input.size());
    (void)Serde<dgreedy_internal::BaseFrontier>::Get(reader);
    return !reader.ok() && reader.Done();
  };
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_TRUE(fails({bytes.data(), bytes.data() + len})) << "len " << len;
  }
  const auto with = [&bytes](size_t at, size_t len, uint64_t varint) {
    ByteBuffer coded;
    coded.PutVarint(varint);
    std::vector<uint8_t> out(bytes.data(), bytes.data() + at);
    out.insert(out.end(), coded.data(), coded.data() + coded.size());
    out.insert(out.end(), bytes.data() + at + len,
               bytes.data() + bytes.size());
    return out;
  };
  for (const uint64_t count : {uint64_t{3}, uint64_t{1} << 40,
                               std::numeric_limits<uint64_t>::max()}) {
    EXPECT_TRUE(fails(with(1, 1, count))) << "size count " << count;
    EXPECT_TRUE(fails(with(points_at, 1, count))) << "point count " << count;
  }
  EXPECT_TRUE(fails(with(points_at + 4, 1, 0))) << "zero kept increment";
  EXPECT_TRUE(fails(with(points_at + 3, 1, 19))) << "index below zero";
  EXPECT_TRUE(fails(with(0, 1, uint64_t{1} << 63))) << "base past int64";
  // A size list {2, 2}: a zero size increment.
  std::vector<uint8_t> sizes = with(1, 1, 2);
  sizes.insert(sizes.begin() + 3, 0);
  EXPECT_TRUE(fails(sizes)) << "zero size increment";
  // Bucket 18 escaped as a raw double: Put codes it as an index.
  std::vector<uint8_t> escaped = with(points_at + 1, 1, 0);
  const double bucket = 18.0;
  escaped.insert(escaped.begin() + points_at + 2,
                 reinterpret_cast<const uint8_t*>(&bucket),
                 reinterpret_cast<const uint8_t*>(&bucket) + sizeof(bucket));
  EXPECT_TRUE(fails(escaped)) << "escaped index-codable bucket";
  std::vector<uint8_t> overlong = bytes;
  overlong[0] = 0x83;
  overlong.insert(overlong.begin() + 1, 0x00);
  EXPECT_TRUE(fails(overlong)) << "overlong base";
}

// Every truncation prefix and every single-byte XOR 0xFF of three valid
// records either fails the reader or decodes to a value whose re-encoding
// is exactly the bytes the decoder consumed.
TEST(SerdeCorruptionTest, BaseFrontierMutationSweep) {
  int failed = 0;
  int decoded = 0;
  for (const auto& value : SampleFrontiers()) {
    ByteBuffer buf;
    Serde<dgreedy_internal::BaseFrontier>::Put(buf, value);
    const std::vector<uint8_t> bytes(buf.data(), buf.data() + buf.size());
    const auto check = [&](const std::vector<uint8_t>& input, size_t at) {
      ByteReader reader(input.data(), input.size());
      const auto got = Serde<dgreedy_internal::BaseFrontier>::Get(reader);
      if (!reader.ok()) {
        EXPECT_TRUE(reader.Done()) << "at " << at;
        ++failed;
        return;
      }
      ++decoded;
      const size_t consumed = input.size() - reader.remaining();
      ByteBuffer again;
      Serde<dgreedy_internal::BaseFrontier>::Put(again, got);
      ASSERT_EQ(again.size(), consumed) << "at " << at;
      EXPECT_EQ(std::memcmp(again.data(), input.data(), consumed), 0)
          << "at " << at;
    };
    for (size_t len = 0; len < bytes.size(); ++len) {
      check({bytes.data(), bytes.data() + len}, len);
    }
    for (size_t at = 0; at < bytes.size(); ++at) {
      std::vector<uint8_t> flipped = bytes;
      flipped[at] ^= 0xff;
      check(flipped, at);
    }
  }
  // Both outcomes occur, or the sweep proves nothing: flipping e_b's bytes
  // decodes, flipping a count fails.
  EXPECT_GT(failed, 0);
  EXPECT_GT(decoded, 0);
}

TEST(SerdeCorruptionTest, InvalidateDrainsReader) {
  ByteBuffer buf;
  Serde<std::string>::Put(buf, "payload");
  ByteReader reader(buf);
  EXPECT_TRUE(reader.ok());
  reader.Invalidate();
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.Done());
  EXPECT_EQ(reader.remaining(), 0u);
}

// A map frame whose keys are not strictly ascending was not written by
// Put; it must invalidate the reader rather than merge or reorder entries.
ByteBuffer MapFrame(const std::vector<std::pair<int64_t, double>>& entries) {
  ByteBuffer buf;
  Serde<std::vector<std::pair<int64_t, double>>>::Put(buf, entries);
  return buf;
}

TEST(SerdeCorruptionTest, MapDuplicateKeyInvalidates) {
  const ByteBuffer buf = MapFrame({{1, 1.0}, {1, 2.0}});
  ByteReader reader(buf);
  (void)Serde<std::map<int64_t, double>>::Get(reader);
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeCorruptionTest, MapDescendingKeyInvalidates) {
  const ByteBuffer buf = MapFrame({{5, 1.0}, {2, 2.0}});
  ByteReader reader(buf);
  (void)Serde<std::map<int64_t, double>>::Get(reader);
  EXPECT_FALSE(reader.ok());

  // The same check applies at every nesting level.
  ByteBuffer nested;
  nested.PutScalar<uint64_t>(1);
  Serde<int64_t>::Put(nested, 3);
  nested.PutRaw(buf.data(), buf.size());
  ByteReader nested_reader(nested);
  (void)Serde<std::map<int64_t, std::map<int64_t, double>>>::Get(
      nested_reader);
  EXPECT_FALSE(nested_reader.ok());
}

// Encodes a synopsis frame field by field, bypassing Synopsis validation.
ByteBuffer SynopsisFrame(int64_t domain,
                         const std::vector<Coefficient>& coefficients) {
  ByteBuffer buf;
  Serde<int64_t>::Put(buf, domain);
  Serde<std::vector<Coefficient>>::Put(buf, coefficients);
  return buf;
}

TEST(SerdeCorruptionTest, InvalidSynopsisInvalidatesWithoutAborting) {
  const std::vector<ByteBuffer> frames = {
      SynopsisFrame(16, {{3, 1.0}, {3, 2.0}}),  // duplicate index
      SynopsisFrame(16, {{16, 1.0}}),           // index past the domain
      SynopsisFrame(16, {{-1, 1.0}}),           // negative index
      SynopsisFrame(12, {{0, 1.0}}),            // non-power-of-two domain
      SynopsisFrame(0, {}),                     // empty domain
  };
  for (size_t i = 0; i < frames.size(); ++i) {
    ByteReader reader(frames[i]);
    const Synopsis decoded = Serde<Synopsis>::Get(reader);
    EXPECT_FALSE(reader.ok()) << "frame " << i;
    EXPECT_EQ(decoded.size(), 0) << "frame " << i;
  }
}

TEST(SerdeRoundtripTest, MmvRow) {
  mmv::Row row;
  row.cells.resize(3);
  row.cells[1].v = 1.0;
  row.cells[1].y_units = 2;
  const auto decoded = RoundTrip<mmv::Row>(row);
  ASSERT_EQ(decoded.cells.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded.cells[1].v, 1.0);
  EXPECT_EQ(decoded.cells[1].y_units, 2);
}

}  // namespace
}  // namespace dwm::mr
