#include "wavelet/synopsis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "test_util.h"
#include "wavelet/haar.h"

namespace dwm {
namespace {

const std::vector<double> kPaperData = {5, 5, 0, 26, 1, 3, 14, 2};
const std::vector<double> kPaperCoeffs = {7, 2, -4, -3, 0, -13, -1, 6};

Synopsis FullSynopsis(const std::vector<double>& coeffs) {
  std::vector<Coefficient> cs;
  for (size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] != 0.0) cs.push_back({static_cast<int64_t>(i), coeffs[i]});
  }
  return Synopsis(static_cast<int64_t>(coeffs.size()), std::move(cs));
}

TEST(SynopsisTest, PaperPointReconstruction) {
  // d_5 = 7 + 2 - 3 - (-1) = 3 (Section 2.2).
  const Synopsis full = FullSynopsis(kPaperCoeffs);
  EXPECT_DOUBLE_EQ(full.PointEstimate(5), 3.0);
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(full.PointEstimate(j), kPaperData[static_cast<size_t>(j)]);
  }
}

TEST(SynopsisTest, PaperRangeSum) {
  // d(3:6) = 44 (Section 2.2 example).
  const Synopsis full = FullSynopsis(kPaperCoeffs);
  EXPECT_DOUBLE_EQ(full.RangeSum(3, 6), 26 + 1 + 3 + 14);
  EXPECT_DOUBLE_EQ(full.RangeSum(3, 6), 44.0);
}

TEST(SynopsisTest, PaperTruncatedSynopsis) {
  // Retaining {c0, c5, c3}: d5_hat = 7 - 3 = 4 (Section 2.3).
  const Synopsis s(8, {{0, 7.0}, {5, -13.0}, {3, -3.0}});
  EXPECT_DOUBLE_EQ(s.PointEstimate(5), 4.0);
}

TEST(SynopsisTest, CoefficientValueLookup) {
  const Synopsis s(8, {{3, -3.0}, {0, 7.0}, {5, -13.0}});
  EXPECT_DOUBLE_EQ(s.CoefficientValue(0), 7.0);
  EXPECT_DOUBLE_EQ(s.CoefficientValue(3), -3.0);
  EXPECT_DOUBLE_EQ(s.CoefficientValue(5), -13.0);
  EXPECT_DOUBLE_EQ(s.CoefficientValue(1), 0.0);
  EXPECT_DOUBLE_EQ(s.CoefficientValue(7), 0.0);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.domain_size(), 8);
}

TEST(SynopsisTest, SortsCoefficientsByIndex) {
  const Synopsis s(8, {{5, 1.0}, {2, 2.0}, {7, 3.0}});
  EXPECT_EQ(s.coefficients()[0].index, 2);
  EXPECT_EQ(s.coefficients()[1].index, 5);
  EXPECT_EQ(s.coefficients()[2].index, 7);
}

TEST(SynopsisTest, ToDenseAndReconstruct) {
  const Synopsis full = FullSynopsis(kPaperCoeffs);
  EXPECT_EQ(full.ToDense(), kPaperCoeffs);
  EXPECT_EQ(full.Reconstruct(), kPaperData);
}

TEST(SynopsisTest, EmptySynopsisReconstructsZero) {
  const Synopsis s(8, {});
  EXPECT_EQ(s.size(), 0);
  for (int64_t j = 0; j < 8; ++j) EXPECT_DOUBLE_EQ(s.PointEstimate(j), 0.0);
  EXPECT_DOUBLE_EQ(s.RangeSum(0, 7), 0.0);
}

class SynopsisPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SynopsisPropertyTest, PointEstimateMatchesDenseReconstruction) {
  const int64_t n = int64_t{1} << GetParam();
  const auto data = testing::RandomData(n, static_cast<uint64_t>(77 + GetParam()));
  auto coeffs = ForwardHaar(data);
  // Keep an arbitrary half of the coefficients.
  std::vector<Coefficient> kept;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 2 == 0 && coeffs[static_cast<size_t>(i)] != 0.0) {
      kept.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  const Synopsis s(n, std::move(kept));
  const std::vector<double> rec = s.Reconstruct();
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_NEAR(s.PointEstimate(j), rec[static_cast<size_t>(j)], 1e-9);
  }
}

TEST_P(SynopsisPropertyTest, RangeSumMatchesPointSums) {
  const int64_t n = int64_t{1} << GetParam();
  const auto data = testing::RandomData(n, static_cast<uint64_t>(99 + GetParam()));
  auto coeffs = ForwardHaar(data);
  std::vector<Coefficient> kept;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 3 != 1 && coeffs[static_cast<size_t>(i)] != 0.0) {
      kept.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  const Synopsis s(n, std::move(kept));
  const std::vector<double> rec = s.Reconstruct();
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n)));
    int64_t hi = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (lo > hi) std::swap(lo, hi);
    double expected = 0.0;
    for (int64_t j = lo; j <= hi; ++j) expected += rec[static_cast<size_t>(j)];
    EXPECT_NEAR(s.RangeSum(lo, hi), expected, 1e-6 * (1 + std::abs(expected)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SynopsisPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(SynopsisReconstructRangeTest, MatchesFullReconstruction) {
  const int64_t n = 256;
  const auto data = testing::RandomData(n, 31);
  const auto coeffs = ForwardHaar(data);
  std::vector<Coefficient> kept;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 5 != 2 && coeffs[static_cast<size_t>(i)] != 0.0) {
      kept.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  const Synopsis s(n, std::move(kept));
  const std::vector<double> full = s.Reconstruct();
  for (int64_t count : {int64_t{2}, int64_t{8}, int64_t{64}, n}) {
    for (int64_t first = 0; first < n; first += count) {
      const std::vector<double> slice = s.ReconstructRange(first, count);
      ASSERT_EQ(static_cast<int64_t>(slice.size()), count);
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_NEAR(slice[static_cast<size_t>(i)],
                    full[static_cast<size_t>(first + i)], 1e-9)
            << "count=" << count << " first=" << first << " i=" << i;
      }
    }
  }
}

TEST(SynopsisReconstructRangeTest, SparseSynopsis) {
  // Only the average and one deep coefficient retained.
  const Synopsis s(64, {{0, 10.0}, {40, 2.5}});
  const std::vector<double> full = s.Reconstruct();
  const std::vector<double> slice = s.ReconstructRange(16, 8);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(slice[static_cast<size_t>(i)],
                full[static_cast<size_t>(16 + i)], 1e-12);
  }
}

TEST(SynopsisReconstructRangeTest, EmptySynopsis) {
  const Synopsis s(32, {});
  for (double v : s.ReconstructRange(8, 8)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SynopsisReconstructRangeTest, ZeroCountIsEmptySlice) {
  // A worker can be assigned zero leaves; count == 0 must return an empty
  // vector (not trip the power-of-two check) at any aligned position,
  // including one-past-the-end.
  const Synopsis s(32, {{0, 7.0}, {3, -2.0}});
  for (int64_t first : {int64_t{0}, int64_t{8}, int64_t{31}, int64_t{32}}) {
    EXPECT_TRUE(s.ReconstructRange(first, 0).empty()) << "first=" << first;
  }
}

TEST(SynopsisEdgeCaseTest, SingleValueDomain) {
  // domain_size == 1: the only coefficient is the average c_0, every query
  // degenerates to it.
  const Synopsis s(1, {{0, 42.0}});
  EXPECT_DOUBLE_EQ(s.PointEstimate(0), 42.0);
  EXPECT_DOUBLE_EQ(s.RangeSum(0, 0), 42.0);
  EXPECT_EQ(s.Reconstruct(), std::vector<double>({42.0}));
  const Synopsis empty(1, {});
  EXPECT_DOUBLE_EQ(empty.PointEstimate(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.RangeSum(0, 0), 0.0);
}

TEST(SynopsisEdgeCaseTest, SingleLeafAndFullDomainRanges) {
  const Synopsis full = FullSynopsis(kPaperCoeffs);
  // lo == hi is a valid range and equals the point estimate.
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(full.RangeSum(j, j), full.PointEstimate(j)) << j;
  }
  // The full domain [0, n-1]: every detail coefficient cancels, leaving
  // n * c_0.
  EXPECT_DOUBLE_EQ(full.RangeSum(0, 7), 8.0 * kPaperCoeffs[0]);
}

// Reference lookup for the rank index: a binary search over the sorted
// coefficient array.
double LowerBoundValue(const Synopsis& s, int64_t index) {
  const std::vector<Coefficient>& cs = s.coefficients();
  const auto it = std::lower_bound(
      cs.begin(), cs.end(), index,
      [](const Coefficient& c, int64_t idx) { return c.index < idx; });
  return it != cs.end() && it->index == index ? it->value : 0.0;
}

// Coefficients with value index + 0.5 at every index `keep` accepts.
std::vector<Coefficient> Kept(int64_t n, bool (*keep)(int64_t, int64_t)) {
  std::vector<Coefficient> cs;
  for (int64_t i = 0; i < n; ++i) {
    if (keep(i, n)) cs.push_back({i, static_cast<double>(i) + 0.5});
  }
  return cs;
}

TEST(SynopsisIndexTest, LookupMatchesLowerBoundOnEveryShape) {
  struct Shape {
    const char* name;
    int64_t n;
    bool (*keep)(int64_t, int64_t);
  };
  const Shape shapes[] = {
      {"empty", 128, [](int64_t, int64_t) { return false; }},
      {"n=1 empty", 1, [](int64_t, int64_t) { return false; }},
      {"n=1 full", 1, [](int64_t, int64_t) { return true; }},
      {"n=64 (one word)", 64, [](int64_t i, int64_t) { return i % 3 == 0; }},
      {"n=128 (two words)", 128,
       [](int64_t i, int64_t) { return i % 5 == 1 || i == 63 || i == 64; }},
      {"only index 0", 256, [](int64_t i, int64_t) { return i == 0; }},
      {"only index n-1", 256, [](int64_t i, int64_t n) { return i == n - 1; }},
      {"all indices", 256, [](int64_t, int64_t) { return true; }},
  };
  for (const Shape& shape : shapes) {
    const Synopsis s(shape.n, Kept(shape.n, shape.keep));
    for (int64_t i = 0; i < shape.n; ++i) {
      ASSERT_EQ(s.CoefficientValue(i), LowerBoundValue(s, i))
          << shape.name << " index " << i;
    }
    // Outside the domain nothing is retained.
    EXPECT_EQ(s.CoefficientValue(-1), 0.0) << shape.name;
    EXPECT_EQ(s.CoefficientValue(shape.n), 0.0) << shape.name;
  }
}

TEST(SynopsisIndexTest, CreateAndConstructorAnswerIdentically) {
  const int64_t n = 256;
  const auto coeffs = ForwardHaar(testing::RandomData(n, 17));
  std::vector<Coefficient> kept;
  for (int64_t i = n - 1; i >= 0; --i) {  // unsorted on purpose
    if (i % 3 != 2) kept.push_back({i, coeffs[static_cast<size_t>(i)]});
  }
  const Synopsis constructed(n, kept);
  Synopsis created;
  ASSERT_TRUE(Synopsis::Create(n, kept, &created).ok());
  ASSERT_EQ(created.coefficients(), constructed.coefficients());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(created.CoefficientValue(i), constructed.CoefficientValue(i));
    EXPECT_EQ(created.PointEstimate(i), constructed.PointEstimate(i));
    EXPECT_EQ(created.RangeSum(i / 2, i), constructed.RangeSum(i / 2, i));
  }
  for (int64_t count = 1; count <= n; count *= 2) {
    for (int64_t first = 0; first < n; first += count) {
      EXPECT_EQ(created.ReconstructRange(first, count),
                constructed.ReconstructRange(first, count))
          << "count=" << count << " first=" << first;
    }
  }
}

TEST(SynopsisIndexTest, CreateRejectsADomainTooLargeToIndex) {
  Synopsis s;
  const Status status =
      Synopsis::Create((int64_t{1} << 32) * 2, {{0, 1.0}}, &s);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.domain_size(), 0);
}

// A random synopsis: `count` distinct indices in [0, domain) with values in
// [-100, 100), in random order.
std::vector<Coefficient> RandomCoefficients(int64_t domain, int64_t count,
                                            Rng& rng) {
  std::vector<int64_t> indices(static_cast<size_t>(domain));
  for (int64_t i = 0; i < domain; ++i) indices[static_cast<size_t>(i)] = i;
  std::vector<Coefficient> cs;
  for (int64_t k = 0; k < count; ++k) {  // partial Fisher-Yates
    const size_t pick =
        static_cast<size_t>(k) + static_cast<size_t>(rng.NextBounded(
                                     static_cast<uint64_t>(domain - k)));
    std::swap(indices[static_cast<size_t>(k)], indices[pick]);
    cs.push_back({indices[static_cast<size_t>(k)],
                  rng.NextDouble() * 200.0 - 100.0});
  }
  return cs;
}

// The Serde<Synopsis> bytes of `coefficients` in the given order, built
// field by field so the order survives.
ByteBuffer SynopsisEncoding(int64_t domain, uint64_t count,
                            const std::vector<Coefficient>& coefficients) {
  ByteBuffer buffer;
  buffer.PutScalar<int64_t>(domain);
  buffer.PutScalar<uint64_t>(count);
  for (const Coefficient& c : coefficients) {
    buffer.PutScalar<int64_t>(c.index);
    buffer.PutScalar<double>(c.value);
  }
  return buffer;
}

// Random synopses with 0..2^12 coefficients over domains 1..2^16, fed in
// index order and shuffled: Create, the trusting constructor and a decode
// of the encoded bytes agree on every coefficient lookup, and point and
// range queries match the dense ToDense/Reconstruct reference.
TEST(SynopsisDecodeIndexPropertyTest, EveryPathAgreesWithTheDenseReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 48; ++trial) {
    const int64_t domain = int64_t{1} << rng.NextBounded(17);
    const int64_t max_count = std::min<int64_t>(domain, int64_t{1} << 12);
    // Hit the empty and full extremes as well as the interior.
    const int64_t count =
        trial % 8 == 0 ? 0
        : trial % 8 == 1
            ? max_count
            : static_cast<int64_t>(
                  rng.NextBounded(static_cast<uint64_t>(max_count) + 1));
    std::vector<Coefficient> input = RandomCoefficients(domain, count, rng);
    const bool sorted_input = trial % 2 == 0;
    if (sorted_input) {
      std::sort(input.begin(), input.end(),
                [](const Coefficient& a, const Coefficient& b) {
                  return a.index < b.index;
                });
    }
    const std::string label = "trial " + std::to_string(trial) + " domain " +
                              std::to_string(domain) + " count " +
                              std::to_string(count) +
                              (sorted_input ? " sorted" : " shuffled");

    const Synopsis constructed(domain, input);
    Synopsis created;
    ASSERT_TRUE(Synopsis::Create(domain, input, &created).ok()) << label;
    const ByteBuffer bytes =
        SynopsisEncoding(domain, static_cast<uint64_t>(count), input);
    ByteReader reader(bytes);
    Synopsis decoded;
    ASSERT_TRUE(DecodeSynopsis(reader, &decoded).ok()) << label;
    EXPECT_TRUE(reader.Done()) << label;
    ASSERT_EQ(created.coefficients(), constructed.coefficients()) << label;
    ASSERT_EQ(decoded.coefficients(), constructed.coefficients()) << label;
    EXPECT_EQ(testing::SynopsisBytes(decoded),
              testing::SynopsisBytes(constructed))
        << label;

    const std::vector<double> dense = constructed.ToDense();
    const std::vector<double> rec = constructed.Reconstruct();
    for (int64_t i = 0; i < domain; ++i) {
      const double want = dense[static_cast<size_t>(i)];
      ASSERT_EQ(created.CoefficientValue(i), want) << label << " index " << i;
      ASSERT_EQ(constructed.CoefficientValue(i), want)
          << label << " index " << i;
      ASSERT_EQ(decoded.CoefficientValue(i), want) << label << " index " << i;
    }
    // Prefix sums of the reconstruction (and of its magnitudes, which bound
    // the rounding) give every range's reference sum.
    std::vector<double> prefix(rec.size() + 1, 0.0);
    std::vector<double> magnitude(rec.size() + 1, 0.0);
    for (size_t j = 0; j < rec.size(); ++j) {
      prefix[j + 1] = prefix[j] + rec[j];
      magnitude[j + 1] = magnitude[j] + std::abs(rec[j]);
    }
    for (int64_t j = 0; j < domain; ++j) {
      const double want = rec[static_cast<size_t>(j)];
      const double tolerance = 1e-9 * (1.0 + std::abs(want));
      ASSERT_NEAR(created.PointEstimate(j), want, tolerance) << label;
      ASSERT_EQ(created.PointEstimate(j), constructed.PointEstimate(j))
          << label;
    }
    for (int query = 0; query < 64; ++query) {
      int64_t lo = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(domain)));
      int64_t hi = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(domain)));
      if (lo > hi) std::swap(lo, hi);
      const auto l = static_cast<size_t>(lo);
      const auto h = static_cast<size_t>(hi) + 1;
      const double want = prefix[h] - prefix[l];
      const double tolerance = 1e-9 * (1.0 + magnitude[h]);
      ASSERT_NEAR(created.RangeSum(lo, hi), want, tolerance)
          << label << " [" << lo << ", " << hi << "]";
      ASSERT_EQ(created.RangeSum(lo, hi), constructed.RangeSum(lo, hi))
          << label;
    }
  }
}

TEST(SynopsisDecodeIndexPropertyTest, DuplicatesFailOnEveryPath) {
  Rng rng(7);
  std::vector<Coefficient> input = RandomCoefficients(1024, 100, rng);
  input.push_back({input[37].index, 1.0});
  Synopsis created;
  EXPECT_EQ(Synopsis::Create(1024, input, &created).code(),
            StatusCode::kInvalidArgument);
  const ByteBuffer bytes = SynopsisEncoding(1024, input.size(), input);
  ByteReader reader(bytes);
  Synopsis decoded;
  const Status status = DecodeSynopsis(reader, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(decoded.size(), 0);
}

TEST(SynopsisDecodeIndexPropertyTest, UnsortedBodyLoadsSorted) {
  const std::vector<Coefficient> unsorted = {
      {900, 1.0}, {3, 2.0}, {64, 3.0}, {0, 4.0}, {63, 5.0}};
  const ByteBuffer bytes = SynopsisEncoding(1024, unsorted.size(), unsorted);
  ByteReader reader(bytes);
  Synopsis decoded;
  ASSERT_TRUE(DecodeSynopsis(reader, &decoded).ok());
  const std::vector<Coefficient> want = {
      {0, 4.0}, {3, 2.0}, {63, 5.0}, {64, 3.0}, {900, 1.0}};
  EXPECT_EQ(decoded.coefficients(), want);
  for (const Coefficient& c : want) {
    EXPECT_EQ(decoded.CoefficientValue(c.index), c.value) << c.index;
  }
}

TEST(SynopsisDecodeIndexPropertyTest, CountAboveRemainingBytesIsRejected) {
  const std::vector<Coefficient> two = {{1, 1.0}, {5, 2.0}};
  // One more than the bytes hold, and counts whose allocation alone would
  // throw (2^40 x 16 bytes, and a size past vector::max_size): the count
  // is checked against the remaining bytes before anything is allocated,
  // so none of these reaches the allocator.
  for (const uint64_t count :
       {uint64_t{3}, uint64_t{1} << 40, ~uint64_t{0} / 16, ~uint64_t{0}}) {
    const ByteBuffer bytes = SynopsisEncoding(8, count, two);
    ByteReader reader(bytes);
    Synopsis decoded;
    const Status status = DecodeSynopsis(reader, &decoded);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << count;
    EXPECT_FALSE(reader.ok()) << count;
    EXPECT_EQ(decoded.size(), 0) << count;
  }
  // A body cut inside the count prefix fails the same way.
  ByteBuffer cut;
  cut.PutScalar<int64_t>(8);
  cut.PutScalar<uint32_t>(2);
  ByteReader reader(cut);
  Synopsis decoded;
  EXPECT_EQ(DecodeSynopsis(reader, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(SynopsisCreateTest, AcceptsValidCoefficients) {
  Synopsis s;
  ASSERT_TRUE(Synopsis::Create(8, {{5, 1.0}, {2, 2.0}, {7, 3.0}}, &s).ok());
  EXPECT_EQ(s.domain_size(), 8);
  EXPECT_EQ(s.size(), 3);
  // Sorted on the way in, like the constructor.
  EXPECT_EQ(s.coefficients()[0].index, 2);
  EXPECT_EQ(s.coefficients()[2].index, 7);
}

TEST(SynopsisCreateTest, RejectsDuplicateIndex) {
  Synopsis s(4, {{1, 5.0}});
  const Status status = Synopsis::Create(8, {{3, 1.0}, {3, 2.0}}, &s);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // *out untouched on failure.
  EXPECT_EQ(s.domain_size(), 4);
  EXPECT_EQ(s.size(), 1);
}

TEST(SynopsisCreateTest, RejectsOutOfRangeIndex) {
  Synopsis s;
  EXPECT_EQ(Synopsis::Create(8, {{8, 1.0}}, &s).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Synopsis::Create(8, {{-1, 1.0}}, &s).code(),
            StatusCode::kInvalidArgument);
}

TEST(SynopsisCreateTest, RejectsBadDomain) {
  Synopsis s;
  EXPECT_EQ(Synopsis::Create(0, {}, &s).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Synopsis::Create(-8, {}, &s).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Synopsis::Create(12, {}, &s).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dwm
