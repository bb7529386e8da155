// Unit tests for the utility substrate: Status/Result, RNG, alias table,
// CSV writer, table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "util/alias_table.h"
#include "util/csv_writer.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace deepdirect::util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tie");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tie");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad tie");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) differing += (a.Next() != b.Next());
  EXPECT_GT(differing, 15);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextBoundedApproximatelyUniform) {
  Rng rng(19);
  const int buckets = 10, n = 100000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(buckets)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / buckets, 0.05 * n / buckets);
  }
}

TEST(RngTest, NextGaussianMoments) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(29);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(37);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.Shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) moved += (v[i] != i);
  EXPECT_GT(moved, 80);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(43);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleWithoutReplacementUnbiased) {
  // Every index should be sampled roughly equally often across trials.
  Rng rng(47);
  std::vector<int> counts(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (size_t idx : rng.SampleWithoutReplacement(20, 3)) ++counts[idx];
  }
  const double expected = trials * 3.0 / 20.0;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 0.08 * expected);
  }
}

// ----------------------------------------------------------- AliasTable

TEST(AliasTableTest, SingleOutcome) {
  AliasTable table({5.0});
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0, 2.0});
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, EmpiricalDistributionMatchesWeights) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0, 10.0};
  AliasTable table(weights);
  Rng rng(5);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  double total = 0.0;
  for (double w : weights) total += w;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = n * weights[i] / total;
    EXPECT_NEAR(static_cast<double>(counts[i]), expected, 0.05 * expected)
        << "outcome " << i;
  }
}

TEST(AliasTableTest, UniformWeights) {
  AliasTable table(std::vector<double>(7, 1.0));
  Rng rng(7);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[table.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

// ------------------------------------------------------------ CsvWriter

TEST(CsvWriterTest, WritesAndEscapes) {
  const std::string path = "/tmp/deepdirect_csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.WriteRow({"a", "b,c", "d\"e"});
    csv.WriteNumericRow("row", {1.5, 2.25}, 3);
    csv.Close();
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "row,1.5,2.25");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, BadPathReportsNotOk) {
  CsvWriter csv("/nonexistent_dir_xyz/file.csv");
  EXPECT_FALSE(csv.ok());
}

// --------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 3), "1.235");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 1), "2.0");
}

TEST(TablePrinterTest, AddNumericRow) {
  TablePrinter table({"name", "x", "y"});
  table.AddNumericRow("r", {0.5, 0.25}, 2);
  table.Print();  // smoke: must not crash
}

// ---------------------------------------------------------------- Timer

TEST(TimerTest, ElapsedNonNegativeAndMonotone) {
  Timer t;
  const double first = t.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GE(t.ElapsedSeconds(), first);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace deepdirect::util
