// Unit tests for common utilities: RNG determinism, Zipf distribution shape,
// statistics, the table formatter and the argument reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "common/zipf.hpp"

namespace dcs {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 0.9);
  double total = 0;
  for (std::size_t k = 0; k < z.size(); ++k) total += z.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, EmpiricalMatchesPmfForHeadRanks) {
  const std::size_t n = 50;
  ZipfSampler z(n, 0.9);
  Rng rng(13);
  std::vector<int> counts(n, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) counts[z.sample(rng)]++;
  for (std::size_t k = 0; k < 5; ++k) {
    const double expected = z.pmf(k) * draws;
    EXPECT_NEAR(counts[k], expected, expected * 0.05) << "rank " << k;
  }
}

TEST(ZipfTest, AlphaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-12);
}

TEST(ZipfTest, HigherAlphaConcentratesMass) {
  ZipfSampler lo(1000, 0.25), hi(1000, 0.9);
  EXPECT_GT(hi.pmf(0), lo.pmf(0));
}

TEST(ZipfTest, SampleEqualsLowerBoundOfItsCdf) {
  // The guide-table draw must be the binary search it replaced, for every
  // uniform the stream yields: same rank, same Rng consumption.
  constexpr int kDraws = 100000;
  for (const std::size_t n : {1, 2, 3, 768, 1024, 4097}) {
    for (const double alpha : {0.0, 0.25, 0.75, 0.9, 1.5}) {
      const ZipfSampler z(n, alpha);
      const auto& cdf = z.cdf();
      Rng rng(n * 31 + static_cast<std::uint64_t>(alpha * 100));
      Rng ref = rng;
      int mismatches = 0;
      for (int i = 0; i < kDraws; ++i) {
        const double u = ref.uniform_double();
        const auto want = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        if (z.sample(rng) != want) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0) << "n=" << n << " alpha=" << alpha;
    }
  }
}

TEST(ZipfTest, TraceDeterministicAndInRange) {
  ZipfTrace t1(100, 0.75, 5000, 99);
  ZipfTrace t2(100, 0.75, 5000, 99);
  EXPECT_EQ(t1.requests(), t2.requests());
  for (auto d : t1.requests()) EXPECT_LT(d, 100u);
}

TEST(ZipfTest, TraceDiffersAcrossSeeds) {
  ZipfTrace t1(100, 0.75, 1000, 1);
  ZipfTrace t2(100, 0.75, 1000, 2);
  EXPECT_NE(t1.requests(), t2.requests());
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, MergeEqualsCombinedStream) {
  RunningStat a, b, all;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_double() * 10;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(LatencySamplesTest, ExactPercentiles) {
  LatencySamples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
  EXPECT_EQ(s.max(), 100.0);
}

TEST(LatencySamplesTest, EmptyReturnsZero) {
  LatencySamples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

TEST(LatencySamplesTest, LinearInterpolationHandComputed) {
  // Four samples: rank r = p/100 * (n-1); interpolate between floor/ceil.
  LatencySamples s;
  for (double v : {40.0, 10.0, 30.0, 20.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);   // r=1.5 -> 20 + 0.5*(30-20)
  EXPECT_NEAR(s.percentile(99), 39.7, 1e-9);  // r=2.97 -> 30 + 0.97*10
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
}

TEST(LatencySamplesTest, SingleSampleAllPercentilesEqual) {
  LatencySamples s;
  s.add(7.25);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.25);
}

TEST(LogHistogramTest, BucketsPowerOfTwo) {
  LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);   // 0
  EXPECT_EQ(h.bucket_count(1), 1u);   // 1
  EXPECT_EQ(h.bucket_count(2), 2u);   // 2,3
  EXPECT_EQ(h.bucket_count(11), 1u);  // 1024
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"scheme", "8k", "16k"});
  t.add_row({"AC", "1000", "900"});
  t.add_row("BCC", {1500.5, 1400.25}, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("scheme"), std::string::npos);
  EXPECT_NE(s.find("1500.5"), std::string::npos);
  EXPECT_NE(s.find("BCC"), std::string::npos);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(microseconds(1), 1000u);
  EXPECT_EQ(milliseconds(1), 1000000u);
  EXPECT_EQ(seconds(1), 1000000000u);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(55)), 55.0);
  EXPECT_EQ(8_KB, 8192u);
  EXPECT_EQ(2_MB, 2097152u);
}

// --- the argument reader (common/args.hpp) ---

/// The reader over `argv` (argv[0] is the program name), with `--check` a
/// declared switch.
Args args_of(std::vector<const char*> argv) {
  return Args(static_cast<int>(argv.size()), argv.data(), {"--check"});
}

TEST(ArgsTest, ReadsBothValueForms) {
  const Args args = args_of({"/bin/tool", "--nodes", "64", "--alpha=-1.5",
                             "--out=a=b"});
  EXPECT_EQ(args.count<int>("--nodes"), 64);
  EXPECT_EQ(args.real("--alpha", 0), -1.5);
  EXPECT_EQ(args.text("--out"), "a=b");
  EXPECT_EQ(args.count<int>("--absent"), std::nullopt);
  EXPECT_EQ(args.text("--absent", "x"), "x");
  args.reject_unread();  // returns
}

TEST(ArgsTest, SwitchesStandBeforeOrAfterAValueFlag) {
  for (const auto& argv :
       {std::vector<const char*>{"tool", "--check", "--node", "3"},
        std::vector<const char*>{"tool", "--node", "3", "--check"},
        std::vector<const char*>{"tool", "--node=3", "--check"}}) {
    const Args args = args_of(argv);
    EXPECT_TRUE(args.given("--check"));
    EXPECT_EQ(args.count<int>("--node"), 3);
    args.reject_unread();
  }
  const Args none = args_of({"tool", "--node", "3"});
  EXPECT_FALSE(none.given("--check"));
}

TEST(ArgsTest, LastOccurrenceWins) {
  const Args args =
      args_of({"tool", "--node", "1", "--node=2", "--scheme", "a", "--node",
               "3", "--scheme=b"});
  EXPECT_EQ(args.count<int>("--node"), 3);
  EXPECT_EQ(args.choice("--scheme", {"a", "b"}), "b");
  args.reject_unread();
}

TEST(ArgsTest, PositionalsComeInOrderAroundFlags) {
  const Args args = args_of({"tool", "first", "--check", "second", "--top",
                             "4", "third"});
  EXPECT_TRUE(args.given("--check"));
  EXPECT_EQ(args.count<int>("--top"), 4);
  EXPECT_EQ(args.positional(), "first");
  EXPECT_EQ(args.positional(), "second");
  EXPECT_EQ(args.positional(), "third");
  EXPECT_EQ(args.positional(), std::nullopt);
  args.reject_unread();
}

TEST(ArgsDeathTest, RejectUnreadNamesTheFirstOffendingToken) {
  const Args unknown = args_of({"/bin/tool", "--node", "1", "--nod", "2"});
  (void)unknown.count<int>("--node");
  EXPECT_EXIT(unknown.reject_unread(), ::testing::ExitedWithCode(2),
              "^tool: unknown flag '--nod'\n$");

  const Args valueless = args_of({"tool", "--out"});
  EXPECT_EQ(valueless.text("--out"), "");
  EXPECT_EXIT(valueless.reject_unread(), ::testing::ExitedWithCode(2),
              "tool: missing value for '--out'");

  const Args before_flag = args_of({"tool", "--out", "--check"});
  EXPECT_TRUE(before_flag.given("--check"));
  EXPECT_EQ(before_flag.text("--out"), "");
  EXPECT_EXIT(before_flag.reject_unread(), ::testing::ExitedWithCode(2),
              "tool: missing value for '--out'");

  const Args stray = args_of({"tool", "-x"});
  EXPECT_EXIT(stray.reject_unread(), ::testing::ExitedWithCode(2),
              "tool: unexpected argument '-x'");

  const Args extra = args_of({"tool", "file", "more"});
  EXPECT_EQ(extra.positional(), "file");
  EXPECT_EXIT(extra.reject_unread(), ::testing::ExitedWithCode(2),
              "tool: unexpected argument 'more'");

  const Args unread_switch = args_of({"tool", "--check"});
  EXPECT_EXIT(unread_switch.reject_unread(), ::testing::ExitedWithCode(2),
              "tool: unknown flag '--check'");

  const Args switch_value = args_of({"tool", "--check=1"});
  EXPECT_FALSE(switch_value.given("--check"));
  EXPECT_EXIT(switch_value.reject_unread(), ::testing::ExitedWithCode(2),
              "tool: unexpected argument '--check=1'");
}

TEST(ArgsDeathTest, BadValuesExitTwoNamingTheFlag) {
  const Args args = args_of({"tool", "--nodes=0", "--ring", "300",
                             "--mode", "foo"});
  EXPECT_EXIT((void)args.count<int>("--nodes", 1), ::testing::ExitedWithCode(2),
              "--nodes: expected an integer >= 1, got '0'");
  EXPECT_EXIT((void)args.count<std::uint8_t>("--ring"),
              ::testing::ExitedWithCode(2),
              "--ring: expected an integer <= 255, got '300'");
  EXPECT_EXIT((void)args.choice("--mode", {"shared", "exclusive"}),
              ::testing::ExitedWithCode(2),
              "--mode: expected one of shared.exclusive, got 'foo'");
}

}  // namespace
}  // namespace dcs
