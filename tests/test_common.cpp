// Tests for the common substrate: RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/env_catalog.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace mecsc::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsIndependentOfChildUsage) {
  Rng a(7);
  Rng b(7);
  Rng child_a = a.split();
  Rng child_b = b.split();
  // Consuming child_a heavily must not change the parent's stream.
  for (int i = 0; i < 1000; ++i) child_a.uniform();
  (void)child_b;
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.3));
    EXPECT_TRUE(rng.bernoulli(1.7));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ParetoMeanMatchesTheory) {
  // E[Pareto(x_m, alpha)] = alpha*x_m/(alpha-1) for alpha > 1.
  Rng rng(17);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.pareto(1.0, 3.0);
  EXPECT_NEAR(sum / n, 1.5, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(23);
  std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.weighted_index(w));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

class RunningStatsMergeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunningStatsMergeTest, MergeEqualsSequential) {
  Rng rng(GetParam());
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 500; ++i) {
    double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsMergeTest,
                         ::testing::Values(1, 2, 3, 10, 99, 12345));

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(5.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(StatsHelpers, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsHelpers, QuantileOf) {
  std::vector<double> v{3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.5), 2.5);
  EXPECT_THROW(quantile_of({}, 0.5), std::invalid_argument);
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  Stopwatch w;
  double t1 = w.elapsed_seconds();
  double t2 = w.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.restart();
  EXPECT_GE(w.elapsed_ms(), 0.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"alg", "delay"});
  t.add_row({"OL_GD", "41.2"});
  t.add_row_values({1.0, 2.5}, 1);
  std::string s = t.to_string();
  EXPECT_NE(s.find("OL_GD"), std::string::npos);
  EXPECT_NE(s.find("41.2"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, CsvEscapesCommas) {
  Table t({"a"});
  t.add_row({"x,y"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::exception);
}

TEST(EnvSize, UnsetAndEmptyYieldNullopt) {
  ::unsetenv("MECSC_TEST_ENV");
  EXPECT_FALSE(env_size_strict("MECSC_TEST_ENV").has_value());
  EXPECT_EQ(env_size_or("MECSC_TEST_ENV", 7u), 7u);
  ::setenv("MECSC_TEST_ENV", "", 1);
  EXPECT_FALSE(env_size_strict("MECSC_TEST_ENV").has_value());
  ::unsetenv("MECSC_TEST_ENV");
}

TEST(EnvSize, ParsesPlainIntegers) {
  ::setenv("MECSC_TEST_ENV", "42", 1);
  auto v = env_size_strict("MECSC_TEST_ENV");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42u);
  EXPECT_EQ(env_size_or("MECSC_TEST_ENV", 7u), 42u);
  ::unsetenv("MECSC_TEST_ENV");
}

TEST(EnvSize, ExplicitZeroIsZeroNotFallback) {
  ::setenv("MECSC_TEST_ENV", "0", 1);
  auto v = env_size_strict("MECSC_TEST_ENV");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0u);
  EXPECT_EQ(env_size_or("MECSC_TEST_ENV", 7u), 0u);
  ::unsetenv("MECSC_TEST_ENV");
}

TEST(EnvSize, RejectsTrailingGarbageAndNonNumeric) {
  ::setenv("MECSC_TEST_ENV", "10abc", 1);
  EXPECT_FALSE(env_size_strict("MECSC_TEST_ENV").has_value());
  EXPECT_EQ(env_size_or("MECSC_TEST_ENV", 7u), 7u);  // fallback, not 10
  ::setenv("MECSC_TEST_ENV", "abc", 1);
  EXPECT_FALSE(env_size_strict("MECSC_TEST_ENV").has_value());
  ::setenv("MECSC_TEST_ENV", "1.5", 1);
  EXPECT_FALSE(env_size_strict("MECSC_TEST_ENV").has_value());
  ::unsetenv("MECSC_TEST_ENV");
}

TEST(EnvCatalog, CoversKnownVariablesSortedAndUnique) {
  const auto& vars = env_catalog();
  ASSERT_GE(vars.size(), 5u);
  std::set<std::string> names;
  std::string prev;
  for (const auto& v : vars) {
    std::string name = v.name;
    EXPECT_EQ(name.rfind("MECSC_", 0), 0u) << name;
    EXPECT_GT(name, prev) << "catalogue must stay sorted by name";
    prev = name;
    names.insert(name);
    EXPECT_NE(std::string(v.type), "");
    EXPECT_NE(std::string(v.default_value), "");
    EXPECT_NE(std::string(v.effect), "");
  }
  EXPECT_EQ(names.size(), vars.size());
  EXPECT_TRUE(names.count("MECSC_AGGREGATE"));
  EXPECT_TRUE(names.count("MECSC_WORKERS"));
  EXPECT_TRUE(names.count("MECSC_TELEMETRY"));
}

TEST(EnvCatalog, TableListsEveryVariable) {
  std::string table = env_catalog_table();
  for (const auto& v : env_catalog()) {
    EXPECT_NE(table.find(v.name), std::string::npos) << v.name;
  }
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace mecsc::common
