#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <algorithm>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>

#include "util/chain.h"
#include "util/logging.h"
#include "util/config.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace lncl::util {
namespace {

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), -2.0f);
}

TEST(MatrixTest, FillZeroResize) {
  Matrix m(2, 2, 3.0f);
  m.Zero();
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  m.Fill(2.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 2.0f);
  m.Resize(3, 1);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_FLOAT_EQ(m(2, 0), 0.0f);
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix a(2, 2);
  Matrix b(2, 2, 1.0f);
  a.AddScaled(b, 2.0f);
  EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
  a.Scale(0.5f);
  EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 4.0);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3);
  // a = [[1, 2, 3], [4, 5, 6]]
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = static_cast<float>(3 * i + j + 1);
  }
  Matrix b(3, 2);
  // b = [[7, 8], [9, 10], [11, 12]]
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) b(i, j) = static_cast<float>(2 * i + j + 7);
  }
  Matrix c;
  MatMul(a, b, &c);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(MatrixTest, TransposedProductsAgreeWithExplicitTranspose) {
  Rng rng(7);
  Matrix a(4, 3), b(4, 5);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = static_cast<float>(rng.Gaussian());
    for (int j = 0; j < 5; ++j) b(i, j) = static_cast<float>(rng.Gaussian());
  }
  // Explicit a^T.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  Matrix expected, got;
  MatMul(at, b, &expected);
  MatMulTransA(a, b, &got);
  ASSERT_EQ(got.rows(), expected.rows());
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      EXPECT_NEAR(got(i, j), expected(i, j), 1e-4);
    }
  }
  // a * (b^T with b reshaped): test MatMulTransB via small identity.
  Matrix c(2, 3), d(4, 3), e;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) c(i, j) = static_cast<float>(i + j);
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) d(i, j) = static_cast<float>(i * j + 1);
  }
  MatMulTransB(c, d, &e);
  EXPECT_EQ(e.rows(), 2);
  EXPECT_EQ(e.cols(), 4);
  // e(1, 2) = row1(c) . row2(d) = [1,2,3] . [1,3,5] = 22.
  EXPECT_FLOAT_EQ(e(1, 2), 22.0f);
}

TEST(MatrixTest, MatVecAndTranspose) {
  Matrix w(2, 3);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) w(i, j) = static_cast<float>(i * 3 + j);
  }
  Vector x = {1.0f, 2.0f, 3.0f};
  Vector y;
  MatVec(w, x, &y);
  EXPECT_FLOAT_EQ(y[0], 8.0f);   // 0+2+6
  EXPECT_FLOAT_EQ(y[1], 26.0f);  // 3+8+15
  Vector z = {1.0f, -1.0f};
  Vector back;
  MatVecTrans(w, z, &back);
  EXPECT_FLOAT_EQ(back[0], -3.0f);
  EXPECT_FLOAT_EQ(back[1], -3.0f);
  EXPECT_FLOAT_EQ(back[2], -3.0f);
}

TEST(MatrixTest, OuterAddAndDot) {
  Matrix w(2, 2);
  OuterAdd({1.0f, 2.0f}, {3.0f, 4.0f}, 1.0f, &w);
  EXPECT_FLOAT_EQ(w(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(w(1, 1), 8.0f);
  EXPECT_FLOAT_EQ(Dot({1.0f, 2.0f}, {3.0f, 4.0f}), 11.0f);
  Vector y = {1.0f, 1.0f};
  AddScaled({2.0f, 3.0f}, 2.0f, &y);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // Child and parent should produce different sequences.
  int diff = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Uniform() != child.Uniform()) ++diff;
  }
  EXPECT_GT(diff, 20);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    const int w = rng.UniformInt(3, 5);
    EXPECT_GE(w, 3);
    EXPECT_LE(w, 5);
  }
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalSkipsZeroWeight) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(3);
  const std::vector<int> s = rng.SampleWithoutReplacement(10, 6);
  EXPECT_EQ(s.size(), 6u);
  std::vector<bool> seen(10, false);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, BetaInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double b = rng.Beta(2.0, 5.0);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    sum += b;
  }
  EXPECT_NEAR(sum / 2000.0, 2.0 / 7.0, 0.02);  // mean of Beta(2,5)
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian(2.0, 3.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, MeanAndStdDev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(StdDev(xs), 2.13809, 1e-4);  // sample std
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, QuantileInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 1.75);
}

TEST(StatsTest, BoxplotSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(static_cast<double>(i));
  const BoxplotSummary s = Summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_EQ(s.n, 101);
}

TEST(StatsTest, LogGammaMatchesFactorials) {
  // Gamma(n) = (n-1)!.
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-9);
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-9);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-9);
}

TEST(StatsTest, IncompleteBetaBoundsAndSymmetry) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  const double x = 0.3;
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 5.0, x),
              1.0 - RegularizedIncompleteBeta(5.0, 2.0, 1.0 - x), 1e-10);
  // I_x(1, 1) = x.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.42), 0.42, 1e-10);
}

TEST(StatsTest, StudentTCdfReferenceValues) {
  // Symmetric around zero.
  EXPECT_NEAR(StudentTCdf(0.0, 10.0), 0.5, 1e-10);
  // t-dist with large df approaches the normal: P(T < 1.96) ~ 0.975.
  EXPECT_NEAR(StudentTCdf(1.96, 10000.0), 0.975, 1e-3);
  // Reference: P(T < 2.228 | df=10) = 0.975.
  EXPECT_NEAR(StudentTCdf(2.228, 10.0), 0.975, 1e-3);
}

TEST(StatsTest, NormalQuantileReference) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.99), 2.326348, 1e-4);
}

TEST(StatsTest, ChiSquaredQuantileReference) {
  // chi2 median with k df is approximately k(1 - 2/(9k))^3.
  EXPECT_NEAR(ChiSquaredQuantile(0.95, 10.0), 18.307, 0.2);
  EXPECT_NEAR(ChiSquaredQuantile(0.05, 10.0), 3.940, 0.2);
  // Monotone in df.
  EXPECT_LT(ChiSquaredQuantile(0.05, 5.0), ChiSquaredQuantile(0.05, 50.0));
}

TEST(StatsTest, WelchTTestDetectsDifference) {
  std::vector<double> a, b;
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.Gaussian(1.0, 0.5));
    b.push_back(rng.Gaussian(0.0, 0.5));
  }
  const TTestResult r = WelchTTest(a, b);
  EXPECT_GT(r.t, 3.0);
  EXPECT_LT(r.p_one_sided, 0.01);
  EXPECT_LT(r.p_two_sided, 0.02);
}

TEST(StatsTest, WelchTTestNullCase) {
  std::vector<double> a, b;
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.Gaussian(0.0, 1.0));
    b.push_back(rng.Gaussian(0.0, 1.0));
  }
  const TTestResult r = WelchTTest(a, b);
  EXPECT_GT(r.p_two_sided, 0.01);  // should not be wildly significant
  EXPECT_GT(r.df, 100.0);
}

TEST(StatsTest, WelchTTestDegenerate) {
  const TTestResult r = WelchTTest({1.0}, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(r.p_one_sided, 1.0);  // too few samples -> no signal
}



TEST(TableTest, RaggedRowsPrintSafely) {
  Table t("Ragged");
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"only-one"});
  t.AddRow({"x", "y", "z"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
  EXPECT_NE(os.str().find("z"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(LoggingTest, ThresholdSuppressesAndRestores) {
  // Only checks that the API round-trips; output goes to stderr.
  const LogLevel before = Logger::GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(Logger::GetLogLevel(), LogLevel::kError);
  LNCL_LOG(Info) << "suppressed";
  SetLogLevel(before);
  EXPECT_EQ(Logger::GetLogLevel(), before);
}

TEST(StatsTest, SummarizeSingleValue) {
  const BoxplotSummary s = Summarize({3.5});
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
  EXPECT_EQ(s.n, 1);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(55);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

// ------------------------------------------------------------------ Chain --

TEST(ChainViterbiTest, FollowsDominantEmissions) {
  const int k = 3;
  Vector prior(k, 1.0f / k);
  Matrix transition(k, k, 1.0f / k);
  Matrix emission(4, k, 0.01f);
  emission(0, 2) = 1.0f;
  emission(1, 0) = 1.0f;
  emission(2, 1) = 1.0f;
  emission(3, 1) = 1.0f;
  std::vector<int> path;
  ChainViterbi(prior, transition, emission, &path);
  EXPECT_EQ(path, (std::vector<int>{2, 0, 1, 1}));
}

TEST(ChainViterbiTest, TransitionsBreakEmissionTies) {
  // Both states equally likely by emission; sticky transitions plus a prior
  // nudge should keep the chain in state 0.
  const int k = 2;
  Vector prior = {0.9f, 0.1f};
  Matrix transition(k, k);
  transition(0, 0) = 0.9f; transition(0, 1) = 0.1f;
  transition(1, 0) = 0.1f; transition(1, 1) = 0.9f;
  Matrix emission(5, k, 1.0f);
  std::vector<int> path;
  ChainViterbi(prior, transition, emission, &path);
  for (int s : path) EXPECT_EQ(s, 0);
}

TEST(ChainViterbiTest, MatchesBruteForceOnRandomChains) {
  Rng rng(97);
  for (int trial = 0; trial < 20; ++trial) {
    const int k = 2 + rng.UniformInt(2);   // 2-3 states
    const int t_len = 2 + rng.UniformInt(3);  // 2-4 steps
    Vector prior(k);
    Matrix transition(k, k), emission(t_len, k);
    for (int m = 0; m < k; ++m) prior[m] = static_cast<float>(rng.Uniform(0.05, 1.0));
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        transition(a, b) = static_cast<float>(rng.Uniform(0.05, 1.0));
      }
    }
    for (int t = 0; t < t_len; ++t) {
      for (int m = 0; m < k; ++m) {
        emission(t, m) = static_cast<float>(rng.Uniform(0.05, 1.0));
      }
    }
    std::vector<int> viterbi;
    ChainViterbi(prior, transition, emission, &viterbi);

    // Brute force.
    std::vector<int> assign(t_len, 0), best_assign(t_len, 0);
    double best = -1.0;
    for (;;) {
      double w = prior[assign[0]] * emission(0, assign[0]);
      for (int t = 1; t < t_len; ++t) {
        w *= transition(assign[t - 1], assign[t]) * emission(t, assign[t]);
      }
      if (w > best) {
        best = w;
        best_assign = assign;
      }
      int pos = t_len - 1;
      while (pos >= 0 && ++assign[pos] == k) {
        assign[pos] = 0;
        --pos;
      }
      if (pos < 0) break;
    }
    EXPECT_EQ(viterbi, best_assign) << "trial " << trial;
  }
}

TEST(ChainForwardBackwardTest, MarginalsMatchBruteForce) {
  Rng rng(98);
  const int k = 3, t_len = 4;
  Vector prior(k);
  Matrix transition(k, k), emission(t_len, k);
  for (int m = 0; m < k; ++m) prior[m] = static_cast<float>(rng.Uniform(0.05, 1.0));
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      transition(a, b) = static_cast<float>(rng.Uniform(0.05, 1.0));
    }
  }
  for (int t = 0; t < t_len; ++t) {
    for (int m = 0; m < k; ++m) {
      emission(t, m) = static_cast<float>(rng.Uniform(0.05, 1.0));
    }
  }
  Matrix gamma;
  ChainForwardBackward(prior, transition, {&emission, 1}, {&gamma, 1},
                       nullptr);

  std::vector<double> marg(static_cast<size_t>(t_len) * k, 0.0);
  double total = 0.0;
  std::vector<int> assign(t_len, 0);
  for (;;) {
    double w = prior[assign[0]] * emission(0, assign[0]);
    for (int t = 1; t < t_len; ++t) {
      w *= transition(assign[t - 1], assign[t]) * emission(t, assign[t]);
    }
    total += w;
    for (int t = 0; t < t_len; ++t) {
      marg[static_cast<size_t>(t) * k + assign[t]] += w;
    }
    int pos = t_len - 1;
    while (pos >= 0 && ++assign[pos] == k) {
      assign[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  for (int t = 0; t < t_len; ++t) {
    for (int m = 0; m < k; ++m) {
      EXPECT_NEAR(gamma(t, m), marg[static_cast<size_t>(t) * k + m] / total,
                  1e-4);
    }
  }
}

// ---------------------------------------------------------------- Config --

TEST(ConfigTest, ParsesKeyValueForms) {
  // Note: a bare "--flag" consumes a following non-flag token as its value,
  // so flags without values go last (or use --flag=1).
  const char* argv[] = {"prog", "--alpha=0.5", "--beta", "7",
                        "positional", "--flag"};
  Config config(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(config.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(config.GetInt("beta", 0), 7);
  EXPECT_TRUE(config.GetBool("flag", false));
  EXPECT_FALSE(config.GetBool("missing", false));
  EXPECT_EQ(config.GetString("missing", "d"), "d");
  ASSERT_EQ(config.positional().size(), 1u);
  EXPECT_EQ(config.positional()[0], "positional");
}

TEST(ConfigTest, EnvironmentFallback) {
  setenv("LNCL_TESTKEY", "99", 1);
  Config config;
  EXPECT_EQ(config.GetInt("testkey", 0), 99);
  unsetenv("LNCL_TESTKEY");
  EXPECT_EQ(config.GetInt("testkey", 3), 3);
}

TEST(ConfigTest, MalformedNumbersFallBack) {
  const char* argv[] = {"prog", "--n=abc"};
  Config config(2, const_cast<char**>(argv));
  EXPECT_EQ(config.GetInt("n", 5), 5);
  EXPECT_DOUBLE_EQ(config.GetDouble("n", 2.5), 2.5);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, PrintsAlignedRows) {
  Table t("Demo");
  t.SetHeader({"Method", "Acc"});
  t.AddRow({"MV", "88.58"});
  t.AddSeparator();
  t.AddRow({"Logic-LNCL", "91.82"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("Logic-LNCL"), std::string::npos);
  EXPECT_NE(s.find("88.58"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table t("X");
  t.SetHeader({"a", "b"});
  t.AddRow({"va,l", "quo\"te"});
  const std::string path = testing::TempDir() + "/lncl_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"va,l\",\"quo\"\"te\"");
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 0), "2");
  EXPECT_EQ(FormatMeanStd(1.234, 0.056), "1.23 ±0.06");
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitThenSubmitMore) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(10); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPoolTest, ParallelRunCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelRun(257, [&hits](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool is reusable afterwards.
  std::atomic<int> counter{0};
  pool.ParallelRun(10, [&counter](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelRunHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelRun(0, [&counter](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  pool.ParallelRun(1, [&counter](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}

// ---------------------------------------------------------- Parallelizer --

TEST(ParallelizerTest, SlotRangePartitionsExactly) {
  for (int n : {0, 1, 7, 8, 9, 63, 64, 100}) {
    int covered = 0;
    int prev_end = 0;
    for (int s = 0; s < Parallelizer::kSlots; ++s) {
      const auto [b, e] = Parallelizer::SlotRange(n, s, Parallelizer::kSlots);
      EXPECT_EQ(b, prev_end) << "gap before slot " << s << " for n=" << n;
      EXPECT_LE(b, e);
      // Balanced: slot sizes differ by at most one.
      EXPECT_LE(e - b, n / Parallelizer::kSlots + 1);
      covered += e - b;
      prev_end = e;
    }
    EXPECT_EQ(covered, n);
    EXPECT_EQ(prev_end, n);
  }
}

TEST(ParallelizerTest, RunSlotsVisitsEachSlotOnceAnyThreadCount) {
  for (int threads : {1, 2, 8}) {
    Parallelizer exec(threads);
    std::vector<std::atomic<int>> hits(Parallelizer::kSlots);
    exec.RunSlots(Parallelizer::kSlots,
                  [&hits](int s) { hits[s].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelizerTest, SlotPartitionIndependentOfThreadCount) {
  // The determinism contract: the slot -> index-range mapping is a pure
  // function of (n, kSlots), never of the thread count.
  const int n = 37;
  auto gather = [&](int threads) {
    Parallelizer exec(threads);
    std::vector<int> owner(n, -1);
    std::mutex mu;
    exec.RunSlots(Parallelizer::kSlots, [&](int s) {
      const auto [b, e] = Parallelizer::SlotRange(n, s, Parallelizer::kSlots);
      std::lock_guard<std::mutex> lock(mu);
      for (int i = b; i < e; ++i) owner[i] = s;
    });
    return owner;
  };
  EXPECT_EQ(gather(1), gather(4));
}

// ------------------------------------------------------------------ Gemm --

namespace {

// Double-accumulated reference, oblivious to blocking and unrolling.
Matrix NaiveGemm(float alpha, const Matrix& a, Trans ta, const Matrix& b,
                 Trans tb, float beta, const Matrix& c0) {
  const int m = ta == Trans::kNo ? a.rows() : a.cols();
  const int k = ta == Trans::kNo ? a.cols() : a.rows();
  const int n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const float av = ta == Trans::kNo ? a(i, kk) : a(kk, i);
        const float bv = tb == Trans::kNo ? b(kk, j) : b(j, kk);
        acc += static_cast<double>(av) * bv;
      }
      const float prior = beta == 0.0f ? 0.0f : beta * c0(i, j);
      c(i, j) = static_cast<float>(alpha * acc) + prior;
    }
  }
  return c;
}

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Gaussian(0.0, 1.0);
  }
  return m;
}

void ExpectNear(const Matrix& got, const Matrix& want, float tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got(r, c), want(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

}  // namespace

TEST(GemmTest, MatchesNaiveAcrossShapesTransposesAndBetas) {
  Rng rng(1234);
  // Shapes chosen to hit the kNc=128 column blocking, the k-unroll remainder,
  // and the degenerate edges (1xN, Nx1, empty m/n, k=0).
  const int shapes[][3] = {{3, 5, 4},   {1, 7, 9},   {7, 1, 9},  {9, 7, 1},
                           {2, 130, 3}, {130, 2, 5}, {4, 6, 133}, {17, 31, 29},
                           {0, 5, 4},   {5, 0, 4},   {5, 4, 0}};
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1], k = s[2];
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      for (Trans tb : {Trans::kNo, Trans::kYes}) {
        for (float beta : {0.0f, 1.0f, 0.5f}) {
          const Matrix a = ta == Trans::kNo ? RandomMatrix(m, k, &rng)
                                            : RandomMatrix(k, m, &rng);
          const Matrix b = tb == Trans::kNo ? RandomMatrix(k, n, &rng)
                                            : RandomMatrix(n, k, &rng);
          const Matrix c0 = RandomMatrix(m, n, &rng);
          const float alpha = 0.75f;
          Matrix c = c0;
          Gemm(alpha, a, ta, b, tb, beta, &c);
          const Matrix want = NaiveGemm(alpha, a, ta, b, tb, beta, c0);
          const float tol = 1e-4f * (k + 1);
          ExpectNear(c, want, tol);
        }
      }
    }
  }
}

TEST(GemmTest, BetaZeroResizesAndIgnoresGarbage) {
  Rng rng(5);
  const Matrix a = RandomMatrix(3, 4, &rng);
  const Matrix b = RandomMatrix(4, 6, &rng);
  Matrix c(9, 9, std::numeric_limits<float>::quiet_NaN());
  Gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, &c);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 6);
  const Matrix want = NaiveGemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c);
  ExpectNear(c, want, 1e-4f);
}

TEST(GemmTest, LegacyWrappersAgreeWithGemm) {
  Rng rng(6);
  const Matrix a = RandomMatrix(5, 7, &rng);
  const Matrix b = RandomMatrix(7, 3, &rng);
  Matrix out;
  MatMul(a, b, &out);
  ExpectNear(out, NaiveGemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, out),
             1e-4f);
}

TEST(GemmRawTest, StridedViewMatchesMaterializedCopy) {
  // The conv use case: the sliding windows of a row-major T x D input are an
  // (out_rows x window*D) operand with lda = D. Multiplying that view against
  // the filter bank must match the same product over materialized patches.
  Rng rng(7);
  const int t = 12, d = 5, window = 3, f = 4;
  const int out_rows = t - window + 1;
  const int k_dim = window * d;
  const Matrix x = RandomMatrix(t, d, &rng);
  const Matrix w = RandomMatrix(f, k_dim, &rng);

  Matrix patches(out_rows, k_dim);
  for (int o = 0; o < out_rows; ++o) {
    for (int k = 0; k < k_dim; ++k) patches(o, k) = x(o + k / d, k % d);
  }
  Matrix want;
  Gemm(1.0f, patches, Trans::kNo, w, Trans::kYes, 0.0f, &want);

  Matrix got(out_rows, f);
  GemmRaw(out_rows, f, k_dim, 1.0f, x.data(), d, Trans::kNo, w.data(), k_dim,
          Trans::kYes, 0.0f, got.data(), f);
  ExpectNear(got, want, 1e-4f);
}

TEST(GemmRawTest, StridedOutputWritesOnlyTheView) {
  // C with ldc wider than n: columns outside the view must be untouched.
  Rng rng(8);
  const Matrix a = RandomMatrix(3, 4, &rng);
  const Matrix b = RandomMatrix(4, 2, &rng);
  Matrix c(3, 5, 9.0f);
  GemmRaw(3, 2, 4, 1.0f, a.data(), 4, Trans::kNo, b.data(), 2, Trans::kNo,
          0.0f, c.data(), 5);
  Matrix want;
  Gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, &want);
  for (int r = 0; r < 3; ++r) {
    for (int col = 0; col < 2; ++col) {
      EXPECT_NEAR(c(r, col), want(r, col), 1e-4f);
    }
    for (int col = 2; col < 5; ++col) EXPECT_EQ(c(r, col), 9.0f);
  }
}

// -------------------------------------------------------- Resize capacity --

TEST(MatrixTest, ResizeReusesAllocationWhenShapeFits) {
  Matrix m(16, 16);
  const float* p = m.data();
  m.Resize(4, 8);  // shrink: must not reallocate
  EXPECT_EQ(m.data(), p);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 8);
  m.Resize(16, 16);  // regrow within original capacity: still no realloc
  EXPECT_EQ(m.data(), p);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
}

TEST(MatrixTest, ResizeNoZeroKeepsShapeButSkipsFill) {
  Matrix m(2, 3, 7.0f);
  m.ResizeNoZero(3, 2);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.size(), 6u);
  m.Resize(1, 2);
  EXPECT_EQ(m(0, 0), 0.0f);
  EXPECT_EQ(m(0, 1), 0.0f);
}

TEST(CheckTest, PassingCheckIsSilent) {
  LNCL_CHECK(1 + 1 == 2);  // must not abort or log
}

TEST(CheckDeathTest, FailingCheckAbortsWithFileAndLine) {
  // LNCL_CHECK is always on — release builds included — and must identify
  // the failing expression and call site even when the log threshold would
  // swallow an Error record.
  Logger::SetLogLevel(LogLevel::kError);
  EXPECT_DEATH(LNCL_CHECK(2 + 2 == 5),
               "util_test\\.cc:[0-9]+\\] CHECK failed: 2 \\+ 2 == 5");
  Logger::SetLogLevel(LogLevel::kInfo);
}

TEST(CheckDeathTest, CheckFailureCarriesDetail) {
  EXPECT_DEATH(CheckFailure("dir/some_file.cc", 42, "p != nullptr", "ctx"),
               "some_file\\.cc:42\\] CHECK failed: p != nullptr \\(ctx\\)");
}

TEST(CheckTest, DcheckMatchesBuildMode) {
#if LNCL_AUDIT_ENABLED
  EXPECT_DEATH(LNCL_DCHECK(false), "CHECK failed: false");
#else
  LNCL_DCHECK(false);  // compiled out: must be a no-op
#endif
}

}  // namespace
}  // namespace lncl::util
