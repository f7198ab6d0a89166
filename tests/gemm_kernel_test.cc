// Tests for the register-blocked GEMM microkernel layer
// (src/util/gemm_kernel.{h,cc}): SIMD-vs-scalar bit equality across every
// transpose variant and shape tail, fused-epilogue equivalence, pack-cache
// coherence, the int8 serving kernel, and the LNCL_GEMM_KERNEL dispatch
// override (including its death paths).

#include "util/gemm_kernel.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/quantize.h"
#include "util/matrix.h"

namespace lncl::util::gemm {
namespace {

// Deterministic fill in [-1, 1): a fixed LCG so failures reproduce anywhere.
class TestRng {
 public:
  explicit TestRng(uint32_t seed) : state_(seed) {}
  float Next() {
    state_ = state_ * 1664525u + 1013904223u;
    return static_cast<float>(state_ >> 8) /
               static_cast<float>(1u << 24) * 2.0f -
           1.0f;
  }
  void Fill(std::vector<float>* v) {
    for (float& x : *v) x = Next();
  }

 private:
  uint32_t state_;
};

bool BytesEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Restores the startup dispatch choice after every test so the latched
// ActiveKind never leaks between tests (or into other suites).
class GemmKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetActiveKindForTest(ParseKindEnv()); }
};

// Runs the raw kernel under both kinds and returns (scalar, simd) outputs.
struct BothKinds {
  std::vector<float> scalar;
  std::vector<float> simd;
};

BothKinds RunBothKinds(int m, int n, int k, float alpha,
                       const std::vector<float>& a, int lda, Trans ta,
                       const std::vector<float>& b, int ldb, Trans tb,
                       float beta, const std::vector<float>& c_init, int ldc,
                       const float* bias, Act act) {
  BothKinds out;
  out.scalar = c_init;
  SetActiveKindForTest(Kind::kScalar);
  GemmEx(m, n, k, alpha, a.data(), lda, ta, b.data(), ldb, tb, beta,
         out.scalar.data(), ldc, bias, act);
  out.simd = c_init;
  SetActiveKindForTest(Kind::kSimd);
  GemmEx(m, n, k, alpha, a.data(), lda, ta, b.data(), ldb, tb, beta,
         out.simd.data(), ldc, bias, act);
  return out;
}

TEST_F(GemmKernelTest, SimdMatchesScalarBitwiseAllTransVariants) {
  if (!SimdCompiled()) GTEST_SKIP() << "no SIMD kernel in this build";
  // Sizes cross every microkernel boundary: sub-block m tails (1..5), the
  // full 6-row block, one/two-vector n strips, and masked n tails for both
  // 8-lane and 16-lane ISAs.
  const int sizes[] = {1, 3, 6, 16, 17, 33};
  TestRng rng(123);
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      for (int m : sizes) {
        for (int n : sizes) {
          for (int k : sizes) {
            for (float alpha : {1.0f, 0.5f}) {
              for (float beta : {0.0f, 1.0f, 0.5f}) {
                const int lda = ta == Trans::kNo ? k : m;
                const int ldb = tb == Trans::kNo ? n : k;
                std::vector<float> a(static_cast<size_t>(m) * k);
                std::vector<float> b(static_cast<size_t>(k) * n);
                std::vector<float> c(static_cast<size_t>(m) * n);
                rng.Fill(&a);
                rng.Fill(&b);
                rng.Fill(&c);
                const BothKinds r =
                    RunBothKinds(m, n, k, alpha, a, lda, ta, b, ldb, tb,
                                 beta, c, n, nullptr, Act::kNone);
                ASSERT_TRUE(BytesEqual(r.scalar, r.simd))
                    << "ta=" << (ta == Trans::kYes) << " tb="
                    << (tb == Trans::kYes) << " m=" << m << " n=" << n
                    << " k=" << k << " alpha=" << alpha << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(GemmKernelTest, FusedEpilogueMatchesUnfusedBitwise) {
  // act(alpha*A*B + beta*C + bias) fused must equal the unfused kernel run
  // followed by a separate bias+activation pass that mirrors the documented
  // epilogue order — in both dispatch arms.
  const int m = 7, n = 19, k = 23;
  TestRng rng(99);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> c(static_cast<size_t>(m) * n);
  std::vector<float> bias(n);
  rng.Fill(&a);
  rng.Fill(&b);
  rng.Fill(&c);
  rng.Fill(&bias);
  for (float beta : {0.0f, 0.5f}) {
    for (Act act : {Act::kNone, Act::kRelu}) {
      // Reference: scalar unfused + manual epilogue.
      std::vector<float> ref = c;
      SetActiveKindForTest(Kind::kScalar);
      GemmEx(m, n, k, 1.0f, a.data(), k, Trans::kNo, b.data(), n, Trans::kNo,
             beta, ref.data(), n, nullptr, Act::kNone);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          float t = ref[static_cast<size_t>(i) * n + j] + bias[j];
          if (act == Act::kRelu) t = t > 0.0f ? t : 0.0f;
          ref[static_cast<size_t>(i) * n + j] = t;
        }
      }
      std::vector<float> fused = c;
      GemmEx(m, n, k, 1.0f, a.data(), k, Trans::kNo, b.data(), n, Trans::kNo,
             beta, fused.data(), n, bias.data(), act);
      EXPECT_TRUE(BytesEqual(ref, fused))
          << "scalar fused != unfused, beta=" << beta
          << " act=" << static_cast<int>(act);
      if (SimdCompiled()) {
        std::vector<float> fused_simd = c;
        SetActiveKindForTest(Kind::kSimd);
        GemmEx(m, n, k, 1.0f, a.data(), k, Trans::kNo, b.data(), n,
               Trans::kNo, beta, fused_simd.data(), n, bias.data(), act);
        EXPECT_TRUE(BytesEqual(ref, fused_simd))
            << "simd fused != unfused, beta=" << beta
            << " act=" << static_cast<int>(act);
      }
    }
  }
}

TEST_F(GemmKernelTest, ResultRowsIndependentOfBatchSize) {
  // The contract behind per-instance == batched prediction: row i of an
  // m-row product is byte-equal to the m = 1 product on row i alone.
  const int m = 9, n = 21, k = 17;
  TestRng rng(7);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> bias(n);
  rng.Fill(&a);
  rng.Fill(&b);
  rng.Fill(&bias);
  const std::vector<Kind> kinds =
      SimdCompiled() ? std::vector<Kind>{Kind::kScalar, Kind::kSimd}
                     : std::vector<Kind>{Kind::kScalar};
  for (Kind kind : kinds) {
    SetActiveKindForTest(kind);
    std::vector<float> full(static_cast<size_t>(m) * n, 0.0f);
    GemmEx(m, n, k, 1.0f, a.data(), k, Trans::kNo, b.data(), n, Trans::kNo,
           0.0f, full.data(), n, bias.data(), Act::kRelu);
    for (int i = 0; i < m; ++i) {
      std::vector<float> row(n, 0.0f);
      GemmEx(1, n, k, 1.0f, a.data() + static_cast<size_t>(i) * k, k,
             Trans::kNo, b.data(), n, Trans::kNo, 0.0f, row.data(), n,
             bias.data(), Act::kRelu);
      ASSERT_EQ(0, std::memcmp(row.data(),
                               full.data() + static_cast<size_t>(i) * n,
                               sizeof(float) * n))
          << "row " << i << " kind " << KindName(kind);
    }
  }
}

TEST_F(GemmKernelTest, PackCacheTracksMatrixVersion) {
  // Matrix-level trans_b == kYes products run off the version-keyed pack
  // cache; mutating B must invalidate the cached panel.
  Matrix a(3, 4), b(5, 4), c1, c2;
  TestRng rng(41);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) a(i, j) = rng.Next();
  }
  for (int i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) b(i, j) = rng.Next();
  }
  MatMulTransB(a, b, &c1);
  MatMulTransB(a, b, &c2);  // second call: cache hit, same panel
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                           sizeof(float) * c1.size()));
  b(2, 3) += 1.0f;  // bumps b.version()
  MatMulTransB(a, b, &c2);
  // Column 2 of C depends on B row 2; a stale panel would keep the old value.
  EXPECT_NE(c1(0, 2), c2(0, 2));
}

TEST_F(GemmKernelTest, QuantizeRowsRoundTripBound) {
  Matrix w(9, 37);
  TestRng rng(5);
  for (int i = 0; i < w.rows(); ++i) {
    for (int j = 0; j < w.cols(); ++j) w(i, j) = rng.Next() * 3.0f;
  }
  w(4, 0) = 0.0f;  // exercise a row with an exact zero
  nn::RowQuantized qw;
  nn::QuantizeRows(w, &qw);
  ASSERT_EQ(qw.out, w.rows());
  ASSERT_EQ(qw.in, w.cols());
  EXPECT_TRUE(qw.Matches(w));
  for (int j = 0; j < w.rows(); ++j) {
    for (int k = 0; k < w.cols(); ++k) {
      const float deq =
          qw.scale[j] *
          static_cast<float>(qw.q[static_cast<size_t>(k) * w.rows() + j]);
      EXPECT_LE(std::fabs(w(j, k) - deq), qw.scale[j] * 0.5000001f)
          << "row " << j << " col " << k;
    }
  }
  // Mutation invalidates.
  w(0, 0) += 1.0f;
  EXPECT_FALSE(qw.Matches(w));
}

TEST_F(GemmKernelTest, Int8KernelMatchesDocumentedFormulaAndSimdAgrees) {
  const int m = 5, n = 19, k = 23;
  TestRng rng(17);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> bias(n);
  rng.Fill(&a);
  rng.Fill(&bias);
  std::vector<int8_t> q(static_cast<size_t>(k) * n);
  std::vector<float> scale(n);
  for (size_t i = 0; i < q.size(); ++i) {
    q[i] = static_cast<int8_t>(static_cast<int>(rng.Next() * 127.0f));
  }
  for (float& s : scale) s = 0.01f + std::fabs(rng.Next()) * 0.05f;

  for (Act act : {Act::kNone, Act::kRelu}) {
    // Reference: the documented contract — one fp32 accumulator per element,
    // std::fma over ascending k of the exactly-converted int8 values, then
    // scale, bias, activation.
    std::vector<float> ref(static_cast<size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int kk = 0; kk < k; ++kk) {
          acc = std::fma(
              a[static_cast<size_t>(i) * k + kk],
              static_cast<float>(q[static_cast<size_t>(kk) * n + j]), acc);
        }
        float t = acc * scale[j] + bias[j];
        if (act == Act::kRelu) t = t > 0.0f ? t : 0.0f;
        ref[static_cast<size_t>(i) * n + j] = t;
      }
    }
    SetActiveKindForTest(Kind::kScalar);
    std::vector<float> got(static_cast<size_t>(m) * n, 0.0f);
    GemmInt8(m, n, k, a.data(), k, q.data(), scale.data(), got.data(), n,
             bias.data(), act);
    EXPECT_TRUE(BytesEqual(ref, got)) << "scalar int8 formula mismatch";
    if (SimdCompiled()) {
      SetActiveKindForTest(Kind::kSimd);
      std::vector<float> got_simd(static_cast<size_t>(m) * n, 0.0f);
      GemmInt8(m, n, k, a.data(), k, q.data(), scale.data(), got_simd.data(),
               n, bias.data(), act);
      EXPECT_TRUE(BytesEqual(ref, got_simd)) << "simd int8 mismatch";
    }
  }
}

class GemmKernelEnvTest : public GemmKernelTest {
 protected:
  void SetUp() override {
    const char* old = std::getenv("LNCL_GEMM_KERNEL");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  void TearDown() override {
    if (had_old_) {
      setenv("LNCL_GEMM_KERNEL", old_.c_str(), 1);
    } else {
      unsetenv("LNCL_GEMM_KERNEL");
    }
    GemmKernelTest::TearDown();
  }
  bool had_old_ = false;
  std::string old_;
};

TEST_F(GemmKernelEnvTest, ParseKindEnvSelectsKinds) {
  unsetenv("LNCL_GEMM_KERNEL");
  const Kind best = SimdCompiled() ? Kind::kSimd : Kind::kScalar;
  EXPECT_EQ(best, ParseKindEnv());
  setenv("LNCL_GEMM_KERNEL", "auto", 1);
  EXPECT_EQ(best, ParseKindEnv());
  setenv("LNCL_GEMM_KERNEL", "", 1);
  EXPECT_EQ(best, ParseKindEnv());
  setenv("LNCL_GEMM_KERNEL", "scalar", 1);
  EXPECT_EQ(Kind::kScalar, ParseKindEnv());
  if (SimdCompiled()) {
    setenv("LNCL_GEMM_KERNEL", "simd", 1);
    EXPECT_EQ(Kind::kSimd, ParseKindEnv());
  }
}

using GemmKernelEnvDeathTest = GemmKernelEnvTest;

TEST_F(GemmKernelEnvDeathTest, InvalidValueAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  setenv("LNCL_GEMM_KERNEL", "avx9000", 1);
  EXPECT_DEATH(ParseKindEnv(), "invalid value");
  if (!SimdCompiled()) {
    setenv("LNCL_GEMM_KERNEL", "simd", 1);
    EXPECT_DEATH(ParseKindEnv(), "no SIMD kernel");
  }
}

}  // namespace
}  // namespace lncl::util::gemm
