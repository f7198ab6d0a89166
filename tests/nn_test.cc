#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/gradcheck.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/maxpool.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "nn/quantize.h"
#include "nn/serialize.h"
#include "nn/softmax.h"
#include "util/gemm_kernel.h"
#include "util/rng.h"

namespace lncl::nn {
namespace {

using util::Matrix;
using util::Rng;
using util::Vector;

Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng->Gaussian(0.0, scale));
    }
  }
  return m;
}

// ------------------------------------------------------------- Parameter --

TEST(ParameterTest, InitializersProduceBoundedValues) {
  Rng rng(1);
  Matrix m(20, 30);
  GlorotInit(&rng, &m);
  const double bound = std::sqrt(6.0 / 50.0);
  for (int r = 0; r < 20; ++r) {
    for (int c = 0; c < 30; ++c) {
      EXPECT_LE(std::fabs(m(r, c)), bound + 1e-6);
    }
  }
  EXPECT_GT(m.SquaredNorm(), 0.0);
}

TEST(ParameterTest, ZeroGradsAndCount) {
  Parameter a("a", 2, 3), b("b", 1, 4);
  a.grad.Fill(1.0f);
  ZeroGrads({&a, &b});
  EXPECT_DOUBLE_EQ(a.grad.SquaredNorm(), 0.0);
  EXPECT_EQ(CountWeights({&a, &b}), 10u);
}

// ------------------------------------------------------------ Activations --

TEST(ActivationsTest, ReluForwardBackward) {
  Vector x = {-1.0f, 0.0f, 2.0f};
  ReluForward(&x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.0f);
  Vector grad = {5.0f, 5.0f, 5.0f};
  ReluBackward(x, &grad);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 0.0f);  // zero post-activation kills gradient
  EXPECT_FLOAT_EQ(grad[2], 5.0f);
}

TEST(ActivationsTest, SigmoidRange) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6);
  EXPECT_GT(Sigmoid(10.0f), 0.999f);
  EXPECT_LT(Sigmoid(-10.0f), 0.001f);
}

// ---------------------------------------------------------------- Softmax --

TEST(SoftmaxTest, NormalizesAndIsShiftInvariant) {
  Vector p1, p2;
  Softmax({1.0f, 2.0f, 3.0f}, &p1);
  Softmax({101.0f, 102.0f, 103.0f}, &p2);
  double sum = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    sum += p1[i];
    EXPECT_NEAR(p1[i], p2[i], 1e-6);
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(p1[2], p1[1]);
  EXPECT_GT(p1[1], p1[0]);
}

TEST(SoftmaxTest, RowsIndependent) {
  Matrix logits(2, 2);
  logits(0, 0) = 5.0f;
  logits(1, 1) = 5.0f;
  Matrix probs;
  SoftmaxRows(logits, &probs);
  EXPECT_GT(probs(0, 0), 0.99f);
  EXPECT_GT(probs(1, 1), 0.99f);
}

TEST(SoftmaxTest, CrossEntropySoftTargets) {
  const Vector q = {0.5f, 0.5f};
  const Vector p = {0.5f, 0.5f};
  EXPECT_NEAR(CrossEntropy(q, p), std::log(2.0), 1e-6);
  // CE is minimized when p == q (over p in the simplex).
  const Vector p2 = {0.9f, 0.1f};
  EXPECT_GT(CrossEntropy(q, p2), CrossEntropy(q, p));
}

TEST(SoftmaxTest, CrossEntropyGradIsPMinusQ) {
  Vector grad;
  SoftmaxCrossEntropyGrad({0.25f, 0.75f}, {0.5f, 0.5f}, 2.0f, &grad);
  EXPECT_FLOAT_EQ(grad[0], 0.5f);
  EXPECT_FLOAT_EQ(grad[1], -0.5f);
}

TEST(SoftmaxTest, JacobianVecProductMatchesFiniteDifference) {
  Rng rng(3);
  Vector logits = {0.3f, -0.2f, 0.9f, 0.1f};
  Vector p;
  Softmax(logits, &p);
  // Loss L = sum_i g_i * softmax(z)_i with fixed g.
  const Vector g = {0.7f, -0.1f, 0.4f, 1.3f};
  Vector grad_z;
  SoftmaxJacobianVecProduct(p, g, 1.0f, &grad_z);
  const double eps = 1e-4;
  for (size_t i = 0; i < logits.size(); ++i) {
    Vector zp = logits, zm = logits;
    zp[i] += static_cast<float>(eps);
    zm[i] -= static_cast<float>(eps);
    Vector pp, pm;
    Softmax(zp, &pp);
    Softmax(zm, &pm);
    double lp = 0.0, lm = 0.0;
    for (size_t j = 0; j < g.size(); ++j) {
      lp += g[j] * pp[j];
      lm += g[j] * pm[j];
    }
    EXPECT_NEAR(grad_z[i], (lp - lm) / (2.0 * eps), 1e-3);
  }
}

// ---------------------------------------------------------------- Dropout --

TEST(DropoutTest, ZeroRateKeepsEverything) {
  Rng rng(1);
  Vector x = {1.0f, 2.0f, 3.0f};
  std::vector<uint8_t> mask;
  DropoutForward(0.0, &rng, &x, &mask);
  EXPECT_FLOAT_EQ(x[1], 2.0f);
  for (uint8_t m : mask) EXPECT_EQ(m, 1);
}

TEST(DropoutTest, DropRateAndScaling) {
  Rng rng(7);
  const int n = 20000;
  Vector x(n, 1.0f);
  std::vector<uint8_t> mask;
  DropoutForward(0.5, &rng, &x, &mask);
  int kept = 0;
  for (int i = 0; i < n; ++i) {
    if (mask[i]) {
      EXPECT_FLOAT_EQ(x[i], 2.0f);  // inverted dropout scale 1/(1-0.5)
      ++kept;
    } else {
      EXPECT_FLOAT_EQ(x[i], 0.0f);
    }
  }
  EXPECT_NEAR(kept / static_cast<double>(n), 0.5, 0.02);
}

TEST(DropoutTest, BackwardMatchesMask) {
  Rng rng(7);
  Vector x(100, 1.0f);
  std::vector<uint8_t> mask;
  DropoutForward(0.3, &rng, &x, &mask);
  Vector grad(100, 1.0f);
  DropoutBackward(0.3, mask, &grad);
  for (int i = 0; i < 100; ++i) {
    if (mask[i]) {
      EXPECT_NEAR(grad[i], 1.0f / 0.7f, 1e-5);
    } else {
      EXPECT_FLOAT_EQ(grad[i], 0.0f);
    }
  }
}

// Per-element reference: one draw per unit, dropped when it is below rate.
void ReferenceDropout(double rate, Rng* rng, float* x, size_t n,
                      std::vector<uint8_t>* mask) {
  mask->assign(n, 1);
  if (rate <= 0.0) return;
  const float scale = static_cast<float>(1.0 / (1.0 - rate));
  for (size_t i = 0; i < n; ++i) {
    if (rng->Uniform() < rate) {
      (*mask)[i] = 0;
      x[i] = 0.0f;
    } else {
      x[i] *= scale;
    }
  }
}

bool SameBits(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(DropoutTest, MatchesPerElementReference) {
  // Mask, values and the generator's next draw all match the reference: the
  // number of draws is part of the serial training trajectory.
  for (const double rate : {0.0, 0.1, 0.5, 0.9}) {
    for (const int n : {0, 1, 48, 832}) {
      SCOPED_TRACE(testing::Message() << "rate=" << rate << " n=" << n);
      Rng data_rng(static_cast<uint64_t>(n) + 17);
      const Matrix x = RandomMatrix(1, n, &data_rng);
      Vector want(x.data(), x.data() + x.size());
      std::vector<uint8_t> want_mask;
      Rng ref_rng(5);
      ReferenceDropout(rate, &ref_rng, want.data(), want.size(), &want_mask);
      const uint64_t want_next = ref_rng.engine()();

      Vector v(x.data(), x.data() + x.size());
      std::vector<uint8_t> mask = {7};  // stale contents are replaced
      Rng vec_rng(5);
      DropoutForward(rate, &vec_rng, &v, &mask);
      EXPECT_EQ(mask, want_mask);
      EXPECT_TRUE(SameBits(v.data(), want.data(), want.size()));
      EXPECT_EQ(vec_rng.engine()(), want_next);

      Matrix m = x;
      mask = {7};
      Rng mat_rng(5);
      DropoutForward(rate, &mat_rng, &m, &mask);
      EXPECT_EQ(mask, want_mask);
      EXPECT_TRUE(SameBits(m.data(), want.data(), want.size()));
      EXPECT_EQ(mat_rng.engine()(), want_next);
    }
  }
}

// -------------------------------------------------------------- Embedding --

TEST(EmbeddingTest, ForwardGathersRows) {
  Matrix init(4, 2);
  init(2, 0) = 5.0f;
  init(2, 1) = 6.0f;
  Embedding emb("e", init);
  Matrix out;
  emb.Forward({2, 0, 9}, &out);
  EXPECT_FLOAT_EQ(out(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 0.0f);  // pad
  EXPECT_FLOAT_EQ(out(2, 1), 0.0f);  // out of range
}

TEST(EmbeddingTest, BackwardScattersAndAccumulates) {
  Matrix init(4, 2);
  Embedding emb("e", init);
  Matrix grad_out(3, 2);
  grad_out(0, 0) = 1.0f;  // token 2
  grad_out(1, 1) = 2.0f;  // token 2 again: accumulates
  grad_out(2, 0) = 7.0f;  // pad: dropped
  emb.Backward({2, 2, 0}, grad_out);
  const Parameter* table = emb.Params()[0];
  EXPECT_FLOAT_EQ(table->grad(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(table->grad(2, 1), 2.0f);
  EXPECT_FLOAT_EQ(table->grad(0, 0), 0.0f);
}

TEST(EmbeddingTest, GradientCheckThroughLinearHead) {
  Rng rng(71);
  Matrix init(8, 3);
  for (int v = 1; v < 8; ++v) {
    for (int d = 0; d < 3; ++d) {
      init(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  Embedding emb("e", init);
  Linear head("fc", 3, 2, &rng);
  const std::vector<int> tokens = {1, 4, 4, 7};
  const Vector q = {0.2f, 0.8f};

  std::vector<Parameter*> params = emb.Params();
  for (Parameter* p : head.Params()) params.push_back(p);

  auto forward = [&]() {
    Matrix x;
    emb.Forward(tokens, &x);
    // Mean-pool then classify.
    Vector pooled(3, 0.0f);
    for (int t = 0; t < x.rows(); ++t) {
      for (int d = 0; d < 3; ++d) pooled[d] += x(t, d) / x.rows();
    }
    Vector z, p;
    head.Forward(pooled, &z);
    Softmax(z, &p);
    return std::make_pair(pooled, p);
  };
  auto loss_fn = [&]() { return CrossEntropy(q, forward().second); };
  auto compute_grads = [&]() {
    ZeroGrads(params);
    const auto [pooled, p] = forward();
    Vector gz;
    SoftmaxCrossEntropyGrad(q, p, 1.0f, &gz);
    Vector gpooled;
    head.Backward(pooled, gz, &gpooled);
    Matrix gx(static_cast<int>(tokens.size()), 3);
    for (int t = 0; t < gx.rows(); ++t) {
      for (int d = 0; d < 3; ++d) gx(t, d) = gpooled[d] / gx.rows();
    }
    emb.Backward(tokens, gx);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, params, &rng, 1e-3, 12);
  EXPECT_LT(r.max_rel_error, 2e-2) << "abs " << r.max_abs_error;
}

// ---------------------------------------------------------------- MaxPool --

TEST(MaxPoolTest, ForwardPicksColumnMaxima) {
  Matrix x(3, 2);
  x(0, 0) = 1.0f; x(1, 0) = 5.0f; x(2, 0) = 3.0f;
  x(0, 1) = 9.0f; x(1, 1) = 2.0f; x(2, 1) = 4.0f;
  Vector out;
  std::vector<int> argmax;
  MaxOverTimeForward(x, &out, &argmax);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 9.0f);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 0);
}

TEST(MaxPoolTest, BackwardRoutesToWinners) {
  std::vector<int> argmax = {1, 0};
  Matrix grad_x;
  MaxOverTimeBackward(argmax, {2.0f, 3.0f}, 3, &grad_x);
  EXPECT_FLOAT_EQ(grad_x(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(grad_x(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(grad_x(2, 0), 0.0f);
}

// ----------------------------------------------------- Layer grad checks --

// Gradient check for Linear via soft-target CE loss.
TEST(LinearTest, GradientCheck) {
  Rng rng(11);
  Linear layer("fc", 6, 4, &rng);
  const Vector x = {0.5f, -0.3f, 0.8f, 0.1f, -0.9f, 0.2f};
  const Vector q = {0.1f, 0.2f, 0.3f, 0.4f};

  auto loss_fn = [&]() {
    Vector y, p;
    layer.Forward(x, &y);
    Softmax(y, &p);
    return CrossEntropy(q, p);
  };
  auto compute_grads = [&]() {
    ZeroGrads(layer.Params());
    Vector y, p, gz;
    layer.Forward(x, &y);
    Softmax(y, &p);
    SoftmaxCrossEntropyGrad(q, p, 1.0f, &gz);
    layer.Backward(x, gz, nullptr);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, layer.Params(), &rng, 1e-3, 24);
  EXPECT_LT(r.max_rel_error, 2e-2) << "abs " << r.max_abs_error;
  EXPECT_GT(r.checked, 0);
}

TEST(LinearTest, RowsPathMatchesVectorPath) {
  Rng rng(2);
  Linear layer("fc", 3, 2, &rng);
  Matrix x = RandomMatrix(4, 3, &rng);
  Matrix y_rows;
  layer.ForwardRows(x, &y_rows);
  for (int r = 0; r < 4; ++r) {
    Vector xr(x.Row(r), x.Row(r) + 3), y;
    layer.Forward(xr, &y);
    EXPECT_NEAR(y[0], y_rows(r, 0), 1e-5);
    EXPECT_NEAR(y[1], y_rows(r, 1), 1e-5);
  }
}

TEST(LinearTest, BackwardRowsGradCheck) {
  Rng rng(21);
  Linear layer("fc", 3, 2, &rng);
  const Matrix x = RandomMatrix(5, 3, &rng);
  Matrix q(5, 2);
  for (int r = 0; r < 5; ++r) {
    q(r, 0) = 0.3f;
    q(r, 1) = 0.7f;
  }
  auto loss_fn = [&]() {
    Matrix y, p;
    layer.ForwardRows(x, &y);
    SoftmaxRows(y, &p);
    return CrossEntropyRows(q, p);
  };
  auto compute_grads = [&]() {
    ZeroGrads(layer.Params());
    Matrix y, p, gz;
    layer.ForwardRows(x, &y);
    SoftmaxRows(y, &p);
    SoftmaxCrossEntropyGradRows(q, p, 1.0f, &gz);
    layer.BackwardRows(x, gz, nullptr);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, layer.Params(), &rng, 1e-3, 24);
  EXPECT_LT(r.max_rel_error, 2e-2);
}

class Conv1dGradTest : public testing::TestWithParam<
                           std::tuple<int, int, Conv1d::Padding>> {};

TEST_P(Conv1dGradTest, GradientCheck) {
  const auto [window, t_len, padding] = GetParam();
  Rng rng(31);
  Conv1d conv("conv", window, 4, 3, padding, &rng);
  const Matrix x = RandomMatrix(t_len, 4, &rng);

  // Loss: sum over all output entries of 0.5 * y^2 (after ReLU-free linear
  // conv) - simple and smooth.
  auto loss_fn = [&]() {
    Matrix y;
    conv.Forward(x, &y);
    return 0.5 * y.SquaredNorm();
  };
  auto compute_grads = [&]() {
    ZeroGrads(conv.Params());
    Matrix y;
    conv.Forward(x, &y);
    conv.Backward(x, y, nullptr);  // dL/dy = y for this loss
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, conv.Params(), &rng, 1e-3, 20);
  EXPECT_LT(r.max_rel_error, 2e-2)
      << "window=" << window << " T=" << t_len;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv1dGradTest,
    testing::Values(
        std::make_tuple(3, 8, Conv1d::Padding::kValid),
        std::make_tuple(4, 8, Conv1d::Padding::kValid),
        std::make_tuple(5, 8, Conv1d::Padding::kValid),
        std::make_tuple(3, 3, Conv1d::Padding::kValid),   // T == window
        std::make_tuple(5, 3, Conv1d::Padding::kValid),   // T < window (pad)
        std::make_tuple(5, 9, Conv1d::Padding::kSame),
        std::make_tuple(3, 1, Conv1d::Padding::kSame)));  // single token

TEST(Conv1dTest, OutputShapes) {
  Rng rng(1);
  Conv1d valid("v", 3, 2, 4, Conv1d::Padding::kValid, &rng);
  Conv1d same("s", 5, 2, 4, Conv1d::Padding::kSame, &rng);
  EXPECT_EQ(valid.OutRows(10), 8);
  EXPECT_EQ(valid.OutRows(2), 1);  // shorter than window -> one padded row
  EXPECT_EQ(same.OutRows(10), 10);
  EXPECT_EQ(same.OutRows(1), 1);
}

TEST(Conv1dTest, InputGradientFlows) {
  Rng rng(5);
  Conv1d conv("c", 3, 2, 2, Conv1d::Padding::kSame, &rng);
  const Matrix x = RandomMatrix(6, 2, &rng);
  Matrix y;
  conv.Forward(x, &y);
  Matrix grad_x;
  conv.Backward(x, y, &grad_x);
  EXPECT_EQ(grad_x.rows(), 6);
  EXPECT_EQ(grad_x.cols(), 2);
  EXPECT_GT(grad_x.SquaredNorm(), 0.0);
}

namespace {

// Brute-force conv backward: per output row, per filter, loop over the
// clipped window. Oblivious to the sparse/dense path split in Conv1d.
void NaiveConvBackward(const Conv1d& conv, const Matrix& x,
                       const Matrix& grad_y, const Matrix& w, Matrix* grad_w,
                       Matrix* grad_b, Matrix* grad_x) {
  const int t = x.rows();
  const int window = conv.window();
  const int d = conv.in_dim();
  const int f = conv.filters();
  const int pad_left =
      conv.padding() == Conv1d::Padding::kSame ? (window - 1) / 2 : 0;
  grad_w->Resize(f, window * d);
  grad_b->Resize(1, f);
  grad_x->Resize(t, d);
  for (int o = 0; o < grad_y.rows(); ++o) {
    const int start = o - pad_left;
    for (int fi = 0; fi < f; ++fi) {
      const float g = grad_y(o, fi);
      (*grad_b)(0, fi) += g;
      for (int wr = 0; wr < window; ++wr) {
        const int row = start + wr;
        if (row < 0 || row >= t) continue;
        for (int c = 0; c < d; ++c) {
          (*grad_w)(fi, wr * d + c) += g * x(row, c);
          (*grad_x)(row, c) += g * w(fi, wr * d + c);
        }
      }
    }
  }
}

void ExpectMatrixNear(const Matrix& got, const Matrix& want, float tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got(r, c), want(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

}  // namespace

class Conv1dBackwardPathTest
    : public testing::TestWithParam<Conv1d::Padding> {};

TEST_P(Conv1dBackwardPathTest, SparseAndDensePathsMatchBruteForce) {
  // Conv1d::Backward picks an axpy formulation when grad_y is sparse enough
  // (the max-over-time-pooling case: at most one nonzero per filter column)
  // and dense GEMMs otherwise. Both paths must agree with the brute-force
  // reference on the same layer.
  const Conv1d::Padding padding = GetParam();
  Rng rng(99);
  const int t = 10, d = 4, window = 3, f = 6;
  Conv1d conv("c", window, d, f, padding, &rng);
  const Matrix x = RandomMatrix(t, d, &rng);
  Matrix y;
  conv.Forward(x, &y);

  // Sparse grad_y: exactly one surviving row per filter column, like the
  // gradient arriving through max-over-time pooling.
  Matrix sparse_gy(y.rows(), f);
  for (int fi = 0; fi < f; ++fi) {
    sparse_gy(rng.UniformInt(0, y.rows() - 1), fi) =
        static_cast<float>(rng.Gaussian(0.0, 1.0));
  }
  // Dense grad_y: every entry nonzero.
  Matrix dense_gy = RandomMatrix(y.rows(), f, &rng);

  for (const Matrix* gy : {&sparse_gy, &dense_gy}) {
    ZeroGrads(conv.Params());
    Matrix grad_x;
    conv.Backward(x, *gy, &grad_x);

    Matrix want_w, want_b, want_x;
    NaiveConvBackward(conv, x, *gy, conv.Params()[0]->value, &want_w, &want_b,
                      &want_x);
    ExpectMatrixNear(conv.Params()[0]->grad, want_w, 1e-4f);
    ExpectMatrixNear(conv.Params()[1]->grad, want_b, 1e-4f);
    ExpectMatrixNear(grad_x, want_x, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Paddings, Conv1dBackwardPathTest,
                         testing::Values(Conv1d::Padding::kValid,
                                         Conv1d::Padding::kSame));

// Naive clipped-window forward, the oracle for both Conv1d forwards: per
// output row and filter, one accumulator updated by std::fma over the
// in-range window rows in ascending order, then the epilogue of the GEMM
// kernels (scale for int8, bias, activation). With `qw` the filter values
// are the int8 panel entries instead of the fp32 weights.
Matrix NaiveConvForward(const Conv1d& conv, const Matrix& w,
                        const Matrix& bias, const RowQuantized* qw,
                        const Matrix& x, util::Act act) {
  const int t = x.rows();
  const int d = conv.in_dim();
  const int f = conv.filters();
  const int pad_left =
      conv.padding() == Conv1d::Padding::kSame ? (conv.window() - 1) / 2 : 0;
  Matrix y(conv.OutRows(t), f);
  for (int o = 0; o < y.rows(); ++o) {
    for (int j = 0; j < f; ++j) {
      float acc = 0.0f;
      for (int wr = 0; wr < conv.window(); ++wr) {
        const int row = o - pad_left + wr;
        if (row < 0 || row >= t) continue;
        for (int c = 0; c < d; ++c) {
          const int k = wr * d + c;
          const float wv =
              qw != nullptr
                  ? static_cast<float>(qw->q[static_cast<size_t>(k) * f + j])
                  : w(j, k);
          acc = std::fma(x(row, c), wv, acc);
        }
      }
      float v = qw != nullptr ? acc * qw->scale[j] : acc;
      v += bias(0, j);
      if (act == util::Act::kRelu) {
        v = v > 0.0f ? v : 0.0f;
      } else if (act == util::Act::kTanh) {
        v = std::tanh(v);
      }
      y(o, j) = v;
    }
  }
  return y;
}

class Conv1dForwardOracleTest
    : public testing::TestWithParam<std::tuple<Conv1d::Padding, bool>> {};

TEST_P(Conv1dForwardOracleTest, ForwardsMatchNaiveClippedWindow) {
  const auto [padding, quantized] = GetParam();
  // Window 5: t < 5 exercises kValid's zero-padded single row, t = 5 its
  // one interior row; kSame always has two boundary rows at each end.
  const int window = 5;
  const int d = 7;
  const int f = 19;  // one full SIMD vector plus a masked tail
  Rng rng(314);
  Conv1d conv("c", window, d, f, padding, &rng);
  Matrix& bias = conv.Params()[1]->value;
  bias = RandomMatrix(1, f, &rng);
  conv.SetQuantized(quantized);
  RowQuantized qw;
  QuantizeRows(conv.Params()[0]->value, &qw);
  const RowQuantized* panel = quantized ? &qw : nullptr;

  std::vector<util::gemm::Kind> kinds = {util::gemm::Kind::kScalar};
  if (util::gemm::SimdCompiled()) kinds.push_back(util::gemm::Kind::kSimd);
  for (const util::gemm::Kind kind : kinds) {
    util::gemm::SetActiveKindForTest(kind);
    for (const int t : {0, 1, 2, 4, 5, 13}) {
      for (const util::Act act :
           {util::Act::kNone, util::Act::kRelu, util::Act::kTanh}) {
        SCOPED_TRACE(testing::Message()
                     << util::gemm::KindName(kind) << " t=" << t
                     << " act=" << static_cast<int>(act));
        constexpr int kBatch = 3;
        std::vector<Matrix> xs;
        Matrix packed(kBatch * t, d);
        for (int b = 0; b < kBatch; ++b) {
          xs.push_back(RandomMatrix(t, d, &rng));
          for (int r = 0; r < t; ++r) {
            std::memcpy(packed.Row(b * t + r), xs.back().Row(r),
                        d * sizeof(float));
          }
        }
        Matrix y_packed;
        conv.ForwardPacked(packed, kBatch, t, &y_packed, act);
        const int out_rows = conv.OutRows(t);
        ASSERT_EQ(y_packed.rows(), kBatch * out_rows);
        for (int b = 0; b < kBatch; ++b) {
          const Matrix want = NaiveConvForward(
              conv, conv.Params()[0]->value, bias, panel, xs[b], act);
          Matrix y;
          conv.Forward(xs[b], &y, act);
          ASSERT_EQ(y.rows(), want.rows());
          ASSERT_EQ(y.cols(), f);
          EXPECT_TRUE(SameBits(y.data(), want.data(), want.size()));
          EXPECT_TRUE(SameBits(y_packed.Row(b * out_rows), want.data(),
                               want.size()));
        }
      }
    }
  }
  util::gemm::SetActiveKindForTest(util::gemm::ParseKindEnv());
}

INSTANTIATE_TEST_SUITE_P(
    PaddingsAndPrecisions, Conv1dForwardOracleTest,
    testing::Combine(testing::Values(Conv1d::Padding::kSame,
                                     Conv1d::Padding::kValid),
                     testing::Bool()));

// Naive gate pre-activation, the oracle for the recurrent forwards: the
// input-side product as one std::fma chain over ascending k plus the bias
// (the GEMM epilogue), plus the recurrent product as a second, bias-free
// chain, summed as the gate loops sum them.
float NaiveGatePre(const Parameter& w, const Parameter& u, const Parameter& b,
                   const float* x, const float* h_prev, int j) {
  float gx = 0.0f;
  for (int k = 0; k < w.value.cols(); ++k) {
    gx = std::fma(x[k], w.value(j, k), gx);
  }
  gx += b.value(0, j);
  float gh = 0.0f;
  for (int k = 0; k < u.value.cols(); ++k) {
    gh = std::fma(h_prev[k], u.value(j, k), gh);
  }
  return gx + gh;
}

// Naive GRU over one sequence: every gate, candidate, and state row.
Gru::Cache NaiveGruForward(Gru* gru, const Matrix& x) {
  const std::vector<Parameter*> p = gru->Params();  // wz uz bz wr ur br wc..
  const int t_len = x.rows();
  const int h_dim = gru->hidden_dim();
  Gru::Cache want{Matrix(t_len, h_dim), Matrix(t_len, h_dim),
                  Matrix(t_len, h_dim), Matrix(t_len, h_dim)};
  std::vector<float> h_prev(h_dim, 0.0f), rh(h_dim);
  for (int t = 0; t < t_len; ++t) {
    const float* xt = x.Row(t);
    for (int j = 0; j < h_dim; ++j) {
      want.z(t, j) =
          Sigmoid(NaiveGatePre(*p[0], *p[1], *p[2], xt, h_prev.data(), j));
      want.r(t, j) =
          Sigmoid(NaiveGatePre(*p[3], *p[4], *p[5], xt, h_prev.data(), j));
      rh[j] = want.r(t, j) * h_prev[j];
    }
    for (int j = 0; j < h_dim; ++j) {
      want.c(t, j) =
          std::tanh(NaiveGatePre(*p[6], *p[7], *p[8], xt, rh.data(), j));
      want.h(t, j) = (1.0f - want.z(t, j)) * h_prev[j] +
                     want.z(t, j) * want.c(t, j);
    }
    std::copy(want.h.Row(t), want.h.Row(t) + h_dim, h_prev.begin());
  }
  return want;
}

// Naive LSTM over one sequence: every gate and state row.
Lstm::Cache NaiveLstmForward(Lstm* lstm, const Matrix& x) {
  const std::vector<Parameter*> p = lstm->Params();  // wi ui bi wf uf bf ..
  const int t_len = x.rows();
  const int h_dim = lstm->hidden_dim();
  Lstm::Cache want;
  for (Matrix* m : {&want.h, &want.c, &want.i, &want.f, &want.o, &want.g}) {
    *m = Matrix(t_len, h_dim);
  }
  std::vector<float> h_prev(h_dim, 0.0f), c_prev(h_dim, 0.0f);
  for (int t = 0; t < t_len; ++t) {
    const float* xt = x.Row(t);
    for (int j = 0; j < h_dim; ++j) {
      want.i(t, j) =
          Sigmoid(NaiveGatePre(*p[0], *p[1], *p[2], xt, h_prev.data(), j));
      want.f(t, j) =
          Sigmoid(NaiveGatePre(*p[3], *p[4], *p[5], xt, h_prev.data(), j));
      want.o(t, j) =
          Sigmoid(NaiveGatePre(*p[6], *p[7], *p[8], xt, h_prev.data(), j));
      want.g(t, j) =
          std::tanh(NaiveGatePre(*p[9], *p[10], *p[11], xt, h_prev.data(), j));
      want.c(t, j) = want.f(t, j) * c_prev[j] + want.i(t, j) * want.g(t, j);
      want.h(t, j) = want.o(t, j) * std::tanh(want.c(t, j));
    }
    std::copy(want.h.Row(t), want.h.Row(t) + h_dim, h_prev.begin());
    std::copy(want.c.Row(t), want.c.Row(t) + h_dim, c_prev.begin());
  }
  return want;
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(a.data(), b.data(), a.size());
}

// Runs `check(t, lanes, packed)` under both kernel kinds for each sequence
// length t, with `lanes` three random (t x in_dim) sequences and `packed`
// their instance-major stack.
template <typename Check>
void ForEachRecurrentCase(int in_dim, Rng* rng, Check check) {
  std::vector<util::gemm::Kind> kinds = {util::gemm::Kind::kScalar};
  if (util::gemm::SimdCompiled()) kinds.push_back(util::gemm::Kind::kSimd);
  for (const util::gemm::Kind kind : kinds) {
    util::gemm::SetActiveKindForTest(kind);
    for (const int t : {0, 1, 2, 7}) {
      SCOPED_TRACE(testing::Message()
                   << util::gemm::KindName(kind) << " t=" << t);
      std::vector<Matrix> lanes;
      Matrix packed(3 * t, in_dim);
      for (int b = 0; b < 3; ++b) {
        lanes.push_back(RandomMatrix(t, in_dim, rng));
        for (int r = 0; r < t; ++r) {
          std::memcpy(packed.Row(b * t + r), lanes.back().Row(r),
                      in_dim * sizeof(float));
        }
      }
      check(t, lanes, packed);
    }
  }
  util::gemm::SetActiveKindForTest(util::gemm::ParseKindEnv());
}

void RandomizeBiases(const std::vector<Parameter*>& params, Rng* rng) {
  for (Parameter* p : params) {
    if (p->value.rows() == 1) p->value = RandomMatrix(1, p->value.cols(), rng);
  }
}

TEST(GruTest, ForwardsMatchNaiveOracle) {
  const int in_dim = 5;
  const int h_dim = 19;  // one full SIMD vector plus a masked tail
  Rng rng(515);
  Gru gru("g", in_dim, h_dim, &rng);
  RandomizeBiases(gru.Params(), &rng);
  const auto check = [&](int t, const std::vector<Matrix>& lanes,
                         const Matrix& packed) {
    Matrix h_packed;
    gru.ForwardPacked(packed, 3, t, &h_packed);
    ASSERT_EQ(h_packed.rows(), 3 * t);
    for (int b = 0; b < 3; ++b) {
      const Gru::Cache want = NaiveGruForward(&gru, lanes[b]);
      Gru::Cache cache;
      Matrix h;
      gru.Forward(lanes[b], &cache, &h);
      EXPECT_TRUE(SameMatrix(h, want.h)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.h, want.h)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.z, want.z)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.r, want.r)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.c, want.c)) << "lane " << b;
      EXPECT_TRUE(SameBits(h_packed.Row(b * t), want.h.data(), want.h.size()))
          << "lane " << b;
    }
  };
  ForEachRecurrentCase(in_dim, &rng, check);
}

TEST(LstmTest, ForwardsMatchNaiveOracle) {
  const int in_dim = 5;
  const int h_dim = 19;
  Rng rng(516);
  Lstm lstm("l", in_dim, h_dim, &rng);
  RandomizeBiases(lstm.Params(), &rng);
  const auto check = [&](int t, const std::vector<Matrix>& lanes,
                         const Matrix& packed) {
    Matrix h_packed;
    lstm.ForwardPacked(packed, 3, t, &h_packed);
    ASSERT_EQ(h_packed.rows(), 3 * t);
    for (int b = 0; b < 3; ++b) {
      const Lstm::Cache want = NaiveLstmForward(&lstm, lanes[b]);
      Lstm::Cache cache;
      Matrix h;
      lstm.Forward(lanes[b], &cache, &h);
      EXPECT_TRUE(SameMatrix(h, want.h)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.h, want.h)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.c, want.c)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.i, want.i)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.f, want.f)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.o, want.o)) << "lane " << b;
      EXPECT_TRUE(SameMatrix(cache.g, want.g)) << "lane " << b;
      EXPECT_TRUE(SameBits(h_packed.Row(b * t), want.h.data(), want.h.size()))
          << "lane " << b;
    }
  };
  ForEachRecurrentCase(in_dim, &rng, check);
}

TEST(GruTest, GradientCheckParameters) {
  Rng rng(41);
  Gru gru("gru", 3, 4, &rng);
  const Matrix x = RandomMatrix(5, 3, &rng);
  Matrix target = RandomMatrix(5, 4, &rng, 0.3);

  auto loss_fn = [&]() {
    Gru::Cache cache;
    Matrix h;
    gru.Forward(x, &cache, &h);
    double loss = 0.0;
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        const double d = h(t, c) - target(t, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  auto compute_grads = [&]() {
    ZeroGrads(gru.Params());
    Gru::Cache cache;
    Matrix h;
    gru.Forward(x, &cache, &h);
    Matrix grad_h(h.rows(), h.cols());
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        grad_h(t, c) = h(t, c) - target(t, c);
      }
    }
    gru.Backward(x, cache, grad_h, nullptr);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, gru.Params(), &rng, 1e-3, 10);
  EXPECT_LT(r.max_rel_error, 3e-2) << "abs " << r.max_abs_error;
}

TEST(GruTest, InputGradientCheck) {
  Rng rng(43);
  Gru gru("gru", 2, 3, &rng);
  Matrix x = RandomMatrix(4, 2, &rng);
  const Matrix target = RandomMatrix(4, 3, &rng, 0.3);

  auto loss_with = [&](const Matrix& input) {
    Gru::Cache cache;
    Matrix h;
    gru.Forward(input, &cache, &h);
    double loss = 0.0;
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        const double d = h(t, c) - target(t, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  // Analytic input grad.
  Gru::Cache cache;
  Matrix h;
  gru.Forward(x, &cache, &h);
  Matrix grad_h(h.rows(), h.cols());
  for (int t = 0; t < h.rows(); ++t) {
    for (int c = 0; c < h.cols(); ++c) grad_h(t, c) = h(t, c) - target(t, c);
  }
  Matrix grad_x;
  ZeroGrads(gru.Params());
  gru.Backward(x, cache, grad_h, &grad_x);

  const double eps = 1e-3;
  for (int t = 0; t < x.rows(); ++t) {
    for (int d = 0; d < x.cols(); ++d) {
      const float orig = x(t, d);
      x(t, d) = orig + static_cast<float>(eps);
      const double lp = loss_with(x);
      x(t, d) = orig - static_cast<float>(eps);
      const double lm = loss_with(x);
      x(t, d) = orig;
      EXPECT_NEAR(grad_x(t, d), (lp - lm) / (2.0 * eps), 5e-3)
          << "at (" << t << "," << d << ")";
    }
  }
}

TEST(GruTest, HiddenStatesBounded) {
  Rng rng(45);
  Gru gru("gru", 3, 5, &rng);
  const Matrix x = RandomMatrix(20, 3, &rng, 3.0);
  Gru::Cache cache;
  Matrix h;
  gru.Forward(x, &cache, &h);
  for (int t = 0; t < h.rows(); ++t) {
    for (int c = 0; c < h.cols(); ++c) {
      EXPECT_LE(std::fabs(h(t, c)), 1.0f + 1e-5);  // convex combo of tanh
    }
  }
}


TEST(LstmTest, GradientCheckParameters) {
  Rng rng(61);
  Lstm lstm("lstm", 3, 4, &rng);
  const Matrix x = RandomMatrix(5, 3, &rng);
  Matrix target = RandomMatrix(5, 4, &rng, 0.3);

  auto loss_fn = [&]() {
    Lstm::Cache cache;
    Matrix h;
    lstm.Forward(x, &cache, &h);
    double loss = 0.0;
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        const double d = h(t, c) - target(t, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  auto compute_grads = [&]() {
    ZeroGrads(lstm.Params());
    Lstm::Cache cache;
    Matrix h;
    lstm.Forward(x, &cache, &h);
    Matrix grad_h(h.rows(), h.cols());
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        grad_h(t, c) = h(t, c) - target(t, c);
      }
    }
    lstm.Backward(x, cache, grad_h, nullptr);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, lstm.Params(), &rng, 1e-3, 8);
  EXPECT_LT(r.max_rel_error, 3e-2) << "abs " << r.max_abs_error;
}

TEST(LstmTest, InputGradientCheck) {
  Rng rng(62);
  Lstm lstm("lstm", 2, 3, &rng);
  Matrix x = RandomMatrix(4, 2, &rng);
  const Matrix target = RandomMatrix(4, 3, &rng, 0.3);

  auto loss_with = [&](const Matrix& input) {
    Lstm::Cache cache;
    Matrix h;
    lstm.Forward(input, &cache, &h);
    double loss = 0.0;
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        const double d = h(t, c) - target(t, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  Lstm::Cache cache;
  Matrix h;
  lstm.Forward(x, &cache, &h);
  Matrix grad_h(h.rows(), h.cols());
  for (int t = 0; t < h.rows(); ++t) {
    for (int c = 0; c < h.cols(); ++c) grad_h(t, c) = h(t, c) - target(t, c);
  }
  Matrix grad_x;
  ZeroGrads(lstm.Params());
  lstm.Backward(x, cache, grad_h, &grad_x);

  const double eps = 1e-3;
  for (int t = 0; t < x.rows(); ++t) {
    for (int d = 0; d < x.cols(); ++d) {
      const float orig = x(t, d);
      x(t, d) = orig + static_cast<float>(eps);
      const double lp = loss_with(x);
      x(t, d) = orig - static_cast<float>(eps);
      const double lm = loss_with(x);
      x(t, d) = orig;
      EXPECT_NEAR(grad_x(t, d), (lp - lm) / (2.0 * eps), 5e-3);
    }
  }
}

TEST(LstmTest, ForgetBiasInitializedPositive) {
  Rng rng(63);
  Lstm lstm("lstm", 2, 3, &rng);
  // Params order: wi ui bi wf uf bf ...; bf is index 5.
  const Parameter* bf = lstm.Params()[5];
  ASSERT_EQ(bf->name, "lstm.bf");
  for (int k = 0; k < 3; ++k) EXPECT_FLOAT_EQ(bf->value(0, k), 1.0f);
}

TEST(LstmTest, HiddenStatesBounded) {
  Rng rng(64);
  Lstm lstm("lstm", 3, 5, &rng);
  const Matrix x = RandomMatrix(25, 3, &rng, 3.0);
  Lstm::Cache cache;
  Matrix h;
  lstm.Forward(x, &cache, &h);
  for (int t = 0; t < h.rows(); ++t) {
    for (int c = 0; c < h.cols(); ++c) {
      EXPECT_LE(std::fabs(h(t, c)), 1.0f + 1e-5);  // o * tanh(c) in [-1, 1]
    }
  }
}


// Property sweep: gradient checks for both recurrent cells over a grid of
// (in_dim, hidden_dim, T) shapes.
class RecurrentGradSweep
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RecurrentGradSweep, GruMatchesFiniteDifferences) {
  const auto [in_dim, hidden, t_len] = GetParam();
  Rng rng(700 + in_dim * 31 + hidden * 7 + t_len);
  Gru gru("g", in_dim, hidden, &rng);
  const Matrix x = RandomMatrix(t_len, in_dim, &rng);
  const Matrix target = RandomMatrix(t_len, hidden, &rng, 0.3);
  auto loss_fn = [&]() {
    Gru::Cache cache;
    Matrix h;
    gru.Forward(x, &cache, &h);
    double loss = 0.0;
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        const double d = h(t, c) - target(t, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  auto compute_grads = [&]() {
    ZeroGrads(gru.Params());
    Gru::Cache cache;
    Matrix h;
    gru.Forward(x, &cache, &h);
    Matrix grad_h(h.rows(), h.cols());
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) grad_h(t, c) = h(t, c) - target(t, c);
    }
    gru.Backward(x, cache, grad_h, nullptr);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, gru.Params(), &rng, 1e-3, 5);
  EXPECT_LT(r.max_rel_error, 3e-2)
      << in_dim << "x" << hidden << " T=" << t_len;
}

TEST_P(RecurrentGradSweep, LstmMatchesFiniteDifferences) {
  const auto [in_dim, hidden, t_len] = GetParam();
  Rng rng(900 + in_dim * 31 + hidden * 7 + t_len);
  Lstm lstm("l", in_dim, hidden, &rng);
  const Matrix x = RandomMatrix(t_len, in_dim, &rng);
  const Matrix target = RandomMatrix(t_len, hidden, &rng, 0.3);
  auto loss_fn = [&]() {
    Lstm::Cache cache;
    Matrix h;
    lstm.Forward(x, &cache, &h);
    double loss = 0.0;
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) {
        const double d = h(t, c) - target(t, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };
  auto compute_grads = [&]() {
    ZeroGrads(lstm.Params());
    Lstm::Cache cache;
    Matrix h;
    lstm.Forward(x, &cache, &h);
    Matrix grad_h(h.rows(), h.cols());
    for (int t = 0; t < h.rows(); ++t) {
      for (int c = 0; c < h.cols(); ++c) grad_h(t, c) = h(t, c) - target(t, c);
    }
    lstm.Backward(x, cache, grad_h, nullptr);
  };
  const GradCheckResult r =
      CheckGradients(loss_fn, compute_grads, lstm.Params(), &rng, 1e-3, 5);
  EXPECT_LT(r.max_rel_error, 3e-2)
      << in_dim << "x" << hidden << " T=" << t_len;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecurrentGradSweep,
    testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 1),
                    std::make_tuple(3, 2, 4), std::make_tuple(4, 4, 8),
                    std::make_tuple(5, 3, 12), std::make_tuple(2, 6, 6)));

// -------------------------------------------------------------- Optimizer --

TEST(OptimizerTest, SgdStepMath) {
  Parameter p("p", 1, 2);
  p.value(0, 0) = 1.0f;
  p.value(0, 1) = -1.0f;
  p.grad(0, 0) = 0.5f;
  p.grad(0, 1) = -0.5f;
  Sgd sgd(0.1);
  sgd.Step({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), 0.95f);
  EXPECT_FLOAT_EQ(p.value(0, 1), -0.95f);
  EXPECT_DOUBLE_EQ(p.grad.SquaredNorm(), 0.0);  // grads cleared
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  Parameter p("p", 1, 1);
  Sgd sgd(1.0, 0.9);
  p.grad(0, 0) = 1.0f;
  sgd.Step({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), -1.0f);
  p.grad(0, 0) = 1.0f;
  sgd.Step({&p});
  // velocity = 0.9*1 + 1 = 1.9; value = -1 - 1.9 = -2.9.
  EXPECT_FLOAT_EQ(p.value(0, 0), -2.9f);
}

TEST(OptimizerTest, AdamFirstStepIsLrSized) {
  Parameter p("p", 1, 1);
  Adam adam(0.001);
  p.grad(0, 0) = 123.0f;
  adam.Step({&p});
  // With bias correction, the first step is ~ -lr * sign(g).
  EXPECT_NEAR(p.value(0, 0), -0.001f, 1e-5);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 5.0f;
  Adam adam(0.05);
  for (int i = 0; i < 2000; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);  // d/dx x^2
    adam.Step({&p});
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 1e-2);
}

TEST(OptimizerTest, AdadeltaConvergesOnQuadratic) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 5.0f;
  Adadelta adadelta(1.0);
  for (int i = 0; i < 3000; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);
    adadelta.Step({&p});
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 0.05);
}

TEST(OptimizerTest, L2PullsTowardZero) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 1.0f;
  Sgd sgd(0.1, 0.0, /*l2=*/1.0);
  p.grad(0, 0) = 0.0f;
  sgd.Step({&p});
  EXPECT_NEAR(p.value(0, 0), 0.9f, 1e-6);
}

TEST(OptimizerTest, FactoryAndSchedule) {
  OptimizerConfig config;
  config.kind = "adadelta";
  config.lr = 1.0;
  config.lr_decay = 0.5;
  config.lr_decay_every = 5;
  auto opt = MakeOptimizer(config);
  EXPECT_EQ(opt->name(), "adadelta");
  ApplyLrSchedule(config, 0, opt.get());
  EXPECT_DOUBLE_EQ(opt->lr(), 1.0);
  ApplyLrSchedule(config, 5, opt.get());
  EXPECT_DOUBLE_EQ(opt->lr(), 0.5);
  ApplyLrSchedule(config, 14, opt.get());
  EXPECT_DOUBLE_EQ(opt->lr(), 0.25);
}


TEST(ClipGradNormTest, RescalesJointNorm) {
  Parameter a("a", 1, 2), b("b", 1, 2);
  a.grad(0, 0) = 3.0f;
  b.grad(0, 1) = 4.0f;  // joint norm 5
  const double pre = ClipGradNorm({&a, &b}, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(a.grad(0, 0), 0.6f, 1e-5);
  EXPECT_NEAR(b.grad(0, 1), 0.8f, 1e-5);
  // Below the threshold: untouched.
  const double pre2 = ClipGradNorm({&a, &b}, 10.0);
  EXPECT_NEAR(pre2, 1.0, 1e-5);
  EXPECT_NEAR(a.grad(0, 0), 0.6f, 1e-5);
}

TEST(ClipGradNormTest, DisabledWhenMaxNormNonPositive) {
  Parameter a("a", 1, 1);
  a.grad(0, 0) = 100.0f;
  ClipGradNorm({&a}, 0.0);
  EXPECT_FLOAT_EQ(a.grad(0, 0), 100.0f);
}

TEST(OptimizerTest, ClipNormLimitsStep) {
  Parameter p("p", 1, 1);
  Sgd sgd(1.0);
  sgd.set_clip_norm(0.5);
  p.grad(0, 0) = 10.0f;
  sgd.Step({&p});
  EXPECT_NEAR(p.value(0, 0), -0.5f, 1e-5);  // clipped to norm 0.5
}


TEST(Conv1dTest, SingleRowSameEqualsValidOnPaddedInput) {
  // A kSame conv at position t sees the zero-padded window centered at t; a
  // kValid conv over an explicitly padded input must agree.
  Rng rng(81);
  Conv1d same("s", 3, 2, 2, Conv1d::Padding::kSame, &rng);
  Matrix x = RandomMatrix(5, 2, &rng);
  Matrix y_same;
  same.Forward(x, &y_same);

  // Explicit zero padding by (window-1)/2 = 1 on both sides.
  Matrix padded(7, 2);
  for (int t = 0; t < 5; ++t) {
    for (int d = 0; d < 2; ++d) padded(t + 1, d) = x(t, d);
  }
  Conv1d valid("v", 3, 2, 2, Conv1d::Padding::kValid, &rng);
  // Copy weights from `same` so the two convs are identical.
  valid.Params()[0]->value = same.Params()[0]->value;
  valid.Params()[1]->value = same.Params()[1]->value;
  Matrix y_valid;
  valid.Forward(padded, &y_valid);
  ASSERT_EQ(y_valid.rows(), y_same.rows());
  for (int t = 0; t < y_same.rows(); ++t) {
    for (int f = 0; f < 2; ++f) {
      EXPECT_NEAR(y_same(t, f), y_valid(t, f), 1e-5);
    }
  }
}

TEST(GruTest, DeterministicForward) {
  Rng rng(82);
  Gru gru("g", 3, 4, &rng);
  const Matrix x = RandomMatrix(6, 3, &rng);
  Gru::Cache c1, c2;
  Matrix h1, h2;
  gru.Forward(x, &c1, &h1);
  gru.Forward(x, &c2, &h2);
  for (int t = 0; t < 6; ++t) {
    for (int k = 0; k < 4; ++k) EXPECT_FLOAT_EQ(h1(t, k), h2(t, k));
  }
}

TEST(OptimizerTest, StateSurvivesAcrossDifferentParamSets) {
  // The per-parameter state map is keyed by address: feeding a second
  // parameter does not disturb the first one's momenta.
  Parameter a("a", 1, 1), b("b", 1, 1);
  Adam adam(0.1);
  a.grad(0, 0) = 1.0f;
  adam.Step({&a});
  const float a_after_one = a.value(0, 0);
  b.grad(0, 0) = 1.0f;
  adam.Step({&b});
  EXPECT_FLOAT_EQ(a.value(0, 0), a_after_one);  // untouched
  EXPECT_LT(b.value(0, 0), 0.0f);               // own first step
}

TEST(OptimizerTest, LrScheduleOffByDefault) {
  OptimizerConfig config;
  config.lr = 0.7;
  auto opt = MakeOptimizer(config);
  ApplyLrSchedule(config, 100, opt.get());
  EXPECT_DOUBLE_EQ(opt->lr(), 0.7);  // untouched: schedule disabled
}

// -------------------------------------------------------------- Serialize --


TEST(SerializeTest, EmptyParamListRoundTrips) {
  std::stringstream ss;
  SaveParams(ss, {});
  EXPECT_TRUE(LoadParams(ss, {}));
}

TEST(SoftmaxTest, ExtremeLogitsStayFinite) {
  Vector p;
  Softmax({1e4f, -1e4f}, &p);
  EXPECT_NEAR(p[0], 1.0, 1e-6);
  EXPECT_NEAR(p[1], 0.0, 1e-6);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(SoftmaxTest, CrossEntropyClampsZeroProbability) {
  // q puts mass where p is exactly zero: loss must be finite (clamped).
  const double loss = CrossEntropy({1.0f, 0.0f}, {0.0f, 1.0f});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 10.0);
}

TEST(SerializeTest, RoundTrip) {
  Rng rng(51);
  Parameter a("layer.w", 3, 4), b("layer.b", 1, 4);
  GlorotInit(&rng, &a.value);
  GlorotInit(&rng, &b.value);
  std::stringstream ss;
  SaveParams(ss, {&a, &b});

  Parameter a2("layer.w", 3, 4), b2("layer.b", 1, 4);
  ASSERT_TRUE(LoadParams(ss, {&a2, &b2}));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(a2.value(r, c), a.value(r, c));
  }
}

TEST(SerializeTest, RejectsMismatchedNameOrShape) {
  Parameter a("x", 2, 2);
  std::stringstream ss;
  SaveParams(ss, {&a});
  Parameter wrong_name("y", 2, 2);
  EXPECT_FALSE(LoadParams(ss, {&wrong_name}));

  std::stringstream ss2;
  SaveParams(ss2, {&a});
  Parameter wrong_shape("x", 2, 3);
  EXPECT_FALSE(LoadParams(ss2, {&wrong_shape}));
}

TEST(SerializeTest, SnapshotRestore) {
  Parameter a("a", 1, 2);
  a.value(0, 0) = 1.0f;
  const auto snap = SnapshotValues({&a});
  a.value(0, 0) = 99.0f;
  RestoreValues(snap, {&a});
  EXPECT_FLOAT_EQ(a.value(0, 0), 1.0f);
}

}  // namespace
}  // namespace lncl::nn
