#include "nn/activations.h"

#include <bit>
#include <cstdint>

namespace lncl::nn {

void ReluForward(util::Matrix* x) {
  float* d = x->data();
  for (size_t i = 0; i < x->size(); ++i) {
    if (d[i] < 0.0f) d[i] = 0.0f;
  }
}

void ReluForward(util::Vector* x) {
  for (float& v : *x) {
    if (v < 0.0f) v = 0.0f;
  }
}

void ReluBackward(const util::Matrix& post, util::Matrix* grad) {
  const float* p = post.data();
  float* g = grad->data();
  for (size_t i = 0; i < grad->size(); ++i) {
    if (p[i] <= 0.0f) g[i] = 0.0f;
  }
}

void ReluBackward(const util::Vector& post, util::Vector* grad) {
  for (size_t i = 0; i < grad->size(); ++i) {
    if (post[i] <= 0.0f) (*grad)[i] = 0.0f;
  }
}

namespace {

// The row functions must stay plain element loops of +, -, *, /, compares,
// selects and bit operations: the vectorized body and the scalar tail then
// run the same IEEE operations (the build pins -ffp-contract=off, so no
// multiply-add is fused in one and not the other).

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }
float FromBits(uint32_t u) { return std::bit_cast<float>(u); }

// Cody–Waite split of ln 2 (Cephes): kLn2Hi has 9 significant bits, so
// n * kLn2Hi is exact for every |n| <= 128 reached below.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kLog2e = 1.44269504088896341f;
// 1.5 * 2^23: adding it rounds a float of magnitude below 2^22 to the
// nearest integer n and leaves bits(kRoundShift) + n in the sum's bits.
constexpr float kRoundShift = 12582912.0f;
// The argument clamp: n = round(t log2 e) stays in [-127, 128], whose
// biased exponents 0 and 255 make 2^n exactly 0 and +inf.
constexpr float kExpLo = -88.0f;
constexpr float kExpHi = 88.5f;

// e^t = 2^n e^r with r = t - n ln 2, |r| <= ln 2 / 2, e^r from Cephes'
// degree-6 expf polynomial and 2^n written into the exponent field. From
// t = -87.7 down the result is 0 (n = -127), from t = 88.4 up it is +inf
// (n = 128), and the clamp sends ±inf there too; a NaN fails both clamp
// compares and stays NaN.
inline float Exp(float t) {
  t = t < kExpLo ? kExpLo : t;
  t = t > kExpHi ? kExpHi : t;
  const float shifted = t * kLog2e + kRoundShift;
  const float n = shifted - kRoundShift;
  const float r = (t - n * kLn2Hi) - n * kLn2Lo;
  const float z = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float er = (p * z + r) + 1.0f;
  // bits(kRoundShift) has 9 trailing zero bits, so the shift leaves
  // (n + 127) << 23: the float 2^n.
  return er * FromBits((Bits(shifted) + 127u) << 23);
}

}  // namespace

void TanhRow(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) {
    // tanh is computed on a = |x| and takes x's sign bit back, so it is
    // exactly odd and keeps the sign of zero.
    const uint32_t sign = Bits(x[i]) & 0x80000000u;
    const float a = FromBits(Bits(x[i]) & 0x7fffffffu);
    // a < 0.625: Cephes' odd polynomial a + a^3 P(a^2).
    const float z = a * a;
    float p = -5.70498872745e-3f;
    p = p * z + 2.06390887954e-2f;
    p = p * z - 5.37397155531e-2f;
    p = p * z + 1.33314422036e-1f;
    p = p * z - 3.33332819422e-1f;
    const float small = (p * z) * a + a;
    // Otherwise 1 - 2 / (e^2a + 1): exactly 1 once e^2a swamps the 2, and
    // for a = inf (e^2a = inf); NaN for a NaN.
    const float large = 1.0f - 2.0f / (Exp(2.0f * a) + 1.0f);
    y[i] = FromBits(Bits(a < 0.625f ? small : large) | sign);
  }
}

void SigmoidRow(const float* x, float* y, int n) {
  // Exp(-x) is 0 from x = 87.7 up (and at +inf) and +inf from x = -88.4
  // down (and at -inf), so the limits are exactly 1 and 0.
  for (int i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + Exp(-x[i]));
}

}  // namespace lncl::nn
