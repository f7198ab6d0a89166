#pragma once

#include "util/matrix.h"

namespace lncl::nn {

// In-place ReLU on pre-activations; the pre-activation matrix must be kept by
// the caller if a backward pass follows (see ReluBackward).
void ReluForward(util::Matrix* x);
void ReluForward(util::Vector* x);

// Zeroes gradient entries where the pre-activation was <= 0. `pre` is the
// matrix BEFORE ReluForward was applied... since ReluForward is in-place the
// post-activation works equally (relu(x) > 0 iff x > 0).
void ReluBackward(const util::Matrix& post, util::Matrix* grad);
void ReluBackward(const util::Vector& post, util::Vector* grad);

// y[i] = tanh(x[i]) and y[i] = 1 / (1 + e^-x[i]) for i < n; x == y is
// allowed. Each element runs one fixed sequence of IEEE float operations
// (Cody–Waite reduction by ln 2 and fixed polynomials; no libm call and no
// data-dependent branch), so the loops vectorize and an element's bits
// depend only on its input: not on n, its position in the row, the vector
// width, or the host's libm. Error against the exact value is at most 2 ulp
// for tanh and 3 ulp for sigmoid (tested on [-20, 20]), except that sigmoid
// returns 0 from x = -88.4 down, where the exact value is a subnormal
// float. NaN gives NaN, ±inf the limits, and tanh is exactly odd and
// exactly ±1 for |x| >= 20 (tests/nn_test.cc).
void TanhRow(const float* x, float* y, int n);
void SigmoidRow(const float* x, float* y, int n);

}  // namespace lncl::nn
