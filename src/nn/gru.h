#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// Gated recurrent unit over a token sequence (Cho et al., 2014):
//
//   z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)        (update gate)
//   r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)        (reset gate)
//   c_t = tanh   (Wc x_t + Uc (r_t . h_{t-1}) + bc)  (candidate)
//   h_t = (1 - z_t) . h_{t-1} + z_t . c_t
//
// The initial hidden state is zero. ForwardPacked is the only forward: it
// runs `batch` sequences at once and, given a Cache (batch 1), also keeps
// the gate activations that Backward (truncated-free BPTT over the full
// sequence) consumes. One Gru instance can be reused across instances as
// long as each training forward gets its own Cache.
class Gru {
 public:
  struct Cache {
    util::Matrix h;  // T x H hidden states
    util::Matrix z;  // T x H update gates
    util::Matrix r;  // T x H reset gates
    util::Matrix c;  // T x H candidates
  };

  Gru(const std::string& name, int in_dim, int hidden_dim, util::Rng* rng);

  Gru(const Gru&) = delete;
  Gru& operator=(const Gru&) = delete;

  // Forward over `batch` equal-length sequences packed row-major into
  // x_packed ((batch * t) x in_dim, instance-major); h_packed gets the
  // hidden states in the same layout. The input-side projections are one
  // GEMM per gate over all rows, and each step's recurrent product is one
  // [batch, H] x Uᵀ GEMM against weight panels looked up once per call. The
  // GEMM kernels compute each row independently of the row count, so lane b
  // is bit-identical to the same sequence run alone. With a cache (batch 1
  // only) the gate activations and hidden states are kept for Backward;
  // without one the gates live in per-step [batch, H] buffers of the
  // per-thread util::Workspace arena.
  void ForwardPacked(const util::Matrix& x_packed, int batch, int t,
                     util::Matrix* h_packed, Cache* cache = nullptr) const;

  // Training forward of one sequence, x: T x in_dim. h_out: T x hidden_dim
  // (same data as cache->h).
  void Forward(const util::Matrix& x, Cache* cache, util::Matrix* h_out) const {
    ForwardPacked(x, 1, x.rows(), h_out, cache);
  }

  // grad_h: T x hidden_dim = dL/dh_t for every step. Accumulates parameter
  // grads; writes dL/dx when grad_x is non-null.
  void Backward(const util::Matrix& x, const Cache& cache,
                const util::Matrix& grad_h, util::Matrix* grad_x);

  std::vector<Parameter*> Params() {
    return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wc_, &uc_, &bc_};
  }

  int in_dim() const { return wz_.value.cols(); }
  int hidden_dim() const { return wz_.value.rows(); }

 private:
  Parameter wz_, uz_, bz_;
  Parameter wr_, ur_, br_;
  Parameter wc_, uc_, bc_;
};

}  // namespace lncl::nn

