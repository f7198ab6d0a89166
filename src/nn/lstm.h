#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// Long short-term memory layer (Hochreiter & Schmidhuber, 1997):
//
//   i_t = sigmoid(Wi x_t + Ui h_{t-1} + bi)        (input gate)
//   f_t = sigmoid(Wf x_t + Uf h_{t-1} + bf)        (forget gate)
//   o_t = sigmoid(Wo x_t + Uo h_{t-1} + bo)        (output gate)
//   g_t = tanh   (Wg x_t + Ug h_{t-1} + bg)        (candidate)
//   c_t = f_t . c_{t-1} + i_t . g_t
//   h_t = o_t . tanh(c_t)
//
// The drop-in alternative to nn::Gru (same ForwardPacked/Forward/Backward
// surface with its own Cache), used by models::NerTagger for the
// recurrent-cell ablation.
// Initial hidden and cell states are zero; the forget-gate bias is
// initialized to +1, the standard trick for healthy gradient flow.
class Lstm {
 public:
  struct Cache {
    util::Matrix h;   // T x H hidden states
    util::Matrix c;   // T x H cell states
    util::Matrix i;   // gates / candidate
    util::Matrix f;
    util::Matrix o;
    util::Matrix g;
  };

  Lstm(const std::string& name, int in_dim, int hidden_dim, util::Rng* rng);

  Lstm(const Lstm&) = delete;
  Lstm& operator=(const Lstm&) = delete;

  // The one forward: `batch` equal-length sequences packed row-major into
  // x_packed ((batch * t) x in_dim, instance-major), hidden states into
  // h_packed in the same layout; a cache (batch 1 only) keeps the gates and
  // states for Backward. Lane b is bit-identical to the sequence run alone
  // (see nn::Gru::ForwardPacked for the argument).
  void ForwardPacked(const util::Matrix& x_packed, int batch, int t,
                     util::Matrix* h_packed, Cache* cache = nullptr) const;

  // Training forward of one sequence (ForwardPacked on a batch of one).
  void Forward(const util::Matrix& x, Cache* cache, util::Matrix* h_out) const {
    ForwardPacked(x, 1, x.rows(), h_out, cache);
  }

  // grad_h: T x H = dL/dh_t for every step. Accumulates parameter grads;
  // writes dL/dx when grad_x is non-null.
  void Backward(const util::Matrix& x, const Cache& cache,
                const util::Matrix& grad_h, util::Matrix* grad_x);

  std::vector<Parameter*> Params() {
    return {&wi_, &ui_, &bi_, &wf_, &uf_, &bf_,
            &wo_, &uo_, &bo_, &wg_, &ug_, &bg_};
  }

  int in_dim() const { return wi_.value.cols(); }
  int hidden_dim() const { return wi_.value.rows(); }

 private:
  Parameter wi_, ui_, bi_;
  Parameter wf_, uf_, bf_;
  Parameter wo_, uo_, bo_;
  Parameter wg_, ug_, bg_;
};

}  // namespace lncl::nn

