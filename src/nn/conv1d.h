#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "nn/quantize.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// One-dimensional convolution over a token sequence.
//
// The input is a T x D matrix (one embedding row per token). Each of F
// filters spans `window` consecutive tokens (a window x D patch, flattened to
// a window*D weight row). Two padding modes:
//
//  * kValid: output is (T - window + 1) x F — the Kim (2014) text-CNN filter.
//  * kSame:  output is T x F with zero padding on both sides — the
//    Rodrigues & Pereira (2018) NER feature extractor (window 5).
//
// Forward takes the activation to fuse (kNone for pre-activations, kRelu for
// the conv+ReLU stacks in both models): bias and activation apply in the
// GEMM epilogue's single pass over the output instead of a separate sweep.
// Backward still expects the caller to retain the post-activation output
// (ReluBackward masks on it, exactly as before).
class Conv1d {
 public:
  enum class Padding { kValid, kSame };

  Conv1d(const std::string& name, int window, int in_dim, int filters,
         Padding padding, util::Rng* rng);

  Conv1d(const Conv1d&) = delete;
  Conv1d& operator=(const Conv1d&) = delete;

  // x: T x in_dim. y: rows depend on padding (see above), cols = filters,
  // y = act(conv(x) + bias). For kValid inputs shorter than `window`, the
  // input is implicitly zero-padded at the end to `window` rows (output has
  // exactly one row). Implemented as one strided GEMM of OutRows(T) rows
  // over x's sliding windows (x is copied between zero rows first when a
  // window reaches past it), so convolutions share the blocked microkernels
  // with Linear and the recurrent gate projections; each output is
  // bit-equal to the fma chain over its clipped window. Safe to call
  // concurrently from multiple threads (the filter panel comes from the
  // per-thread pack cache, the padded copy from the thread's workspace).
  void Forward(const util::Matrix& x, util::Matrix* y,
               util::Act act = util::Act::kNone) const;

  // Batched forward over `batch` equal-length sequences packed row-major into
  // x_packed ((batch * t) x in_dim; instance b occupies rows [b*t, (b+1)*t)).
  // y_packed gets the same instance-major layout, (batch * OutRows(t)) x
  // filters. Each instance's block is byte-for-byte what Forward produces on
  // its slice (Forward is this on a batch of one): one GEMM per instance.
  void ForwardPacked(const util::Matrix& x_packed, int batch, int t,
                     util::Matrix* y_packed,
                     util::Act act = util::Act::kNone) const;

  // Accumulates parameter grads; writes dL/dx (same shape as x) when grad_x
  // is non-null.
  void Backward(const util::Matrix& x, const util::Matrix& grad_y,
                util::Matrix* grad_x);

  // Backward through max-over-time pooling: grad_y is zero except
  // grad_pooled[fi] at row argmax[fi] of column fi (F entries each). Applies
  // one rank-1 update per filter with a nonzero gradient, at its clipped
  // window, instead of reading the dense T x F gradient. Parameter grads
  // are bit-equal to Backward on that dense grad_y. grad_x, when non-null,
  // is written with the filters summed in index order.
  void BackwardPooled(const util::Matrix& x, const std::vector<int>& argmax,
                      const float* grad_pooled, util::Matrix* grad_x);

  std::vector<Parameter*> Params() { return {&w_, &b_}; }

  int window() const { return window_; }
  int in_dim() const { return in_dim_; }
  int filters() const { return w_.value.rows(); }
  Padding padding() const { return padding_; }

  // Number of output rows for a T-row input.
  int OutRows(int t) const;

  // Toggles the int8 serving path for Forward/ForwardPacked (eager
  // quantization at the toggle point; see Linear::SetQuantized). Backward
  // always reads the fp32 weights.
  void SetQuantized(bool on);
  bool quantized() const { return quantized_; }

 private:
  // Leftmost input row index covered by output row `o` (may be negative for
  // kSame padding).
  int WindowStart(int o) const {
    return padding_ == Padding::kSame ? o - (window_ - 1) / 2 : o;
  }

  // The rank-1 update of one nonzero grad_y(o, fi) = g over output row o's
  // clipped window: adds g * window(x) to filter fi's row of the weight
  // grad (gw_base) and, when gx_base is non-null, g * that filter's weights
  // to the window's rows of grad_x (T x in_dim). The bias is the caller's.
  void AddWindowUpdate(const util::Matrix& x, int o, int fi, float g,
                       float* gw_base, const float* w_base,
                       float* gx_base) const;

  int window_;
  int in_dim_;
  Padding padding_;
  Parameter w_;  // filters x (window * in_dim)
  Parameter b_;  // 1 x filters
  bool quantized_ = false;
  RowQuantized qw_;
};

}  // namespace lncl::nn
