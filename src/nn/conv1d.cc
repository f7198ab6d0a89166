#include "nn/conv1d.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/gemm_kernel.h"
#include "util/workspace.h"

namespace lncl::nn {

Conv1d::Conv1d(const std::string& name, int window, int in_dim, int filters,
               Padding padding, util::Rng* rng)
    : window_(window),
      in_dim_(in_dim),
      padding_(padding),
      w_(name + ".w", filters, window * in_dim),
      b_(name + ".b", 1, filters) {
  GlorotInit(rng, &w_.value, window * in_dim, filters);
}

int Conv1d::OutRows(int t) const {
  if (padding_ == Padding::kSame) return t;
  return std::max(1, t - window_ + 1);
}

void Conv1d::SetQuantized(bool on) {
  quantized_ = on;
  if (on) {
    QuantizeRows(w_.value, &qw_);
    if (obs::Metrics::enabled()) {
      // Requantization volume (see Linear::SetQuantized).
      static obs::Counter* const tensors =
          obs::Metrics::GetCounter("quantize.requantized_tensors");
      static obs::Counter* const rows =
          obs::Metrics::GetCounter("quantize.requantized_rows");
      tensors->Add(1);
      rows->Add(static_cast<uint64_t>(w_.value.rows()));
    }
  } else {
    qw_ = RowQuantized();
  }
}

namespace {

// Backward scratch for the dense grad_x path. thread_local (rather than a
// mutable member) keeps the layer safe under the parallel E-step.
thread_local util::Matrix tls_grad_patches;

}  // namespace

// The sliding windows of a 1-D convolution over a row-major T x D input are
// already an (out_rows x window*D) operand with leading dimension D — the
// flattened window at output row o starts at x.Row(WindowStart(o)). The
// forward runs one GEMM of OutRows(t) rows per instance over that operand,
// in the NN form against the k-major filter panel (window*D x F) served by
// the version-keyed pack cache (repacked once per optimizer step, not per
// call), with act(acc + bias) fused into the same pass over the output.
// Where windows reach past the instance (kSame borders, a kValid input
// shorter than the window), the instance is first copied between zero rows
// in a workspace buffer. A zero term leaves each output bit-equal to the
// product over the clipped window: every fma chain starts at +0, a zero
// product added to +0 leaves +0 under round-to-nearest, and one added to a
// nonzero sum leaves the sum (DESIGN.md §9). One GEMM over a whole packed
// batch would also compute the w-1 windows straddling each pair of
// instances, 20-40% wasted rows at these sequence lengths, so the GEMMs stay
// per instance. Forward is ForwardPacked on a batch of one, so a packed
// instance block is byte-for-byte Forward on the instance alone.

void Conv1d::Forward(const util::Matrix& x, util::Matrix* y,
                     util::Act act) const {
  LNCL_DCHECK(x.cols() == in_dim_);
  ForwardPacked(x, 1, x.rows(), y, act);
}

void Conv1d::ForwardPacked(const util::Matrix& x_packed, int batch, int t,
                           util::Matrix* y_packed, util::Act act) const {
  LNCL_DCHECK(x_packed.rows() == batch * t);
  LNCL_DCHECK(t == 0 || x_packed.cols() == in_dim_);
  const int out_rows = OutRows(t);
  const int f = filters();
  const int k_dim = window_ * in_dim_;
  y_packed->ResizeNoZero(batch * out_rows, f);
  if (out_rows == 0) return;
  const float* bias = b_.value.Row(0);

  const float* wt = nullptr;
  int ldw = 0;
  if (quantized_) {
    LNCL_DCHECK(qw_.Matches(w_.value));
  } else {
    wt = util::gemm::PackedOpB(w_.value, util::Trans::kYes, &ldw);
  }

  // Zero rows around each instance: kSame's (w-1)/2 before and the rest of
  // w-1 after, or a short kValid instance's rows up to one window.
  const int pad_before = padding_ == Padding::kSame ? (window_ - 1) / 2 : 0;
  const int pad_after = padding_ == Padding::kSame
                            ? window_ - 1 - pad_before
                            : std::max(0, window_ - t);
  util::WorkspaceScope scope;
  float* padded = nullptr;
  if (pad_before + pad_after > 0) {
    padded = scope.NewMatrix(pad_before + t + pad_after, in_dim_).data();
    std::fill_n(padded, static_cast<size_t>(pad_before) * in_dim_, 0.0f);
    std::fill_n(padded + static_cast<size_t>(pad_before + t) * in_dim_,
                static_cast<size_t>(pad_after) * in_dim_, 0.0f);
  }
  for (int b = 0; b < batch; ++b) {
    const float* xr = x_packed.data() + static_cast<size_t>(b) * t * in_dim_;
    if (padded != nullptr) {
      std::copy_n(xr, static_cast<size_t>(t) * in_dim_,
                  padded + static_cast<size_t>(pad_before) * in_dim_);
      xr = padded;
    }
    float* yr = y_packed->Row(b * out_rows);
    if (quantized_) {
      util::gemm::GemmInt8(out_rows, f, k_dim, xr, in_dim_, qw_.q.data(),
                           qw_.scale.data(), yr, f, bias, act);
    } else {
      util::gemm::GemmEx(out_rows, f, k_dim, 1.0f, xr, in_dim_,
                         util::Trans::kNo, wt, ldw, util::Trans::kNo, 0.0f, yr,
                         f, bias, act);
    }
  }
}

void Conv1d::Backward(const util::Matrix& x, const util::Matrix& grad_y,
                      util::Matrix* grad_x) {
  const int t = x.rows();
  const int out_rows = grad_y.rows();
  const int f = filters();
  const int k_dim = window_ * in_dim_;
  LNCL_DCHECK(out_rows == OutRows(t));
  LNCL_DCHECK(grad_y.cols() == f);

  // Each matrix's data() is taken once: a mutable access draws a version
  // ticket.
  LNCL_DCHECK(w_.grad.cols() == k_dim && w_.value.cols() == k_dim);
  float* const gw_base = w_.grad.data();
  const float* const w_base = std::as_const(w_.value).data();

  // db += column sums of grad_y; count nonzeros on the same pass.
  float* gbias = b_.grad.Row(0);
  int nnz = 0;
  for (int o = 0; o < out_rows; ++o) {
    const float* gout = grad_y.Row(o);
    for (int k = 0; k < f; ++k) {
      gbias[k] += gout[k];
      nnz += gout[k] != 0.0f;
    }
  }

  const int interior = t - window_ + 1;
  const int ib = padding_ == Padding::kSame ? (window_ - 1) / 2 : 0;
  const int ie = ib + std::max(0, interior);

  // ReLU and dropout can leave grad_y nearly empty: NerTagger's conv (ReLU,
  // then dropout 0.5) does, on about one backward call in 27 in the Table
  // III bench's NER fits, one in 400 in Table IV's and a few short
  // sentences in the NER example and integration tests; the benchmark's
  // NER workloads never reach it. Below ~1/8 density the axpy formulation
  // beats the dense GEMMs; the path choice depends only on the data, never
  // on the thread count. The Table III/IV rows depend on this path's
  // rounding. (The text-CNN head's pooled gradient goes through
  // BackwardPooled instead.)
  const bool sparse = static_cast<size_t>(nnz) * 8 < grad_y.size();
  if (sparse) {
    float* gx_base = nullptr;
    if (grad_x != nullptr) {
      grad_x->Resize(t, in_dim_);
      gx_base = grad_x->data();
    }
    for (int o = 0; o < out_rows; ++o) {
      const float* gout = grad_y.Row(o);
      for (int fi = 0; fi < f; ++fi) {
        if (gout[fi] != 0.0f) {
          AddWindowUpdate(x, o, fi, gout[fi], gw_base, w_base, gx_base);
        }
      }
    }
    return;
  }

  // Dense path. dW += grad_y^T * windows(x): interior rows through the
  // strided GEMM, boundary rows as clipped rank-1 updates.
  if (interior > 0) {
    util::GemmRaw(f, k_dim, interior, 1.0f, grad_y.Row(ib), f,
                  util::Trans::kYes, x.data(), in_dim_, util::Trans::kNo, 1.0f,
                  gw_base, k_dim);
  }
  for (int o = 0; o < out_rows; ++o) {
    if (o >= ib && o < ie) continue;
    const float* gout = grad_y.Row(o);
    const int start = WindowStart(o);
    const int lo = std::max(0, start);
    const int hi = std::min(t, start + window_);
    const int off = (lo - start) * in_dim_;
    const int len = (hi - lo) * in_dim_;
    const float* xr = x.Row(lo);
    for (int fi = 0; fi < f; ++fi) {
      const float g = gout[fi];
      float* gw = gw_base + static_cast<size_t>(fi) * k_dim + off;
      for (int k = 0; k < len; ++k) gw[k] += g * xr[k];
    }
  }
  if (grad_x == nullptr) return;
  // dWindows = grad_y * W, then scatter-add each (clipped) flattened window
  // back onto the contiguous input rows it covers (row2im).
  util::Gemm(1.0f, grad_y, util::Trans::kNo, w_.value, util::Trans::kNo, 0.0f,
             &tls_grad_patches);
  grad_x->Resize(t, in_dim_);
  float* const gx_base = grad_x->data();
  const util::Matrix& patches = tls_grad_patches;
  for (int o = 0; o < out_rows; ++o) {
    const int start = WindowStart(o);
    const int lo = std::max(0, start);
    const int hi = std::min(t, start + window_);
    const int off = (lo - start) * in_dim_;
    const int len = (hi - lo) * in_dim_;
    const float* src = patches.Row(o) + off;
    float* gx = gx_base + static_cast<size_t>(lo) * in_dim_;
    for (int k = 0; k < len; ++k) gx[k] += src[k];
  }
}

void Conv1d::AddWindowUpdate(const util::Matrix& x, int o, int fi, float g,
                             float* gw_base, const float* w_base,
                             float* gx_base) const {
  const int k_dim = window_ * in_dim_;
  const int start = WindowStart(o);
  const int lo = std::max(0, start);
  const int hi = std::min(x.rows(), start + window_);
  const int off = (lo - start) * in_dim_;
  const int len = (hi - lo) * in_dim_;  // rows lo..hi-1 are contiguous
  const float* xr = x.Row(lo);
  float* gw = gw_base + static_cast<size_t>(fi) * k_dim + off;
  for (int k = 0; k < len; ++k) gw[k] += g * xr[k];
  if (gx_base == nullptr) return;
  const float* wr = w_base + static_cast<size_t>(fi) * k_dim + off;
  float* gx = gx_base + static_cast<size_t>(lo) * in_dim_;
  for (int k = 0; k < len; ++k) gx[k] += g * wr[k];
}

void Conv1d::BackwardPooled(const util::Matrix& x,
                            const std::vector<int>& argmax,
                            const float* grad_pooled, util::Matrix* grad_x) {
  const int t = x.rows();
  const int f = filters();
  const int k_dim = window_ * in_dim_;
  LNCL_DCHECK(static_cast<int>(argmax.size()) == f);
  for (const int o : argmax) LNCL_DCHECK(o >= 0 && o < OutRows(t));
  LNCL_DCHECK(w_.grad.cols() == k_dim && w_.value.cols() == k_dim);
  float* const gw_base = w_.grad.data();
  const float* const w_base = std::as_const(w_.value).data();
  float* const gbias = b_.grad.Row(0);
  float* gx_base = nullptr;
  if (grad_x != nullptr) {
    grad_x->Resize(t, in_dim_);
    gx_base = grad_x->data();
  }

  // Filter fi's only nonzero grad_y entry is g at row argmax[fi]; the dense
  // grad_y adds only zeros besides it, and a zero leaves a sum unchanged (a
  // grad accumulated from +0 is never -0). grad_x sums the filters in index
  // order.
  for (int fi = 0; fi < f; ++fi) {
    const float g = grad_pooled[fi];
    if (g == 0.0f) continue;
    gbias[fi] += g;
    AddWindowUpdate(x, argmax[fi], fi, g, gw_base, w_base, gx_base);
  }
}

}  // namespace lncl::nn
