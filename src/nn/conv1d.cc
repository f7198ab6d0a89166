#include "nn/conv1d.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/gemm_kernel.h"

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
// flattened window at output row o starts at x.Row(WindowStart(o)). Both
// passes below exploit that through the microkernel layer instead of
// materializing im2row patch copies. Only output rows whose window overlaps
// the zero padding (at most window-1 of them, kSame borders or a kValid
// input shorter than the window) need separate handling: each is an m = 1
// product over the clipped overlap [lo, hi) x in_dim against the matching
// rows of the filter panel, through the same kernel and fused epilogue.
//
// The interior GEMM runs in the NN form against the k-major filter panel
// (window*D x F) served by the version-keyed pack cache: the panel is
// repacked once per optimizer step, not per call, and the fused epilogue
// writes act(acc + bias) in the same pass over the output. Forward is
// ForwardPacked on a batch of one, so a packed instance block is
// byte-for-byte Forward on the instance alone.

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
  const float* bias = b_.value.Row(0);

  const int interior = t - window_ + 1;
  const int ib = padding_ == Padding::kSame ? (window_ - 1) / 2 : 0;
  const int ie = ib + std::max(0, interior);

  // One interior GEMM per instance, written straight into its y_packed
  // block. A single GEMM over the whole packed buffer would also cover the
  // window-1 windows straddling each instance boundary; at these sequence
  // lengths that is 20-40% wasted rows plus a staging copy, measurably
  // slower than skipping them.
  const float* wt = nullptr;
  int ldw = 0;
  if (quantized_) {
    LNCL_DCHECK(qw_.Matches(w_.value));
  } else {
    wt = util::gemm::PackedOpB(w_.value, util::Trans::kYes, &ldw);
  }
  // `rows` windows starting at xr, one input row apart, times filter panel
  // rows [k_off, k_off + k_len), with the fused bias/act epilogue, into yr.
  const auto product = [&](int rows, int k_len, const float* xr, int k_off,
                           float* yr) {
    if (quantized_) {
      util::gemm::GemmInt8(rows, f, k_len, xr, in_dim_,
                           qw_.q.data() + static_cast<size_t>(k_off) * f,
                           qw_.scale.data(), yr, f, bias, act);
    } else {
      util::gemm::GemmEx(rows, f, k_len, 1.0f, xr, in_dim_, util::Trans::kNo,
                         wt + static_cast<size_t>(k_off) * ldw, ldw,
                         util::Trans::kNo, 0.0f, yr, f, bias, act);
    }
  };
  for (int b = 0; b < batch; ++b) {
    const float* x_base =
        x_packed.data() + static_cast<size_t>(b) * t * in_dim_;
    float* y_base = y_packed->Row(b * out_rows);
    if (interior > 0) {
      product(interior, k_dim, x_base, 0,
              y_base + static_cast<size_t>(ib) * f);
    }
    for (int o = 0; o < out_rows; ++o) {
      if (o >= ib && o < ie) continue;
      const int start = WindowStart(o);
      const int lo = std::max(0, start);
      const int hi = std::min(t, start + window_);
      product(1, (hi - lo) * in_dim_,
              x_base + static_cast<size_t>(lo) * in_dim_,
              (lo - start) * in_dim_, y_base + static_cast<size_t>(o) * f);
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

  // After max-over-time pooling (the text-CNN head) grad_y is structurally
  // sparse: at most one nonzero per filter column, further thinned by
  // dropout. Below ~1/8 density the axpy formulation beats the dense GEMMs;
  // the path choice depends only on the data, never on the thread count.
  const bool sparse = static_cast<size_t>(nnz) * 8 < grad_y.size();
  if (sparse) {
    float* gx_base = nullptr;
    if (grad_x != nullptr) {
      grad_x->Resize(t, in_dim_);
      gx_base = grad_x->data();
    }
    for (int o = 0; o < out_rows; ++o) {
      const float* gout = grad_y.Row(o);
      const int start = WindowStart(o);
      const int lo = std::max(0, start);
      const int hi = std::min(t, start + window_);
      const int off = (lo - start) * in_dim_;
      const int len = (hi - lo) * in_dim_;  // rows lo..hi-1 are contiguous
      const float* xr = x.Row(lo);
      for (int fi = 0; fi < f; ++fi) {
        const float g = gout[fi];
        if (g == 0.0f) continue;
        float* gw = gw_base + static_cast<size_t>(fi) * k_dim + off;
        for (int k = 0; k < len; ++k) gw[k] += g * xr[k];
        if (gx_base == nullptr) continue;
        const float* wr = w_base + static_cast<size_t>(fi) * k_dim + off;
        float* gx = gx_base + static_cast<size_t>(lo) * in_dim_;
        for (int k = 0; k < len; ++k) gx[k] += g * wr[k];
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

}  // namespace lncl::nn
