#include "nn/gru.h"

#include "nn/activations.h"
#include "util/check.h"
#include "util/gemm_kernel.h"
#include "util/workspace.h"

namespace lncl::nn {

Gru::Gru(const std::string& name, int in_dim, int hidden_dim, util::Rng* rng)
    : wz_(name + ".wz", hidden_dim, in_dim),
      uz_(name + ".uz", hidden_dim, hidden_dim),
      bz_(name + ".bz", 1, hidden_dim),
      wr_(name + ".wr", hidden_dim, in_dim),
      ur_(name + ".ur", hidden_dim, hidden_dim),
      br_(name + ".br", 1, hidden_dim),
      wc_(name + ".wc", hidden_dim, in_dim),
      uc_(name + ".uc", hidden_dim, hidden_dim),
      bc_(name + ".bc", 1, hidden_dim) {
  GlorotInit(rng, &wz_.value);
  GlorotInit(rng, &uz_.value);
  GlorotInit(rng, &wr_.value);
  GlorotInit(rng, &ur_.value);
  GlorotInit(rng, &wc_.value);
  GlorotInit(rng, &uc_.value);
}

namespace {

// Per-thread scratch for Backward's per-step pre-activation gradients.
// thread_local keeps the layer safe under the parallel trainer.
thread_local util::Matrix tls_dz, tls_dr, tls_dc, tls_hprev, tls_rh;

}  // namespace

// Every gate product runs in the NN kernel form against k-major weight
// panels from the per-thread pack cache (see util::gemm::PackedOpB): the
// inner loop updates h_dim independent accumulators with stride-1 loads, and
// a panel is repacked once per optimizer step rather than once per call.
// The recurrent panels are looked up once per call; the step loop issues
// only raw kernel calls, which never pack, so the pointers stay valid. The
// kernels compute each output row independently of the row count, so lane
// b of a batch is bit-identical to the same sequence run alone. The
// input-side gate biases ride the GEMM epilogue, so the per-step gate loops
// add only the recurrent term.

void Gru::ForwardPacked(const util::Matrix& x_packed, int batch, int t_len,
                        util::Matrix* h_packed, Cache* cache) const {
  LNCL_DCHECK(x_packed.rows() == batch * t_len);
  LNCL_DCHECK(t_len == 0 || x_packed.cols() == in_dim());
  LNCL_DCHECK(cache == nullptr || batch == 1);
  const int h_dim = hidden_dim();
  h_packed->ResizeNoZero(batch * t_len, h_dim);
  if (cache != nullptr) {
    cache->h.ResizeNoZero(t_len, h_dim);
    cache->z.ResizeNoZero(t_len, h_dim);
    cache->r.ResizeNoZero(t_len, h_dim);
    cache->c.ResizeNoZero(t_len, h_dim);
  }
  if (batch == 0 || t_len == 0) return;

  util::WorkspaceScope scope;
  // Input-side gate pre-activations (bias fused) for every (instance, step)
  // row at once: GX_g = X * W_g^T + b_g. Only the h x h recurrent products
  // remain sequential.
  util::Matrix& gx_z = scope.NewMatrix();
  util::Matrix& gx_r = scope.NewMatrix();
  util::Matrix& gx_c = scope.NewMatrix();
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wz_.value, util::Trans::kYes,
               0.0f, &gx_z, bz_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wr_.value, util::Trans::kYes,
               0.0f, &gx_r, br_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wc_.value, util::Trans::kYes,
               0.0f, &gx_c, bc_.value.Row(0), util::Act::kNone);

  int ldu = 0;
  const float* uzp = util::gemm::PackedOpB(uz_.value, util::Trans::kYes, &ldu);
  const float* urp = util::gemm::PackedOpB(ur_.value, util::Trans::kYes, &ldu);
  const float* ucp = util::gemm::PackedOpB(uc_.value, util::Trans::kYes, &ldu);

  // Base pointers are taken once: mutable Matrix access draws a version
  // ticket per call (util/matrix.h). Gate outputs go to the cache's row t
  // at step t (batch 1), or to row b of per-step [batch, H] buffers.
  const float* const gxz = gx_z.data();
  const float* const gxr = gx_r.data();
  const float* const gxc = gx_c.data();
  float* const z = cache != nullptr ? cache->z.data()
                                    : scope.NewMatrix(batch, h_dim).data();
  float* const r = cache != nullptr ? cache->r.data()
                                    : scope.NewMatrix(batch, h_dim).data();
  float* const c = cache != nullptr ? cache->c.data()
                                    : scope.NewMatrix(batch, h_dim).data();
  util::Matrix& h_prev = scope.NewMatrix();
  h_prev.Resize(batch, h_dim);  // zero initial state
  float* const hp = h_prev.data();
  float* const rh = scope.NewMatrix(batch, h_dim).data();
  float* const tmp = scope.NewMatrix(batch, h_dim).data();
  float* const h = h_packed->data();
  const auto row = [h_dim](auto* base, int i) {
    return base + static_cast<size_t>(i) * h_dim;
  };
  // tmp = A * U^T for the [batch, H] state A: row b is the one-row product
  // of lane b.
  const auto recur = [&](const float* u, const float* a) {
    util::gemm::GemmEx(batch, h_dim, h_dim, 1.0f, a, h_dim, util::Trans::kNo,
                       u, ldu, util::Trans::kNo, 0.0f, tmp, h_dim, nullptr,
                       util::Act::kNone);
  };
  // A gate's pre-activations at step t (input side plus tmp) for every lane,
  // written to the contiguous [batch, H] block `out`, which one row call then
  // activates in place.
  const auto pre = [&](const float* gx, int t, float* out) {
    for (int b = 0; b < batch; ++b) {
      const float* g = row(gx, b * t_len + t);
      const float* u = row(tmp, b);
      float* o = row(out, b);
      for (int k = 0; k < h_dim; ++k) o[k] = g[k] + u[k];
    }
  };
  const int block = batch * h_dim;
  for (int t = 0; t < t_len; ++t) {
    const int row0 = cache != nullptr ? t : 0;
    float* const zt = row(z, row0);
    float* const rt = row(r, row0);
    float* const ct = row(c, row0);
    recur(uzp, hp);
    pre(gxz, t, zt);
    SigmoidRow(zt, zt, block);
    recur(urp, hp);
    pre(gxr, t, rt);
    SigmoidRow(rt, rt, block);
    for (int i = 0; i < block; ++i) rh[i] = rt[i] * hp[i];
    recur(ucp, rh);
    pre(gxc, t, ct);
    TanhRow(ct, ct, block);
    // h_t
    for (int b = 0; b < batch; ++b) {
      const float* zb = row(zt, b);
      const float* cb = row(ct, b);
      float* hb = row(hp, b);
      float* ht = row(h, b * t_len + t);
      for (int k = 0; k < h_dim; ++k) {
        ht[k] = (1.0f - zb[k]) * hb[k] + zb[k] * cb[k];
        hb[k] = ht[k];
      }
    }
  }
  if (cache != nullptr) cache->h = *h_packed;
}

void Gru::Backward(const util::Matrix& x, const Cache& cache,
                   const util::Matrix& grad_h, util::Matrix* grad_x) {
  const int t_len = x.rows();
  const int h_dim = hidden_dim();
  LNCL_DCHECK(grad_h.rows() == t_len && grad_h.cols() == h_dim);

  // The sequential sweep only resolves the recurrent coupling; the
  // pre-activation gradients are staged per timestep and the parameter /
  // input gradients are then computed with batched GEMMs below.
  tls_dz.ResizeNoZero(t_len, h_dim);
  tls_dr.ResizeNoZero(t_len, h_dim);
  tls_dc.ResizeNoZero(t_len, h_dim);
  tls_hprev.ResizeNoZero(t_len, h_dim);  // row t = h_{t-1} (zeros at t=0)
  tls_rh.ResizeNoZero(t_len, h_dim);     // row t = r_t . h_{t-1}
  // Row t of each is base + t * h_dim; data() once per matrix, as a
  // mutable access draws a version ticket.
  float* const dz_base = tls_dz.data();
  float* const dr_base = tls_dr.data();
  float* const dc_base = tls_dc.data();
  float* const hprev_base = tls_hprev.data();
  float* const rh_base = tls_rh.data();

  util::Vector dh_next(h_dim, 0.0f);
  util::Vector dh(h_dim), dz_pre(h_dim), dr_pre(h_dim), dc_pre(h_dim);
  util::Vector drh(h_dim), tmp;
  for (int t = t_len - 1; t >= 0; --t) {
    const size_t row = static_cast<size_t>(t) * h_dim;
    float* h_prev = hprev_base + row;
    if (t > 0) {
      const float* hp = cache.h.Row(t - 1);
      std::copy(hp, hp + h_dim, h_prev);
    } else {
      std::fill(h_prev, h_prev + h_dim, 0.0f);
    }
    const float* z = cache.z.Row(t);
    const float* r = cache.r.Row(t);
    const float* c = cache.c.Row(t);
    const float* gh = grad_h.Row(t);

    for (int k = 0; k < h_dim; ++k) dh[k] = gh[k] + dh_next[k];

    // Through h_t = (1-z) h_prev + z c.
    for (int k = 0; k < h_dim; ++k) {
      const float dzk = dh[k] * (c[k] - h_prev[k]);
      const float dck = dh[k] * z[k];
      dh_next[k] = dh[k] * (1.0f - z[k]);  // start accumulating dL/dh_{t-1}
      dz_pre[k] = dzk * z[k] * (1.0f - z[k]);
      dc_pre[k] = dck * (1.0f - c[k] * c[k]);
    }

    // Candidate branch: c = tanh(Wc x + Uc (r.h_prev) + bc).
    float* rh = rh_base + row;
    for (int k = 0; k < h_dim; ++k) rh[k] = r[k] * h_prev[k];
    util::MatVecTrans(uc_.value, dc_pre, &drh);
    for (int k = 0; k < h_dim; ++k) {
      const float drk = drh[k] * h_prev[k];
      dh_next[k] += drh[k] * r[k];
      dr_pre[k] = drk * r[k] * (1.0f - r[k]);
    }

    // Gate branches: the recurrent coupling into dL/dh_{t-1}.
    util::MatVecTrans(uz_.value, dz_pre, &tmp);
    for (int k = 0; k < h_dim; ++k) dh_next[k] += tmp[k];
    util::MatVecTrans(ur_.value, dr_pre, &tmp);
    for (int k = 0; k < h_dim; ++k) dh_next[k] += tmp[k];

    std::copy(dz_pre.begin(), dz_pre.end(), dz_base + row);
    std::copy(dr_pre.begin(), dr_pre.end(), dr_base + row);
    std::copy(dc_pre.begin(), dc_pre.end(), dc_base + row);
  }

  // Parameter gradients, batched over the whole sequence.
  util::Gemm(1.0f, tls_dz, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
             &wz_.grad);
  util::Gemm(1.0f, tls_dz, util::Trans::kYes, tls_hprev, util::Trans::kNo,
             1.0f, &uz_.grad);
  util::Gemm(1.0f, tls_dr, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
             &wr_.grad);
  util::Gemm(1.0f, tls_dr, util::Trans::kYes, tls_hprev, util::Trans::kNo,
             1.0f, &ur_.grad);
  util::Gemm(1.0f, tls_dc, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
             &wc_.grad);
  util::Gemm(1.0f, tls_dc, util::Trans::kYes, tls_rh, util::Trans::kNo, 1.0f,
             &uc_.grad);
  float* gbz = bz_.grad.Row(0);
  float* gbr = br_.grad.Row(0);
  float* gbc = bc_.grad.Row(0);
  for (int t = 0; t < t_len; ++t) {
    const size_t row = static_cast<size_t>(t) * h_dim;
    const float* dz = dz_base + row;
    const float* dr = dr_base + row;
    const float* dc = dc_base + row;
    for (int k = 0; k < h_dim; ++k) {
      gbz[k] += dz[k];
      gbr[k] += dr[k];
      gbc[k] += dc[k];
    }
  }

  if (grad_x != nullptr) {
    // dX = dZ Wz + dR Wr + dC Wc.
    util::Gemm(1.0f, tls_dz, util::Trans::kNo, wz_.value, util::Trans::kNo,
               0.0f, grad_x);
    util::Gemm(1.0f, tls_dr, util::Trans::kNo, wr_.value, util::Trans::kNo,
               1.0f, grad_x);
    util::Gemm(1.0f, tls_dc, util::Trans::kNo, wc_.value, util::Trans::kNo,
               1.0f, grad_x);
  }
}

}  // namespace lncl::nn
