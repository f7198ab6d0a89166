#include "nn/lstm.h"

#include <algorithm>

#include "nn/activations.h"
#include "util/check.h"
#include "util/gemm_kernel.h"
#include "util/workspace.h"

namespace lncl::nn {

Lstm::Lstm(const std::string& name, int in_dim, int hidden_dim,
           util::Rng* rng)
    : wi_(name + ".wi", hidden_dim, in_dim),
      ui_(name + ".ui", hidden_dim, hidden_dim),
      bi_(name + ".bi", 1, hidden_dim),
      wf_(name + ".wf", hidden_dim, in_dim),
      uf_(name + ".uf", hidden_dim, hidden_dim),
      bf_(name + ".bf", 1, hidden_dim),
      wo_(name + ".wo", hidden_dim, in_dim),
      uo_(name + ".uo", hidden_dim, hidden_dim),
      bo_(name + ".bo", 1, hidden_dim),
      wg_(name + ".wg", hidden_dim, in_dim),
      ug_(name + ".ug", hidden_dim, hidden_dim),
      bg_(name + ".bg", 1, hidden_dim) {
  GlorotInit(rng, &wi_.value);
  GlorotInit(rng, &ui_.value);
  GlorotInit(rng, &wf_.value);
  GlorotInit(rng, &uf_.value);
  GlorotInit(rng, &wo_.value);
  GlorotInit(rng, &uo_.value);
  GlorotInit(rng, &wg_.value);
  GlorotInit(rng, &ug_.value);
  // Forget-gate bias at +1 keeps early memories alive.
  for (int k = 0; k < hidden_dim; ++k) bf_.value(0, k) = 1.0f;
}

namespace {

// Per-thread scratch for Backward (see gru.cc for the rationale).
thread_local util::Matrix tls_di, tls_df, tls_do, tls_dg, tls_hprev,
    tls_tanh_c;

}  // namespace

// Every gate product runs in the NN kernel form against k-major weight
// panels from the per-thread pack cache, with the input-side gate biases
// fused into the GEMM epilogue and the recurrent panels looked up once per
// call; see gru.cc for the vectorization, repack-once-per-step, and
// bit-identity rationale.
void Lstm::ForwardPacked(const util::Matrix& x_packed, int batch, int t_len,
                         util::Matrix* h_packed, Cache* cache) const {
  LNCL_DCHECK(x_packed.rows() == batch * t_len);
  LNCL_DCHECK(t_len == 0 || x_packed.cols() == in_dim());
  LNCL_DCHECK(cache == nullptr || batch == 1);
  const int h_dim = hidden_dim();
  h_packed->ResizeNoZero(batch * t_len, h_dim);
  if (cache != nullptr) {
    cache->h.ResizeNoZero(t_len, h_dim);
    cache->c.ResizeNoZero(t_len, h_dim);
    cache->i.ResizeNoZero(t_len, h_dim);
    cache->f.ResizeNoZero(t_len, h_dim);
    cache->o.ResizeNoZero(t_len, h_dim);
    cache->g.ResizeNoZero(t_len, h_dim);
  }
  if (batch == 0 || t_len == 0) return;

  util::WorkspaceScope scope;
  util::Matrix& gx_i = scope.NewMatrix();
  util::Matrix& gx_f = scope.NewMatrix();
  util::Matrix& gx_o = scope.NewMatrix();
  util::Matrix& gx_g = scope.NewMatrix();
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wi_.value, util::Trans::kYes,
               0.0f, &gx_i, bi_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wf_.value, util::Trans::kYes,
               0.0f, &gx_f, bf_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wo_.value, util::Trans::kYes,
               0.0f, &gx_o, bo_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wg_.value, util::Trans::kYes,
               0.0f, &gx_g, bg_.value.Row(0), util::Act::kNone);

  int ldu = 0;
  const float* uip = util::gemm::PackedOpB(ui_.value, util::Trans::kYes, &ldu);
  const float* ufp = util::gemm::PackedOpB(uf_.value, util::Trans::kYes, &ldu);
  const float* uop = util::gemm::PackedOpB(uo_.value, util::Trans::kYes, &ldu);
  const float* ugp = util::gemm::PackedOpB(ug_.value, util::Trans::kYes, &ldu);

  // Base pointers are taken once: mutable Matrix access draws a version
  // ticket per call (util/matrix.h). Gate outputs go to the cache's row t
  // at step t (batch 1), or to row b of per-step [batch, H] buffers.
  float* const i_out = cache != nullptr ? cache->i.data()
                                        : scope.NewMatrix(batch, h_dim).data();
  float* const f_out = cache != nullptr ? cache->f.data()
                                        : scope.NewMatrix(batch, h_dim).data();
  float* const o_out = cache != nullptr ? cache->o.data()
                                        : scope.NewMatrix(batch, h_dim).data();
  float* const g_out = cache != nullptr ? cache->g.data()
                                        : scope.NewMatrix(batch, h_dim).data();
  util::Matrix& h_prev = scope.NewMatrix();
  util::Matrix& c_prev = scope.NewMatrix();
  h_prev.Resize(batch, h_dim);  // zero initial states
  c_prev.Resize(batch, h_dim);
  float* const hp = h_prev.data();
  float* const cp = c_prev.data();
  float* const tmp = scope.NewMatrix(batch, h_dim).data();
  float* const tanh_c = scope.NewMatrix(batch, h_dim).data();
  float* const h = h_packed->data();
  const auto row = [h_dim](auto* base, int r) {
    return base + static_cast<size_t>(r) * h_dim;
  };
  const int block = batch * h_dim;
  // Row b of H_prev * Uᵀ is lane b's one-row recurrent product. The gate's
  // pre-activations for every lane fill the contiguous [batch, H] block at
  // row `row0` of `out`, which one row call then activates in place.
  const auto gate = [&](const float* u, const util::Matrix& gx, float* out,
                        bool tanh_act, int t, int row0) {
    util::gemm::GemmEx(batch, h_dim, h_dim, 1.0f, hp, h_dim, util::Trans::kNo,
                       u, ldu, util::Trans::kNo, 0.0f, tmp, h_dim, nullptr,
                       util::Act::kNone);
    float* const ot = row(out, row0);
    for (int b = 0; b < batch; ++b) {
      const float* gxr = row(gx.data(), b * t_len + t);
      const float* tb = row(tmp, b);
      float* ob = row(ot, b);
      for (int k = 0; k < h_dim; ++k) ob[k] = gxr[k] + tb[k];
    }
    if (tanh_act) {
      TanhRow(ot, ot, block);
    } else {
      SigmoidRow(ot, ot, block);
    }
  };
  for (int t = 0; t < t_len; ++t) {
    const int row0 = cache != nullptr ? t : 0;
    gate(uip, gx_i, i_out, false, t, row0);
    gate(ufp, gx_f, f_out, false, t, row0);
    gate(uop, gx_o, o_out, false, t, row0);
    gate(ugp, gx_g, g_out, true, t, row0);
    const float* const i = row(i_out, row0);
    const float* const f = row(f_out, row0);
    const float* const o = row(o_out, row0);
    const float* const g = row(g_out, row0);
    for (int k = 0; k < block; ++k) cp[k] = f[k] * cp[k] + i[k] * g[k];
    TanhRow(cp, tanh_c, block);
    for (int b = 0; b < batch; ++b) {
      const float* ob = row(o, b);
      const float* tb = row(tanh_c, b);
      float* hb = row(hp, b);
      float* ht = row(h, b * t_len + t);
      for (int k = 0; k < h_dim; ++k) {
        ht[k] = ob[k] * tb[k];
        hb[k] = ht[k];
      }
    }
    if (cache != nullptr) std::copy(cp, cp + h_dim, cache->c.Row(t));
  }
  if (cache != nullptr) cache->h = *h_packed;
}

void Lstm::Backward(const util::Matrix& x, const Cache& cache,
                    const util::Matrix& grad_h, util::Matrix* grad_x) {
  const int t_len = x.rows();
  const int h_dim = hidden_dim();
  LNCL_DCHECK(grad_h.rows() == t_len && grad_h.cols() == h_dim);

  tls_di.ResizeNoZero(t_len, h_dim);
  tls_df.ResizeNoZero(t_len, h_dim);
  tls_do.ResizeNoZero(t_len, h_dim);
  tls_dg.ResizeNoZero(t_len, h_dim);
  tls_hprev.ResizeNoZero(t_len, h_dim);
  // tanh(c_t) through the forward's row function, so both see the same bits.
  tls_tanh_c.ResizeNoZero(t_len, h_dim);
  TanhRow(cache.c.data(), tls_tanh_c.data(), t_len * h_dim);

  util::Vector dh_next(h_dim, 0.0f), dc_next(h_dim, 0.0f);
  util::Vector d_pre(h_dim), c_prev(h_dim), tmp;
  for (int t = t_len - 1; t >= 0; --t) {
    float* h_prev = tls_hprev.Row(t);
    if (t > 0) {
      std::copy(cache.h.Row(t - 1), cache.h.Row(t - 1) + h_dim, h_prev);
      std::copy(cache.c.Row(t - 1), cache.c.Row(t - 1) + h_dim,
                c_prev.begin());
    } else {
      std::fill(h_prev, h_prev + h_dim, 0.0f);
      std::fill(c_prev.begin(), c_prev.end(), 0.0f);
    }
    const float* i = cache.i.Row(t);
    const float* f = cache.f.Row(t);
    const float* o = cache.o.Row(t);
    const float* g = cache.g.Row(t);
    const float* tanh_c_t = tls_tanh_c.Row(t);
    const float* gh = grad_h.Row(t);

    float* di_pre = tls_di.Row(t);
    float* df_pre = tls_df.Row(t);
    float* do_pre = tls_do.Row(t);
    float* dg_pre = tls_dg.Row(t);
    for (int k = 0; k < h_dim; ++k) {
      const float dh = gh[k] + dh_next[k];
      const float tanh_c = tanh_c_t[k];
      const float dok = dh * tanh_c;
      const float dc = dh * o[k] * (1.0f - tanh_c * tanh_c) + dc_next[k];
      const float dfk = dc * c_prev[k];
      const float dik = dc * g[k];
      const float dgk = dc * i[k];
      dc_next[k] = dc * f[k];
      di_pre[k] = dik * i[k] * (1.0f - i[k]);
      df_pre[k] = dfk * f[k] * (1.0f - f[k]);
      do_pre[k] = dok * o[k] * (1.0f - o[k]);
      dg_pre[k] = dgk * (1.0f - g[k] * g[k]);
    }

    // Recurrent coupling into dL/dh_{t-1}: dh_next = sum_g U_g^T d_pre_g.
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    const Parameter* const us[] = {&ui_, &uf_, &uo_, &ug_};
    const float* const d_pres[] = {di_pre, df_pre, do_pre, dg_pre};
    for (int gi = 0; gi < 4; ++gi) {
      d_pre.assign(d_pres[gi], d_pres[gi] + h_dim);
      util::MatVecTrans(us[gi]->value, d_pre, &tmp);
      for (int k = 0; k < h_dim; ++k) dh_next[k] += tmp[k];
    }
  }

  // Parameter and input gradients, batched over the whole sequence.
  const struct {
    Parameter* w;
    Parameter* u;
    Parameter* b;
    util::Matrix* d_pre;
  } gates[] = {{&wi_, &ui_, &bi_, &tls_di},
               {&wf_, &uf_, &bf_, &tls_df},
               {&wo_, &uo_, &bo_, &tls_do},
               {&wg_, &ug_, &bg_, &tls_dg}};
  bool first = true;
  for (const auto& gg : gates) {
    util::Gemm(1.0f, *gg.d_pre, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
               &gg.w->grad);
    util::Gemm(1.0f, *gg.d_pre, util::Trans::kYes, tls_hprev,
               util::Trans::kNo, 1.0f, &gg.u->grad);
    float* gb = gg.b->grad.Row(0);
    for (int t = 0; t < t_len; ++t) {
      const float* dp = gg.d_pre->Row(t);
      for (int k = 0; k < h_dim; ++k) gb[k] += dp[k];
    }
    if (grad_x != nullptr) {
      util::Gemm(1.0f, *gg.d_pre, util::Trans::kNo, gg.w->value,
                 util::Trans::kNo, first ? 0.0f : 1.0f, grad_x);
      first = false;
    }
  }
}

}  // namespace lncl::nn
