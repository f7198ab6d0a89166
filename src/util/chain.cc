#include "util/chain.h"
#include "util/check.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace lncl::util {

namespace {

// The smoother's scratch: alpha and beta messages (T x K, row-major) and
// one K (gamma) or K x K (xi) row. It only grows, so once a thread has seen
// its longest chain a call does no heap work. Per thread because the CRF
// tagger runs the smoother from the parallel E-step.
struct ChainScratch {
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> row;
};

void Grow(std::vector<double>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

}  // namespace

void ChainForwardBackward(const Vector& prior,
                          const Matrix& transition,
                          const Matrix& emission, Matrix* gamma,
                          Matrix* xi_sum) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  LNCL_DCHECK(static_cast<int>(prior.size()) == k);
  LNCL_DCHECK(transition.rows() == k && transition.cols() == k);
  gamma->ResizeNoZero(t_len, k);
  if (t_len == 0) return;

  thread_local ChainScratch scratch;
  const size_t kk = static_cast<size_t>(k);
  Grow(&scratch.alpha, t_len * kk);
  Grow(&scratch.beta, t_len * kk);
  Grow(&scratch.row, kk * kk);
  double* const alpha = scratch.alpha.data();
  double* const beta = scratch.beta.data();
  double* const row = scratch.row.data();
  const float* const tr = transition.data();
  const float* const em = emission.data();

  const auto normalize = [k](double* v) {
    double sum = 0.0;
    for (int m = 0; m < k; ++m) sum += v[m];
    if (sum <= 1e-300) {
      for (int m = 0; m < k; ++m) v[m] = 1.0 / k;
    } else {
      for (int m = 0; m < k; ++m) v[m] /= sum;
    }
  };

  // prior * emission is a float product, widened afterwards.
  for (int m = 0; m < k; ++m) alpha[m] = prior[m] * em[m];
  normalize(alpha);
  for (int t = 1; t < t_len; ++t) {
    const double* prev = alpha + (t - 1) * kk;
    double* cur = alpha + t * kk;
    const float* em_t = em + t * kk;
    for (int b = 0; b < k; ++b) {
      double s = 0.0;
      for (int a = 0; a < k; ++a) s += prev[a] * tr[a * kk + b];
      cur[b] = s * em_t[b];
    }
    normalize(cur);
  }
  std::fill_n(beta + (t_len - 1) * kk, kk, 1.0);
  for (int t = t_len - 2; t >= 0; --t) {
    const double* next = beta + (t + 1) * kk;
    const float* em_next = em + (t + 1) * kk;
    double* cur = beta + t * kk;
    for (int a = 0; a < k; ++a) {
      const float* tr_a = tr + a * kk;
      double s = 0.0;
      // transition * emission stays a float product: widening it to double
      // first would change the bits.
      for (int b = 0; b < k; ++b) s += tr_a[b] * em_next[b] * next[b];
      cur[a] = s;
    }
    normalize(cur);
  }

  float* const out = gamma->data();
  for (int t = 0; t < t_len; ++t) {
    const double* al = alpha + t * kk;
    const double* be = beta + t * kk;
    for (int m = 0; m < k; ++m) row[m] = al[m] * be[m];
    normalize(row);
    for (int m = 0; m < k; ++m) out[t * kk + m] = static_cast<float>(row[m]);
  }

  if (xi_sum != nullptr) {
    LNCL_DCHECK(xi_sum->rows() == k && xi_sum->cols() == k);
    float* const xs = xi_sum->data();
    for (int t = 0; t + 1 < t_len; ++t) {
      const double* al = alpha + t * kk;
      const float* em_next = em + (t + 1) * kk;
      const double* be_next = beta + (t + 1) * kk;
      double total = 0.0;
      for (int a = 0; a < k; ++a) {
        for (int b = 0; b < k; ++b) {
          const double v =
              al[a] * tr[a * kk + b] * em_next[b] * be_next[b];
          row[a * kk + b] = v;
          total += v;
        }
      }
      if (total <= 1e-300) continue;
      for (size_t i = 0; i < kk * kk; ++i) {
        xs[i] += static_cast<float>(row[i] / total);
      }
    }
  }
}


void ChainViterbi(const Vector& prior, const Matrix& transition,
                  const Matrix& emission, std::vector<int>* path) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  path->assign(t_len, 0);
  if (t_len == 0) return;
  auto safe_log = [](double v) { return std::log(std::max(v, 1e-300)); };
  std::vector<std::vector<double>> delta(t_len, std::vector<double>(k));
  std::vector<std::vector<int>> back(t_len, std::vector<int>(k, 0));
  for (int m = 0; m < k; ++m) {
    delta[0][m] = safe_log(prior[m]) + safe_log(emission(0, m));
  }
  for (int t = 1; t < t_len; ++t) {
    for (int b = 0; b < k; ++b) {
      double best = -1e300;
      int arg = 0;
      for (int a = 0; a < k; ++a) {
        const double v = delta[t - 1][a] + safe_log(transition(a, b));
        if (v > best) {
          best = v;
          arg = a;
        }
      }
      delta[t][b] = best + safe_log(emission(t, b));
      back[t][b] = arg;
    }
  }
  int cur = 0;
  double best = -1e300;
  for (int m = 0; m < k; ++m) {
    if (delta[t_len - 1][m] > best) {
      best = delta[t_len - 1][m];
      cur = m;
    }
  }
  for (int t = t_len - 1; t >= 0; --t) {
    (*path)[t] = cur;
    cur = back[t][cur];
  }
}

}  // namespace lncl::util
