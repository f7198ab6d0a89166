#include "logic/sequence_rules.h"

#include <cmath>
#include <vector>

#include "util/check.h"

namespace lncl::logic {

SequenceRuleProjector::SequenceRuleProjector(util::Matrix pair_penalty)
    : pair_penalty_(std::move(pair_penalty)) {
  LNCL_CHECK(pair_penalty_.rows() == pair_penalty_.cols());
}

void SequenceRuleProjector::ProjectBatch(
    const std::vector<const data::Instance*>& xs,
    std::vector<util::Matrix>* qs, double C) const {
  LNCL_DCHECK(qs->size() == xs.size());
  const int k = pair_penalty_.rows();
  // Transition potentials psi(a, b) = exp(-C * pen(a, b)).
  util::Matrix psi(k, k);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      psi(a, b) = static_cast<float>(std::exp(-C * pair_penalty_(a, b)));
    }
  }
  LNCL_AUDIT_FINITE(psi);

  auto normalize = [](std::vector<double>* v) {
    double sum = 0.0;
    for (double x : *v) sum += x;
    if (sum <= 1e-300) {
      const double u = 1.0 / static_cast<double>(v->size());
      for (double& x : *v) x = u;
    } else {
      for (double& x : *v) x /= sum;
    }
  };

  for (size_t i = 0; i < qs->size(); ++i) {
    // Read through a const view: mutable element access draws a version
    // ticket per call (util/matrix.h).
    const util::Matrix& q = (*qs)[i];
    const int t_len = q.rows();
    LNCL_DCHECK(q.cols() == k);
    // Input rows are unary potentials, not necessarily normalized (the DP
    // renormalizes at every step) — so only finiteness is contracted here;
    // the output marginals below must be exact simplexes.
    LNCL_AUDIT_FINITE(q);
    if (t_len == 0) continue;

    // Forward pass.
    std::vector<std::vector<double>> alpha(
        t_len, std::vector<double>(k, 0.0));
    for (int c = 0; c < k; ++c) alpha[0][c] = q(0, c);
    normalize(&alpha[0]);
    for (int t = 1; t < t_len; ++t) {
      for (int b = 0; b < k; ++b) {
        double s = 0.0;
        for (int a = 0; a < k; ++a) s += alpha[t - 1][a] * psi(a, b);
        alpha[t][b] = q(t, b) * s;
      }
      normalize(&alpha[t]);
    }

    // Backward pass.
    std::vector<std::vector<double>> beta(t_len, std::vector<double>(k, 1.0));
    for (int t = t_len - 2; t >= 0; --t) {
      for (int a = 0; a < k; ++a) {
        double s = 0.0;
        for (int b = 0; b < k; ++b) {
          s += psi(a, b) * q(t + 1, b) * beta[t + 1][b];
        }
        beta[t][a] = s;
      }
      normalize(&beta[t]);
    }

    util::Matrix out(t_len, k);
    for (int t = 0; t < t_len; ++t) {
      std::vector<double> marg(k);
      for (int c = 0; c < k; ++c) marg[c] = alpha[t][c] * beta[t][c];
      normalize(&marg);
      for (int c = 0; c < k; ++c) out(t, c) = static_cast<float>(marg[c]);
    }
    // Eqs. 18-19: the forward-backward marginals must come out normalized
    // (each token's row a simplex) and finite.
    LNCL_AUDIT_SIMPLEX(out);
    (*qs)[i] = std::move(out);
  }
}

util::Matrix SequenceRuleProjector::ProjectBruteForce(const util::Matrix& q,
                                                      double C) const {
  const int t_len = q.rows();
  const int k = q.cols();
  util::Matrix out(t_len, k);
  if (t_len == 0) return out;

  std::vector<int> assign(t_len, 0);
  std::vector<double> marg(static_cast<size_t>(t_len) * k, 0.0);
  double total = 0.0;
  for (;;) {
    double w = 1.0;
    for (int t = 0; t < t_len; ++t) {
      w *= q(t, assign[t]);
      if (t > 0) w *= std::exp(-C * pair_penalty_(assign[t - 1], assign[t]));
    }
    total += w;
    for (int t = 0; t < t_len; ++t) {
      marg[static_cast<size_t>(t) * k + assign[t]] += w;
    }
    // Next assignment (odometer).
    int pos = t_len - 1;
    while (pos >= 0 && ++assign[pos] == k) {
      assign[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  for (int t = 0; t < t_len; ++t) {
    for (int c = 0; c < k; ++c) {
      out(t, c) = total > 0.0
                      ? static_cast<float>(
                            marg[static_cast<size_t>(t) * k + c] / total)
                      : 1.0f / static_cast<float>(k);
    }
  }
  return out;
}

}  // namespace lncl::logic
