#include "logic/sequence_rules.h"

#include <cmath>
#include <vector>

#include "util/chain.h"
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

  // Input rows are unary potentials, not necessarily normalized (the DP
  // renormalizes at every step) — so only finiteness is contracted here;
  // the output marginals below must be exact simplexes.
  for (const util::Matrix& q : *qs) {
    LNCL_DCHECK(q.cols() == k);
    LNCL_AUDIT_FINITE(q);
  }
  // The shared chain smoother under a unit prior, the whole batch in place:
  // prior * q(0, .) is q(0, .) exactly, so these are the marginals of the
  // chain MRF above.
  const util::Vector ones(k, 1.0f);
  util::ChainForwardBackward(ones, psi, *qs, *qs, nullptr);
  // Eqs. 18-19: the forward-backward marginals must come out normalized
  // (each token's row a simplex) and finite.
  for (const util::Matrix& q : *qs) LNCL_AUDIT_SIMPLEX(q);
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
