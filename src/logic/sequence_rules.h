#pragma once

#include <vector>

#include "logic/posterior_reg.h"
#include "util/matrix.h"

namespace lncl::logic {

// Rule projector for sequence tasks whose rules couple *adjacent* labels
// (the paper's NER transition rules, Eqs. 18-19).
//
// With a per-item factorized q_a and pairwise rule penalties
// pen(a, b) = sum_l w_l (1 - v_l(t_{i-1}=a, t_i=b)), the Eq. 15 solution over
// whole label sequences is a chain MRF:
//
//   q_b(t_1..t_T) ∝ prod_i q_a(t_i) * prod_{i>1} exp(-C * pen(t_{i-1}, t_i))
//
// whose per-token marginals this class computes exactly with the
// forward-backward algorithm of util::ChainForwardBackward (unit prior,
// transition potentials exp(-C * pen)) — the "dynamic programming for
// efficient computation in Equation 15" the paper refers to. Messages are
// renormalized at every step, so sequences of any length are numerically
// safe.
class SequenceRuleProjector : public RuleProjector {
 public:
  // pair_penalty: K x K, entry (a, b) = penalty of transition a -> b.
  explicit SequenceRuleProjector(util::Matrix pair_penalty);

  // Projects each sequence of the batch independently; the tokens of `xs`
  // are not consulted (the rules read only the labels).
  void ProjectBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* qs, double C) const override;

  // Exact (exponential-time) sequence marginals by brute-force enumeration.
  // Test oracle for short sequences only.
  util::Matrix ProjectBruteForce(const util::Matrix& q, double C) const;

  const util::Matrix& pair_penalty() const { return pair_penalty_; }

 private:
  util::Matrix pair_penalty_;
};

}  // namespace lncl::logic

