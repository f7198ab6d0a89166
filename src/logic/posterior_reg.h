#pragma once

#include <vector>

#include "data/dataset.h"
#include "util/matrix.h"

namespace lncl::logic {

// Interface for the paper's pseudo-E-step rule projection: given a truth
// posterior q_a over an instance's items, produce the rule-regularized
// target q_b — the closed-form solution of the posterior-regularization
// problem (Eq. 14), i.e.
//
//   q_b(t) ∝ q_a(t) * exp{ -C * sum_l w_l (1 - v_l(x, t)) }        (Eq. 15)
//
// Implementations decide how rule values v_l couple the items of an
// instance: per-item (sentiment "but" rule) or between adjacent items (NER
// transition rules, computed by dynamic programming).
class RuleProjector {
 public:
  virtual ~RuleProjector() = default;

  // The only projection entry: (*qs)[i], the items x K row-stochastic q_a
  // of *xs[i], is replaced in place by its q_b. Instances are projected
  // independently, so a projection never depends on its batch-mates;
  // projectors whose rule values consult a model (SentimentButRule's
  // clause-B prediction) batch those inner predictions.
  virtual void ProjectBatch(const std::vector<const data::Instance*>& xs,
                            std::vector<util::Matrix>* qs, double C) const = 0;

  // ProjectBatch on a batch of one: returns q_b with q's shape.
  util::Matrix Project(const data::Instance& x, const util::Matrix& q,
                       double C) const;
};

// Trivial projector: q_b = q_a. Used by the w/o-Rule ablation and as the
// "no knowledge" default.
class NullProjector : public RuleProjector {
 public:
  void ProjectBatch(const std::vector<const data::Instance*>&,
                    std::vector<util::Matrix>*, double) const override {}
};

// Row-independent closed form of Eq. 15. penalties(r, k) must hold
// sum_l w_l (1 - v_l(x, t_r = k)) for item r and class k. Rows of the result
// are renormalized; a row whose mass underflows falls back to q's row.
util::Matrix ProjectIndependent(const util::Matrix& q,
                                const util::Matrix& penalties, double C);

// Vector convenience overload (single item).
util::Vector ProjectCategorical(const util::Vector& q,
                                const util::Vector& penalties, double C);

}  // namespace lncl::logic

