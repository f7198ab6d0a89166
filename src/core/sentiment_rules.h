#pragma once

#include <vector>

#include "logic/posterior_reg.h"
#include "logic/rule.h"
#include "models/model.h"

namespace lncl::core {

// The paper's "A-but-B" sentiment rule (Eqs. 16-17):
//
//   positive(S) => sigma(clause B)_+        (weight 1)
//   negative(S) => sigma(clause B)_-        (weight 1)
//
// For a sentence containing the contrast conjunction, the rule value of the
// candidate label equals the classifier's probability of that label on
// clause B alone, so the Eq. 15 projection pulls the posterior toward the
// B-clause sentiment. Sentences without the marker are passed through
// unchanged (no grounding is formed).
//
// The projector consults the classifier (`model`), whose parameters evolve
// across the EM-alike epochs — groundings are therefore re-evaluated at
// every projection, as in the paper. Whether a grounding is formed is read
// from the instance's tokens at each call, so an instance may be rewritten
// between projections.
class SentimentButRule : public logic::RuleProjector {
 public:
  // `marker_token`: vocabulary id of the conjunction that activates the rule
  // ("but" for the main method; "however" for the our-other-rules ablation).
  // `weight`: w_l of both rules.
  SentimentButRule(const models::Model* model, int marker_token,
                   double weight = 1.0);

  // Collects the grounded instances' B clauses and runs them through one
  // Model::PredictBatch call; q's of ungrounded instances pass through.
  void ProjectBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* qs, double C) const override;

  // The underlying PSL rules (atoms: 0 = positive(S), 1 = sigma(B)+,
  // 2 = negative(S), 3 = sigma(B)-). Exposed for inspection/tests.
  const logic::RuleSet& rules() const { return rules_; }

 private:
  // Whether x activates the rule: the contrast marker at contrast_index,
  // followed by a non-empty B clause.
  bool GroundingFormed(const data::Instance& x) const;

  // Eq. 15 projection of q given the clause-B prediction pb (1 x 2).
  util::Matrix ApplyRule(const util::Matrix& q, const util::Matrix& pb,
                         double C) const;

  const models::Model* model_;  // not owned
  int marker_token_;
  logic::RuleSet rules_;
};

}  // namespace lncl::core

