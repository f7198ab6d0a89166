#include "core/sentiment_rules.h"

#include "data/sentiment_gen.h"
#include "util/check.h"

namespace lncl::core {

using logic::Formula;

SentimentButRule::SentimentButRule(const models::Model* model,
                                   int marker_token, double weight)
    : model_(model), marker_token_(marker_token) {
  // positive(S) -> sigma(B)+ ; negative(S) -> sigma(B)-.
  rules_.Add(Formula::Implies(Formula::Atom(0, "positive(S)"),
                              Formula::Atom(1, "sigmaB+")),
             weight, "but-positive");
  rules_.Add(Formula::Implies(Formula::Atom(2, "negative(S)"),
                              Formula::Atom(3, "sigmaB-")),
             weight, "but-negative");
}

bool SentimentButRule::GroundingFormed(const data::Instance& x) const {
  return x.contrast_index >= 0 &&
         x.contrast_index + 1 < static_cast<int>(x.tokens.size()) &&
         x.tokens[x.contrast_index] == marker_token_;
}

util::Matrix SentimentButRule::ApplyRule(const util::Matrix& q,
                                         const util::Matrix& pb,
                                         double C) const {
  const double pb_pos = pb(0, data::kSentimentPositive);
  const double pb_neg = pb(0, data::kSentimentNegative);

  util::Matrix penalties(1, data::kNumSentimentClasses);
  for (int k = 0; k < data::kNumSentimentClasses; ++k) {
    const double is_pos = k == data::kSentimentPositive ? 1.0 : 0.0;
    const double is_neg = 1.0 - is_pos;
    penalties(0, k) = static_cast<float>(
        rules_.Penalty({is_pos, pb_pos, is_neg, pb_neg}));
  }
  return logic::ProjectIndependent(q, penalties, C);
}

void SentimentButRule::ProjectBatch(
    const std::vector<const data::Instance*>& xs,
    std::vector<util::Matrix>* qs, double C) const {
  LNCL_DCHECK(qs->size() == xs.size());
  std::vector<int> grounded;
  std::vector<data::Instance> clause_b;
  for (size_t i = 0; i < xs.size(); ++i) {
    LNCL_DCHECK((*qs)[i].rows() == 1 &&
                (*qs)[i].cols() == data::kNumSentimentClasses);
    if (GroundingFormed(*xs[i])) {
      grounded.push_back(static_cast<int>(i));
      clause_b.push_back(data::ClauseB(*xs[i]));
    }
  }
  if (grounded.empty()) return;

  // One batched prediction over every grounded B clause.
  std::vector<const data::Instance*> clause_ptrs;
  clause_ptrs.reserve(clause_b.size());
  for (const data::Instance& cb : clause_b) clause_ptrs.push_back(&cb);
  std::vector<util::Matrix> pbs;
  model_->PredictBatch(clause_ptrs, &pbs);

  for (size_t j = 0; j < grounded.size(); ++j) {
    util::Matrix& q = (*qs)[grounded[j]];
    q = ApplyRule(q, pbs[j], C);
  }
}

}  // namespace lncl::core
