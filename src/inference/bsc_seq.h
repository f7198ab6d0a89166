#pragma once

#include "inference/hmm_crowd.h"
#include "inference/truth_inference.h"

namespace lncl::inference {

// Bayesian sequence combination, "seq" worker model (after Simpson &
// Gurevych, 2019). Extends HMM-Crowd in two ways that matter for span
// annotations:
//
//  1. Each annotator's confusion matrix is *conditioned on the annotator's
//     own previous label* (collapsed to the O / inside-an-entity dichotomy),
//     which captures sequential error behavior such as boundary slips —
//     an annotator inside an entity mislabels differently than one in O
//     context.
//  2. All parameters carry Dirichlet priors (MAP point estimates here),
//     echoing BSC's Bayesian treatment and stabilizing the long tail.
//
// Like HMM-Crowd, the latent truth is a first-order chain inferred by
// forward-backward.
class BscSeq : public TruthInference {
 public:
  struct Options {
    int max_iters = 30;
    double confusion_pseudo = 0.3;  // Dirichlet prior on confusion rows
    double diag_pseudo = 1.0;       // extra prior mass on the diagonal
    double transition_pseudo = 0.2;
    double tol = 1e-5;
  };

  BscSeq() = default;
  explicit BscSeq(Options options) : options_(options) {}

  std::string name() const override { return "BSC-seq"; }

  std::vector<util::Matrix> Infer(const crowd::AnnotationSet& annotations,
                                  const std::vector<int>& items_per_instance,
                                  util::Rng* rng) const override;

  // The RunSequenceEm settings of these options.
  SequenceEmModel model() const;

 private:
  Options options_;
};

}  // namespace lncl::inference

