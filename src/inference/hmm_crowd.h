#pragma once

#include "inference/truth_inference.h"
#include "util/threadpool.h"

namespace lncl::inference {

// The sequence EM of HMM-Crowd, which BSC-seq (bsc_seq.h) runs too: MV
// initial marginals; M-step counts of prior, transitions (adjacent-marginal
// products, then the smoother's xi) and confusions, each plus its
// pseudo-count; E-step emissions smoothed kChainLanes sentences per call.
// The two models differ only in these fields.
struct SequenceEmModel {
  // BSC-seq: a label's confusion table depends on the annotator's own
  // previous label (O or sentence start vs. any other tag).
  bool previous_label_context = false;
  float prior_pseudo = 0.0f;
  float transition_pseudo = 0.0f;
  double diag_pseudo = 0.0;       // added to every confusion diagonal
  double confusion_pseudo = 0.0;  // NormalizeRows smoothing
  int max_iters = 0;
  double tol = 0.0;  // stop once the mean |change| of gamma falls below
};

// Runs the sequence EM on `exec` over kSlots fixed sentence slots. The
// E-step smooths each slot's sentences with the slot's own xi sum; the
// M-step counts each slot's confusion soft-labels (entry by entry within a
// sentence) into a table of its own; both merge in slot order. The prior
// and transition counts stay on the calling thread. The posteriors are
// bit-identical for any worker count. The emission rows and the first
// iteration's transition products run at a compile-time K for K =
// kCompiledClasses.
std::vector<util::Matrix> RunSequenceEm(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, const SequenceEmModel& model,
    util::Parallelizer* exec);

// HMM-Crowd (Nguyen et al., 2017): sequence-aware crowd aggregation. The
// latent true tag sequence follows a first-order Markov chain (initial
// distribution + transition matrix shared across sentences), and each
// annotator emits labels through a per-annotator confusion matrix at every
// token. EM alternates exact forward-backward smoothing (E) with
// closed-form count updates (M).
class HmmCrowd : public TruthInference {
 public:
  struct Options {
    int max_iters = 30;
    double smoothing = 0.1;  // Dirichlet pseudo-counts in all M-step updates
    double tol = 1e-5;
  };

  HmmCrowd() = default;
  explicit HmmCrowd(Options options) : options_(options) {}

  std::string name() const override { return "HMM-Crowd"; }

  std::vector<util::Matrix> Infer(const crowd::AnnotationSet& annotations,
                                  const std::vector<int>& items_per_instance,
                                  util::Rng* rng) const override;

  // The RunSequenceEm settings of these options.
  SequenceEmModel model() const;

 private:
  Options options_;
};

}  // namespace lncl::inference
