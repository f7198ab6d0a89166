#pragma once

#include "inference/truth_inference.h"

namespace lncl::inference {

// PM (Aydin et al., 2014): heuristic iterative weighted voting. Annotator
// weights and truth estimates are alternately refined:
//
//   truth_i  = argmax_k sum_j w_j [y_ij = k]           (weighted vote)
//   err_j    = smoothed fraction of j's labels that disagree with truth
//   w_j      = log((1 - err_j) / err_j), floored at 0  (log-odds weighting)
//
// The returned posteriors are the normalized weighted vote tallies of the
// final iteration, so downstream consumers get soft estimates.
class Pm : public TruthInference {
 public:
  struct Options {
    int max_iters = 20;
    double smoothing = 0.5;  // pseudo-counts in the error-rate estimate
  };

  Pm() = default;
  explicit Pm(Options options) : options_(options) {}

  std::string name() const override { return "PM"; }

  std::vector<util::Matrix> Infer(const crowd::AnnotationSet& annotations,
                                  const std::vector<int>& items_per_instance,
                                  util::Rng* rng) const override;

 private:
  Options options_;
};

// One weighted-vote round, shared with CATD: each item's row of q (items x
// K) becomes its weight-normalized label tallies (uniform where the
// weights sum to 0); then, against the row's argmax (the lowest class on
// ties), every label of annotator j adds 1 to (*labels)[j], and 1 to
// (*misses)[j] when it disagrees.
void WeightedVote(const ItemView& view, const std::vector<double>& weight,
                  float* q, std::vector<double>* labels,
                  std::vector<double>* misses);

}  // namespace lncl::inference

