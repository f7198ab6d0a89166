#pragma once

#include "crowd/confusion.h"
#include "inference/truth_inference.h"
#include "util/threadpool.h"

namespace lncl::inference {

// Dawid & Skene (1979): EM over latent item truths with per-annotator
// confusion matrices and a shared class prior.
//
//   E: q_i(k) ∝ prior(k) * prod_{(j, y) in labels(i)} pi^j(k, y)
//   M: pi^j(m, n) ∝ sum_i q_i(m) [y_ij = n];  prior(k) ∝ sum_i q_i(k)
//
// `smoothing` is the additive pseudo-count applied in the M-step (0 gives
// plain maximum likelihood; IBCC builds on this with a Dirichlet MAP prior).
class DawidSkene : public TruthInference {
 public:
  struct Options {
    int max_iters = 50;
    double tol = 1e-5;        // mean |Δq| convergence threshold
    double smoothing = 1e-2;  // M-step additive smoothing
  };

  DawidSkene() = default;
  explicit DawidSkene(Options options) : options_(options) {}

  std::string name() const override { return "DS"; }

  std::vector<util::Matrix> Infer(const crowd::AnnotationSet& annotations,
                                  const std::vector<int>& items_per_instance,
                                  util::Rng* rng) const override;

  // Core EM on a flattened item view, returning the (items x K)
  // posteriors. Exposed for reuse by IBCC and the tests; fills `confusions`
  // with the final annotator estimates when non-null. `diag_pseudo` adds
  // extra pseudo-counts on the confusion diagonal (IBCC's informative
  // prior); 0 disables. Runs on `exec` over its kSlots fixed item slots:
  // the E-step writes each slot's posterior rows, and the M-step counts each
  // slot's labels into a confusion-count table of its own, the tables
  // merged in slot order; the posteriors are bit-identical for any worker
  // count. The E-step's row sums run at a compile-time K for K =
  // kCompiledClasses.
  util::Matrix Run(const ItemView& view, double diag_pseudo,
                   crowd::ConfusionSet* confusions,
                   util::Parallelizer* exec) const;

 private:
  Options options_;
};

}  // namespace lncl::inference

