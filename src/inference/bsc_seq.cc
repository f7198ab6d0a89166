#include "inference/bsc_seq.h"

namespace lncl::inference {

SequenceEmModel BscSeq::model() const {
  return {.previous_label_context = true,
          .prior_pseudo = 0.5f,
          .transition_pseudo = static_cast<float>(options_.transition_pseudo),
          .diag_pseudo = options_.diag_pseudo,
          .confusion_pseudo = options_.confusion_pseudo,
          .max_iters = options_.max_iters,
          .tol = options_.tol};
}

std::vector<util::Matrix> BscSeq::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  util::Parallelizer exec(util::HardwareThreads());
  return RunSequenceEm(annotations, items_per_instance, model(), &exec);
}

}  // namespace lncl::inference
