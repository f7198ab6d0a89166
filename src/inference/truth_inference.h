#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crowd/annotation.h"
#include "data/dataset.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::inference {

// Interface for stand-alone truth-inference ("label aggregation") methods:
// estimate a posterior over the latent true label of every item from crowd
// labels alone — no instance features. These populate the "Truth Inference"
// rows of the paper's Tables II/III and feed the two-stage baselines.
class TruthInference {
 public:
  virtual ~TruthInference() = default;

  virtual std::string name() const = 0;

  // Returns per-instance (items x K) row-stochastic posterior estimates.
  // `items_per_instance` gives the item count of every instance (1 for
  // classification, sequence length for tagging).
  //
  // Threads: DS, IBCC, HMM-Crowd and BSC-seq build a util::Parallelizer of
  // util::HardwareThreads() workers per call and join them before
  // returning, so no thread exists before the first call or outlives one;
  // the other aggregators run on the calling thread. Their E-steps and
  // M-step confusion counts run over the same Parallelizer::kSlots fixed
  // item or sentence slots, each slot's sums merged in slot order, so the
  // posteriors are bit-identical for any worker count (DESIGN.md §5). A
  // call from inside a pool job gets workers of its own: a bench whose runs
  // share a pool then runs more threads than cores for that call, with the
  // same bits.
  virtual std::vector<util::Matrix> Infer(
      const crowd::AnnotationSet& annotations,
      const std::vector<int>& items_per_instance, util::Rng* rng) const = 0;
};

using TruthInferencePtr = std::unique_ptr<TruthInference>;

// Item counts of a dataset split, for passing to Infer.
std::vector<int> ItemsPerInstance(const data::Dataset& dataset);

// A flattened view of an annotation set in compressed-row form, holding no
// per-item heap object: one (annotator, label) array of every received
// label, item by item, item `it`'s in [label_begin[it], label_begin[it +
// 1]), instance i's items in [begin[i], begin[i + 1]). An item lists its
// labels in the order of its instance's n entries, so entry p's label at
// token t is labels[label_begin[begin[i]] + t * n + p], n positions after
// the same entry's label at t - 1. Used by every aggregator.
struct ItemView {
  std::vector<std::pair<int, int>> labels;  // (annotator, label)
  std::vector<int> label_begin;             // num_items() + 1 offsets
  std::vector<int> begin;                   // num_instances + 1 offsets
  int num_annotators = 0;
  int num_classes = 0;

  int num_items() const { return static_cast<int>(label_begin.size()) - 1; }
  // Labels of item `it`.
  std::span<const std::pair<int, int>> item(int it) const {
    return {labels.data() + label_begin[it],
            static_cast<size_t>(label_begin[it + 1] - label_begin[it])};
  }
};

// Builds the view; checks the crowd's shape first
// (crowd::AnnotationSet::CheckShape) and its labels' range as it copies
// them (FailLabelRange).
ItemView FlattenItems(const crowd::AnnotationSet& annotations,
                      const std::vector<int>& items_per_instance);

// The class count the EM kernels are compiled for: the NER tag set (BIO
// over four entity types). DawidSkene::Run's E-step and RunSequenceEm's
// emission rows and first transition counts are one template body each over
// a class count K, instantiated for this K and for K = 0, which reads the
// run-time view.num_classes; each run picks its instantiation once. A
// compile-time K lets a kernel keep its K-wide sums in a stack array, in
// registers; both instantiations add the same operands in the same order.
inline constexpr int kCompiledClasses = 9;

// Majority-vote posteriors over the view, one row per item: the floats of
// AnnotationSet::MajorityVote, flat.
util::Matrix MajorityVotePosteriors(const ItemView& view);

// Splits flat (items x K) posteriors into per-instance matrices.
std::vector<util::Matrix> UnflattenPosteriors(const ItemView& view,
                                              const util::Matrix& posterior);

}  // namespace lncl::inference

