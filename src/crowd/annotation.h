#pragma once

#include <vector>

#include "util/matrix.h"

namespace lncl::crowd {

// Labels contributed by one annotator to one instance. For classification
// `labels` has a single entry; for sequence tasks one entry per token (an
// annotator labels the whole sentence, as in the MTurk datasets).
struct AnnotatorLabels {
  int annotator = 0;
  std::vector<int> labels;
};

// All crowd labels for one instance.
struct InstanceAnnotations {
  std::vector<AnnotatorLabels> entries;

  int NumAnnotators() const { return static_cast<int>(entries.size()); }
};

// Crowd labels for a whole dataset split. This is the noisy supervision the
// learners see; ground truth never flows through this type.
class AnnotationSet {
 public:
  AnnotationSet() = default;
  AnnotationSet(int num_instances, int num_annotators, int num_classes)
      : instances_(num_instances),
        num_annotators_(num_annotators),
        num_classes_(num_classes) {}

  int num_instances() const { return static_cast<int>(instances_.size()); }
  int num_annotators() const { return num_annotators_; }
  int num_classes() const { return num_classes_; }

  InstanceAnnotations& instance(int i) { return instances_.at(i); }
  const InstanceAnnotations& instance(int i) const { return instances_.at(i); }

  // Number of annotators who labeled instance i: num(J^(i)) in the paper.
  int NumAnnotators(int i) const { return instances_.at(i).NumAnnotators(); }

  // Total labels contributed by each annotator (item granularity).
  std::vector<long> LabelsPerAnnotator() const;

  // Total number of (instance, annotator) annotation events.
  long TotalAnnotations() const;

  // Aborts, naming the first offending instance, its annotator and the bad
  // value, unless there is one item count per instance and every entry of
  // instance i has an annotator id in [0, num_annotators) and exactly
  // items_per_instance[i] labels. A crowd read from one file and a corpus
  // from another are paired only here, and a crowd built in code is
  // checked only here and in the label passes below: MajorityVote (so
  // Logic-LNCL's start), the aggregators' flat view
  // (inference::FlattenItems) and CheckEntries check first, so no M-step
  // count table, vote row or per-annotator table is indexed out of range.
  void CheckShape(const std::vector<int>& items_per_instance) const;

  // Aborts naming the first entry of instance i that holds a label outside
  // [0, num_classes), its annotator and the label. The label range is
  // checked in the loops that read every label anyway (MajorityVote and
  // inference::FlattenItems keep a running maximum of an instance's labels
  // as unsigned, which a negative label exceeds too) and this runs only
  // when that maximum reaches num_classes: a pass of its own over the
  // labels costs about 1% of a ner_aggregate round.
  [[noreturn]] void FailLabelRange(int i) const;

  // CheckShape, then a pass over every label that aborts through
  // FailLabelRange at the first instance holding a label outside [0,
  // num_classes). For the readers that index a table by every entry but
  // build no majority vote or flat view first: crowd::EmpiricalConfusions
  // and the CrowdLayer and DL-DN fits.
  void CheckEntries(const std::vector<int>& items_per_instance) const;

  // Per-instance majority-vote distributions: for every instance an
  // (items x K) matrix with the empirical label frequencies (uniform when an
  // item got no labels). This is the paper's Algorithm-1 initialization.
  std::vector<util::Matrix> MajorityVote(
      const std::vector<int>& items_per_instance) const;

 private:
  std::vector<InstanceAnnotations> instances_;
  int num_annotators_ = 0;
  int num_classes_ = 0;
};

}  // namespace lncl::crowd

