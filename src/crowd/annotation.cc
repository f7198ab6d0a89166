#include "crowd/annotation.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace lncl::crowd {

std::vector<long> AnnotationSet::LabelsPerAnnotator() const {
  std::vector<long> counts(num_annotators_, 0);
  for (const InstanceAnnotations& inst : instances_) {
    for (const AnnotatorLabels& e : inst.entries) {
      counts.at(e.annotator) += static_cast<long>(e.labels.size());
    }
  }
  return counts;
}

long AnnotationSet::TotalAnnotations() const {
  long total = 0;
  for (const InstanceAnnotations& inst : instances_) {
    total += inst.NumAnnotators();
  }
  return total;
}

void AnnotationSet::CheckShape(
    const std::vector<int>& items_per_instance) const {
  LNCL_CHECK(items_per_instance.size() == instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    for (const AnnotatorLabels& e : instances_[i].entries) {
      if (e.annotator < 0 || e.annotator >= num_annotators_) {
        util::CheckFailure(__FILE__, __LINE__,
                           "0 <= annotator < num_annotators",
                           "instance " + std::to_string(i) + ": annotator " +
                               std::to_string(e.annotator) +
                               " is outside the pool of " +
                               std::to_string(num_annotators_) +
                               " annotators");
      }
      if (static_cast<int>(e.labels.size()) != items_per_instance[i]) {
        util::CheckFailure(
            __FILE__, __LINE__, "labels.size() == items_per_instance[i]",
            "instance " + std::to_string(i) + ": annotator " +
                std::to_string(e.annotator) + " gave " +
                std::to_string(e.labels.size()) + " labels for " +
                std::to_string(items_per_instance[i]) + " items");
      }
    }
  }
}

void AnnotationSet::FailLabelRange(int i) const {
  for (const AnnotatorLabels& e : instances_.at(i).entries) {
    for (const int y : e.labels) {
      if (y < 0 || y >= num_classes_) {
        util::CheckFailure(__FILE__, __LINE__, "0 <= label < num_classes",
                           "instance " + std::to_string(i) + ": annotator " +
                               std::to_string(e.annotator) + " gave label " +
                               std::to_string(y) + ", outside [0, " +
                               std::to_string(num_classes_) + ")");
      }
    }
  }
  util::CheckFailure(__FILE__, __LINE__, "FailLabelRange",
                     "instance " + std::to_string(i) +
                         " holds no label outside [0, " +
                         std::to_string(num_classes_) + ")");
}

void AnnotationSet::CheckEntries(
    const std::vector<int>& items_per_instance) const {
  CheckShape(items_per_instance);
  // A negative label is above every class as unsigned.
  const auto num_classes = static_cast<unsigned>(num_classes_);
  for (size_t i = 0; i < instances_.size(); ++i) {
    for (const AnnotatorLabels& e : instances_[i].entries) {
      for (const int y : e.labels) {
        if (static_cast<unsigned>(y) >= num_classes) {
          FailLabelRange(static_cast<int>(i));
        }
      }
    }
  }
}

std::vector<util::Matrix> AnnotationSet::MajorityVote(
    const std::vector<int>& items_per_instance) const {
  CheckShape(items_per_instance);
  const auto num_classes = static_cast<unsigned>(num_classes_);
  std::vector<util::Matrix> result;
  result.reserve(instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    const int items = items_per_instance[i];
    util::Matrix q(items, num_classes_);
    // One data() for the whole matrix: a mutable q(t, y) draws a version
    // ticket per call.
    float* const qd = q.data();
    std::vector<int> total(items, 0);
    for (const AnnotatorLabels& e : instances_[i].entries) {
      // The entry's labels are checked before any is counted (a negative
      // label is above every class as unsigned), then read again from L1.
      unsigned top = 0;
      for (int t = 0; t < items; ++t) {
        top = std::max(top, static_cast<unsigned>(e.labels[t]));
      }
      if (items > 0 && top >= num_classes) FailLabelRange(static_cast<int>(i));
      for (int t = 0; t < items; ++t) {
        qd[t * num_classes_ + e.labels[t]] += 1.0f;
        ++total[t];
      }
    }
    for (int t = 0; t < items; ++t) {
      float* const row = qd + t * num_classes_;
      if (total[t] == 0) {
        for (int k = 0; k < num_classes_; ++k) {
          row[k] = 1.0f / static_cast<float>(num_classes_);
        }
      } else {
        const float inv = 1.0f / static_cast<float>(total[t]);
        for (int k = 0; k < num_classes_; ++k) row[k] *= inv;
      }
    }
    LNCL_AUDIT_SIMPLEX(q);
    result.push_back(std::move(q));
  }
  return result;
}

}  // namespace lncl::crowd
