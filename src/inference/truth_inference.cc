#include "inference/truth_inference.h"

#include <algorithm>

#include "util/check.h"

namespace lncl::inference {

std::vector<int> ItemsPerInstance(const data::Dataset& dataset) {
  std::vector<int> items(dataset.size());
  for (int i = 0; i < dataset.size(); ++i) items[i] = dataset.NumItems(i);
  return items;
}

ItemView FlattenItems(const crowd::AnnotationSet& annotations,
                      const std::vector<int>& items_per_instance) {
  annotations.CheckShape(items_per_instance);
  const int num_instances = annotations.num_instances();
  ItemView view;
  view.num_annotators = annotations.num_annotators();
  view.num_classes = annotations.num_classes();
  view.begin.resize(num_instances + 1, 0);
  long total_labels = 0;
  for (int i = 0; i < num_instances; ++i) {
    view.begin[i + 1] = view.begin[i] + items_per_instance[i];
    total_labels += static_cast<long>(items_per_instance[i]) *
                    annotations.NumAnnotators(i);
  }
  view.label_begin.resize(view.begin.back() + 1);
  view.labels.resize(total_labels);
  const auto num_classes = static_cast<unsigned>(view.num_classes);
  int at = 0;
  for (int i = 0; i < num_instances; ++i) {
    const std::vector<crowd::AnnotatorLabels>& entries =
        annotations.instance(i).entries;
    const int n = static_cast<int>(entries.size());
    const int first = at;
    // The label range check (AnnotationSet::FailLabelRange): a negative
    // label is above every class as unsigned.
    unsigned top = 0;
    for (int t = 0; t < items_per_instance[i]; ++t) {
      view.label_begin[view.begin[i] + t] = at;
      for (int p = 0; p < n; ++p) {
        const int y = entries[p].labels[t];
        top = std::max(top, static_cast<unsigned>(y));
        view.labels[at + p] = {entries[p].annotator, y};
      }
      at += n;
    }
    if (at > first && top >= num_classes) annotations.FailLabelRange(i);
  }
  view.label_begin.back() = at;
  return view;
}

util::Matrix MajorityVotePosteriors(const ItemView& view) {
  const int k = view.num_classes;
  util::Matrix q(view.num_items(), k);
  // One data() for the whole matrix: a mutable q(t, y) draws a version
  // ticket per call.
  float* const qd = q.data();
  for (int it = 0; it < view.num_items(); ++it) {
    float* const row = qd + static_cast<size_t>(it) * k;
    const std::span<const std::pair<int, int>> labels = view.item(it);
    if (labels.empty()) {
      for (int m = 0; m < k; ++m) row[m] = 1.0f / static_cast<float>(k);
      continue;
    }
    for (const auto& [j, y] : labels) {
      LNCL_DCHECK(y >= 0 && y < k);
      row[y] += 1.0f;
    }
    const float inv = 1.0f / static_cast<float>(labels.size());
    for (int m = 0; m < k; ++m) row[m] *= inv;
  }
  LNCL_AUDIT_SIMPLEX(q);
  return q;
}

std::vector<util::Matrix> UnflattenPosteriors(const ItemView& view,
                                              const util::Matrix& posterior) {
  const int k = view.num_classes;
  LNCL_DCHECK(posterior.rows() == view.num_items() && posterior.cols() == k);
  std::vector<util::Matrix> out;
  const int num_instances = static_cast<int>(view.begin.size()) - 1;
  out.reserve(num_instances);
  for (int i = 0; i < num_instances; ++i) {
    const int items = view.begin[i + 1] - view.begin[i];
    util::Matrix m(items, k);
    std::copy_n(posterior.Row(view.begin[i]), static_cast<size_t>(items) * k,
                m.data());
    LNCL_AUDIT_SIMPLEX(m);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace lncl::inference
