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
  LNCL_DCHECK(static_cast<int>(items_per_instance.size()) ==
         annotations.num_instances());
  ItemView view;
  view.num_annotators = annotations.num_annotators();
  view.num_classes = annotations.num_classes();
  view.begin.resize(items_per_instance.size() + 1, 0);
  int total = 0;
  for (size_t i = 0; i < items_per_instance.size(); ++i) {
    view.begin[i] = total;
    total += items_per_instance[i];
  }
  view.begin.back() = total;
  view.items.resize(total);
  for (int i = 0; i < annotations.num_instances(); ++i) {
    for (const crowd::AnnotatorLabels& e : annotations.instance(i).entries) {
      LNCL_DCHECK(static_cast<int>(e.labels.size()) == items_per_instance[i]);
      for (size_t t = 0; t < e.labels.size(); ++t) {
        view.items[view.begin[i] + static_cast<int>(t)].labels.emplace_back(
            e.annotator, e.labels[t]);
      }
    }
  }
  return view;
}

std::vector<util::Matrix> UnflattenPosteriors(
    const ItemView& view, const std::vector<util::Vector>& posterior) {
  LNCL_DCHECK(posterior.size() == view.items.size());
  std::vector<util::Matrix> out;
  const int num_instances = static_cast<int>(view.begin.size()) - 1;
  out.reserve(num_instances);
  for (int i = 0; i < num_instances; ++i) {
    const int items = view.begin[i + 1] - view.begin[i];
    util::Matrix m(items, view.num_classes);
    // One data() per matrix: a mutable m(t, k) draws a version ticket.
    float* const md = m.data();
    for (int t = 0; t < items; ++t) {
      const util::Vector& p = posterior[view.begin[i] + t];
      LNCL_DCHECK(static_cast<int>(p.size()) == view.num_classes);
      std::copy_n(p.data(), view.num_classes, md + t * view.num_classes);
    }
    LNCL_AUDIT_SIMPLEX(m);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace lncl::inference
