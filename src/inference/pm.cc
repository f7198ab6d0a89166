#include "inference/pm.h"

#include <algorithm>
#include <cmath>

namespace lncl::inference {

void WeightedVote(const ItemView& view, const std::vector<double>& weight,
                  float* q, std::vector<double>* labels,
                  std::vector<double>* misses) {
  const int k = view.num_classes;
  for (int i = 0; i < view.num_items(); ++i) {
    float* const qi = q + static_cast<size_t>(i) * k;
    std::fill_n(qi, k, 0.0f);
    double total = 0.0;
    for (const auto& [j, y] : view.item(i)) {
      qi[y] += static_cast<float>(weight[j]);
      total += weight[j];
    }
    if (total <= 0.0) {
      std::fill_n(qi, k, 1.0f / k);
    } else {
      for (int m = 0; m < k; ++m) qi[m] = static_cast<float>(qi[m] / total);
    }
    const int winner = static_cast<int>(std::max_element(qi, qi + k) - qi);
    for (const auto& [j, y] : view.item(i)) {
      (*labels)[j] += 1.0;
      if (y != winner) (*misses)[j] += 1.0;
    }
  }
}

std::vector<util::Matrix> Pm::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  const int k = view.num_classes;

  std::vector<double> weight(view.num_annotators, 1.0);
  util::Matrix posterior(view.num_items(), k, 1.0f / k);
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // Weighted vote tallies; error rates against their hard winners.
    std::vector<double> counts(view.num_annotators, 0.0);
    std::vector<double> mistakes(view.num_annotators, 0.0);
    WeightedVote(view, weight, posterior.data(), &counts, &mistakes);
    for (int j = 0; j < view.num_annotators; ++j) {
      const double err = (mistakes[j] + options_.smoothing) /
                         (counts[j] + 2.0 * options_.smoothing);
      weight[j] = std::max(0.0, std::log((1.0 - err) / err));
    }
  }
  return UnflattenPosteriors(view, posterior);
}

}  // namespace lncl::inference
