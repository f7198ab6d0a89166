#include "inference/catd.h"

#include <algorithm>
#include <cmath>

#include "inference/pm.h"
#include "util/stats.h"

namespace lncl::inference {

std::vector<util::Matrix> Catd::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  const int k = view.num_classes;

  std::vector<double> weight(view.num_annotators, 1.0);
  util::Matrix posterior(view.num_items(), k, 1.0f / k);
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    std::vector<double> counts(view.num_annotators, 0.0);
    std::vector<double> distance(view.num_annotators, options_.smoothing);
    WeightedVote(view, weight, posterior.data(), &counts, &distance);
    double max_w = 0.0;
    for (int j = 0; j < view.num_annotators; ++j) {
      if (counts[j] <= 0.0) {
        weight[j] = 0.0;
        continue;
      }
      const double quantile =
          util::ChiSquaredQuantile(options_.alpha / 2.0, counts[j]);
      weight[j] = quantile / distance[j];
      max_w = std::max(max_w, weight[j]);
    }
    if (max_w > 0.0) {
      for (double& w : weight) w /= max_w;  // scale invariance of the vote
    }
  }
  return UnflattenPosteriors(view, posterior);
}

}  // namespace lncl::inference
