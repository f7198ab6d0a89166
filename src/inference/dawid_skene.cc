#include "inference/dawid_skene.h"

#include <algorithm>
#include <cmath>

namespace lncl::inference {

namespace {

// Majority-vote initialization over the flat item view.
std::vector<util::Vector> MvInit(const ItemView& view) {
  std::vector<util::Vector> q(view.items.size());
  for (size_t i = 0; i < view.items.size(); ++i) {
    q[i].assign(view.num_classes, 0.0f);
    if (view.items[i].labels.empty()) {
      for (float& v : q[i]) v = 1.0f / view.num_classes;
      continue;
    }
    for (const auto& [j, y] : view.items[i].labels) {
      (void)j;
      q[i][y] += 1.0f;
    }
    const float inv = 1.0f / static_cast<float>(view.items[i].labels.size());
    for (float& v : q[i]) v *= inv;
  }
  return q;
}

}  // namespace

std::vector<util::Vector> DawidSkene::Run(
    const ItemView& view, double diag_pseudo,
    crowd::ConfusionSet* confusions) const {
  const int k = view.num_classes;
  std::vector<util::Vector> q = MvInit(view);

  crowd::ConfusionSet pis(view.num_annotators, crowd::ConfusionMatrix(k, 0.7));
  // pis[j]'s storage, taken once per M-step rather than per count added.
  std::vector<float*> counts(view.num_annotators);
  std::vector<double> prior(k, 1.0 / k);
  util::Vector log_prior(k);
  util::Vector lp(k);

  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- M-step: confusions + prior from current posteriors. ----
    for (size_t j = 0; j < pis.size(); ++j) {
      pis[j].matrix().Zero();
      counts[j] = pis[j].matrix().data();
    }
    std::vector<double> class_counts(k, options_.smoothing);
    for (size_t i = 0; i < view.items.size(); ++i) {
      const float* qi = q[i].data();
      for (int m = 0; m < k; ++m) class_counts[m] += qi[m];
      for (const auto& [j, y] : view.items[i].labels) {
        LNCL_DCHECK(y >= 0 && y < k);
        float* c = counts[j];
        for (int m = 0; m < k; ++m) c[m * k + y] += qi[m];
      }
    }
    if (diag_pseudo > 0.0) {
      for (float* c : counts) {
        for (int m = 0; m < k; ++m) {
          c[m * k + m] += static_cast<float>(diag_pseudo);
        }
      }
    }
    for (auto& pi : pis) pi.NormalizeRows(options_.smoothing);
    double prior_total = 0.0;
    for (double c : class_counts) prior_total += c;
    for (int m = 0; m < k; ++m) prior[m] = class_counts[m] / prior_total;
    const std::vector<util::Matrix> log_pis = crowd::LogConfusions(pis);
    for (int m = 0; m < k; ++m) {
      log_prior[m] = static_cast<float>(std::log(std::max(prior[m], 1e-300)));
    }

    // ---- E-step: posteriors from confusions (log space). ----
    double delta = 0.0;
    for (size_t i = 0; i < view.items.size(); ++i) {
      lp = log_prior;
      for (const auto& [j, y] : view.items[i].labels) {
        const float* log_pi = log_pis[j].data();
        for (int m = 0; m < k; ++m) lp[m] += log_pi[m * k + y];
      }
      float mx = lp[0];
      for (int m = 1; m < k; ++m) mx = std::max(mx, lp[m]);
      double sum = 0.0;
      for (int m = 0; m < k; ++m) {
        lp[m] = std::exp(lp[m] - mx);
        sum += lp[m];
      }
      float* qi = q[i].data();
      for (int m = 0; m < k; ++m) {
        const float v = static_cast<float>(lp[m] / sum);
        delta += std::fabs(v - qi[m]);
        qi[m] = v;
      }
    }
    delta /= static_cast<double>(view.items.size() * k);
    if (delta < options_.tol) break;
  }

  if (confusions != nullptr) *confusions = pis;
  return q;
}

std::vector<util::Matrix> DawidSkene::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  return UnflattenPosteriors(view, Run(view, /*diag_pseudo=*/0.0, nullptr));
}

}  // namespace lncl::inference
