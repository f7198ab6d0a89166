#include "inference/glad.h"

#include <algorithm>
#include <cmath>

#include "crowd/confusion.h"

namespace lncl::inference {

namespace {
double SigmoidD(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

Glad::Detailed Glad::RunDetailed(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  const int k = view.num_classes;
  const int num_items = view.num_items();

  std::vector<double> alpha(view.num_annotators, options_.alpha_init);
  std::vector<double> gamma(num_items, 0.0);  // beta = exp(gamma)

  // Posteriors, initialized by majority vote. One data() for the whole run:
  // a mutable Row() draws a version ticket.
  util::Matrix posterior = MajorityVotePosteriors(view);
  float* const q = posterior.data();

  const std::vector<long> labels_per_annotator =
      annotations.LabelsPerAnnotator();

  util::Vector lp(k);
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- M-step: gradient ascent on alpha, gamma. ----
    for (int pass = 0; pass < options_.m_step_passes; ++pass) {
      std::vector<double> g_alpha(view.num_annotators, 0.0);
      std::vector<double> g_gamma(num_items, 0.0);
      for (int i = 0; i < num_items; ++i) {
        const double beta = std::exp(gamma[i]);
        const float* const qi = q + static_cast<size_t>(i) * k;
        for (const auto& [j, y] : view.item(i)) {
          const double s = SigmoidD(alpha[j] * beta);
          const double c = qi[y];  // P(label was correct)
          g_alpha[j] += (c - s) * beta;
          g_gamma[i] += (c - s) * alpha[j] * beta;
        }
      }
      for (int j = 0; j < view.num_annotators; ++j) {
        if (labels_per_annotator[j] == 0) continue;
        alpha[j] += options_.learning_rate * g_alpha[j] /
                    static_cast<double>(labels_per_annotator[j]);
        alpha[j] = std::clamp(alpha[j], -6.0, 6.0);
      }
      for (int i = 0; i < num_items; ++i) {
        const size_t n = view.item(i).size();
        if (n == 0) continue;
        gamma[i] += options_.learning_rate * g_gamma[i] /
                    static_cast<double>(n);
        gamma[i] = std::clamp(gamma[i], -3.0, 3.0);
      }
    }

    // ---- E-step. ----
    double delta = 0.0;
    for (int i = 0; i < num_items; ++i) {
      const double beta = std::exp(gamma[i]);
      std::fill(lp.begin(), lp.end(), 0.0f);
      for (const auto& [j, y] : view.item(i)) {
        const double s =
            std::clamp(SigmoidD(alpha[j] * beta), 1e-6, 1.0 - 1e-6);
        const double log_correct = std::log(s);
        const double log_wrong = std::log((1.0 - s) / (k - 1));
        for (int m = 0; m < k; ++m) {
          lp[m] += static_cast<float>(m == y ? log_correct : log_wrong);
        }
      }
      const double sum = crowd::ExpShifted(lp.data(), k);
      float* const qi = q + static_cast<size_t>(i) * k;
      for (int m = 0; m < k; ++m) {
        const float v = static_cast<float>(lp[m] / sum);
        delta += std::fabs(v - qi[m]);
        qi[m] = v;
      }
    }
    if (delta / std::max(1, num_items * k) < options_.tol) break;
  }

  Detailed out;
  out.posteriors = UnflattenPosteriors(view, posterior);
  out.ability = std::move(alpha);
  out.difficulty.resize(num_items);
  for (int i = 0; i < num_items; ++i) {
    out.difficulty[i] = std::exp(-gamma[i]);
  }
  return out;
}

std::vector<util::Matrix> Glad::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  return RunDetailed(annotations, items_per_instance).posteriors;
}

}  // namespace lncl::inference
