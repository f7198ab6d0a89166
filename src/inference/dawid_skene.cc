#include "inference/dawid_skene.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace lncl::inference {
namespace {

// The E-step of items [b, e): q_i ∝ exp(log_prior + the log-likelihood rows
// of i's labels), summed in label order, written over q; returns the sum of
// |Δq|. K is the class count, or 0 for the run-time view.num_classes
// (kCompiledClasses).
template <int K>
double EStepItems(const ItemView& view, const util::Vector& log_prior,
                  const std::vector<util::Matrix>& log_pis, int b, int e,
                  float* q) {
  const int k = K > 0 ? K : view.num_classes;
  std::array<float, K> fixed{};
  std::vector<float> dynamic(K > 0 ? 0 : k);
  float* const lp = K > 0 ? fixed.data() : dynamic.data();
  double change = 0.0;
  for (int i = b; i < e; ++i) {
    for (int m = 0; m < k; ++m) lp[m] = log_prior[m];
    for (const auto& [j, y] : view.item(i)) {
      const float* const row = log_pis[j].Row(y);
      for (int m = 0; m < k; ++m) lp[m] += row[m];
    }
    const double sum = crowd::ExpShifted(lp, k);
    float* const qi = q + static_cast<size_t>(i) * k;
    for (int m = 0; m < k; ++m) {
      const float v = static_cast<float>(lp[m] / sum);
      change += std::fabs(v - qi[m]);
      qi[m] = v;
    }
  }
  return change;
}

}  // namespace

util::Matrix DawidSkene::Run(const ItemView& view, double diag_pseudo,
                             crowd::ConfusionSet* confusions,
                             util::Parallelizer* exec) const {
  constexpr int kSlots = util::Parallelizer::kSlots;
  const int k = view.num_classes;
  const int num_items = view.num_items();
  const auto e_step = k == kCompiledClasses ? EStepItems<kCompiledClasses>
                                            : EStepItems<0>;
  util::Matrix posterior = MajorityVotePosteriors(view);
  // One data() for the whole run: a mutable Row() draws a version ticket.
  float* const q = posterior.data();

  crowd::ConfusionSet pis(view.num_annotators, crowd::ConfusionMatrix(k, 0.7));
  // One count table per item slot (the E-step's slots), each counting its
  // items in order, merged in slot order.
  std::vector<crowd::ConfusionCounts> slot_counts(
      kSlots, crowd::ConfusionCounts(view.num_annotators, k));
  crowd::ConfusionCounts counts(view.num_annotators, k);
  util::Vector log_prior(k);
  std::array<double, kSlots> slot_delta{};

  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- M-step: confusions + prior from current posteriors. ----
    exec->RunSlots(kSlots, [&](int s) {
      const auto [b, e] = util::Parallelizer::SlotRange(num_items, s, kSlots);
      slot_counts[s].Zero();
      for (int i = b; i < e; ++i) {
        for (const auto& [j, y] : view.item(i)) {
          LNCL_DCHECK(y >= 0 && y < k);
          slot_counts[s].Add(j, y, q + static_cast<size_t>(i) * k);
        }
      }
    });
    counts.Zero();
    for (const crowd::ConfusionCounts& part : slot_counts) {
      counts.AddCounts(part);
    }
    counts.ToConfusions(&pis, diag_pseudo > 0.0 ? diag_pseudo : 0.0,
                        options_.smoothing);
    std::vector<double> class_counts(k, options_.smoothing);
    for (int i = 0; i < num_items; ++i) {
      const float* qi = q + static_cast<size_t>(i) * k;
      for (int m = 0; m < k; ++m) class_counts[m] += qi[m];
    }
    double prior_total = 0.0;
    for (double c : class_counts) prior_total += c;
    for (int m = 0; m < k; ++m) {
      const double prior = class_counts[m] / prior_total;
      log_prior[m] = static_cast<float>(std::log(std::max(prior, 1e-300)));
    }
    const std::vector<util::Matrix> log_pis = crowd::LogConfusions(pis);

    // ---- E-step: posteriors from confusions (log space), per item slot.
    exec->RunSlots(kSlots, [&](int s) {
      const auto [b, e] = util::Parallelizer::SlotRange(num_items, s, kSlots);
      slot_delta[s] = e_step(view, log_prior, log_pis, b, e, q);
    });
    double delta = 0.0;
    for (const double d : slot_delta) delta += d;
    delta /= static_cast<double>(static_cast<size_t>(num_items) * k);
    if (delta < options_.tol) break;
  }

  if (confusions != nullptr) *confusions = pis;
  return posterior;
}

std::vector<util::Matrix> DawidSkene::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  util::Parallelizer exec(util::HardwareThreads());
  return UnflattenPosteriors(view,
                             Run(view, /*diag_pseudo=*/0.0, nullptr, &exec));
}

}  // namespace lncl::inference
