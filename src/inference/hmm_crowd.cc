#include "inference/hmm_crowd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "crowd/confusion.h"
#include "util/chain.h"

namespace lncl::inference {
namespace {

// The emissions of sentences first, first + 1, ...: emission[j] gets one
// row per token of sentence first + j, the log-likelihood rows of the
// token's labels summed from 0 in label order (each label's row picked by
// table(label, t, labels of the token)), then exponentiated with a per-row
// shift. K is the class count, or 0 for the run-time view.num_classes
// (kCompiledClasses).
template <int K, typename Table>
void EmissionRows(const ItemView& view,
                  const std::vector<util::Matrix>& log_pis, const Table& table,
                  int first, std::span<util::Matrix> emission) {
  const int k = K > 0 ? K : view.num_classes;
  std::array<float, K> fixed{};
  std::vector<float> dynamic(K > 0 ? 0 : k);
  float* const lp = K > 0 ? fixed.data() : dynamic.data();
  for (int j = 0; j < static_cast<int>(emission.size()); ++j) {
    const int item0 = view.begin[first + j];
    const int t_len = view.begin[first + j + 1] - item0;
    emission[j].ResizeNoZero(t_len, k);
    float* const em = emission[j].data();
    for (int t = 0; t < t_len; ++t) {
      const int begin = view.label_begin[item0 + t];
      const int end = view.label_begin[item0 + t + 1];
      for (int m = 0; m < k; ++m) lp[m] = 0.0f;
      for (int l = begin; l < end; ++l) {
        const float* const row =
            log_pis[table(l, t, end - begin)].Row(view.labels[l].second);
        for (int m = 0; m < k; ++m) lp[m] += row[m];
      }
      crowd::ExpShifted(lp, k);
      std::copy_n(lp, k, em + t * k);
    }
  }
}

// The first iteration's transition counts, before any exact pairwise
// posterior exists: tc(a, b) += gamma_t(a) * gamma_{t+1}(b) over every
// adjacent token pair of every sentence, in sentence and token order. K is
// the class count, or 0 for the run-time view.num_classes.
template <int K>
void AdjacentProducts(const ItemView& view, const float* gamma, float* tc) {
  const int k = K > 0 ? K : view.num_classes;
  std::array<float, K * K> fixed{};
  std::vector<float> dynamic(K > 0 ? 0 : k * k);
  float* const acc = K > 0 ? fixed.data() : dynamic.data();
  std::copy_n(tc, k * k, acc);
  for (int i = 0; i + 1 < static_cast<int>(view.begin.size()); ++i) {
    const float* const gd = gamma + static_cast<size_t>(view.begin[i]) * k;
    const int t_len = view.begin[i + 1] - view.begin[i];
    for (int t = 0; t + 1 < t_len; ++t) {
      const float* const g0 = gd + t * k;
      const float* const g1 = g0 + k;
      for (int a = 0; a < k; ++a) {
        for (int b = 0; b < k; ++b) acc[a * k + b] += g0[a] * g1[b];
      }
    }
  }
  std::copy_n(acc, k * k, tc);
}

}  // namespace

std::vector<util::Matrix> RunSequenceEm(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, const SequenceEmModel& model,
    util::Parallelizer* exec) {
  constexpr int kSlots = util::Parallelizer::kSlots;
  const ItemView view = FlattenItems(annotations, items_per_instance);
  const int k = view.num_classes;
  // Marginals, one row per token, initialized by majority vote. One data()
  // for the whole run: a mutable Row() draws a version ticket.
  util::Matrix marginals = MajorityVotePosteriors(view);
  float* const gamma = marginals.data();
  const int num_instances = annotations.num_instances();
  const int num_annotators = view.num_annotators;
  const std::pair<int, int>* const labels = view.labels.data();
  // Table of label e at token t of a sentence with n entries: annotator
  // a's, or with the context split a's "inside" table, num_annotators + a,
  // when the entry's previous label (n back) is not O. Branch-free: the
  // previous label is a data-dependent O/entity pattern.
  const int inside = model.previous_label_context ? num_annotators : 0;
  const auto table = [&](int e, int t, int n) {
    const int prev = labels[t > 0 ? e - n : e].second;
    return labels[e].first + ((t > 0) & (prev != 0)) * inside;
  };

  util::Vector prior(k, 1.0f / k);
  util::Matrix transition(k, k, 1.0f / k);
  const int tables = (model.previous_label_context ? 2 : 1) * num_annotators;
  crowd::ConfusionSet pis(tables, crowd::ConfusionMatrix(k, 0.7));
  // One count table per sentence slot (the E-step's slots), each counting
  // its sentences in order, merged in slot order.
  std::vector<crowd::ConfusionCounts> slot_counts(
      kSlots, crowd::ConfusionCounts(tables, k));
  crowd::ConfusionCounts counts(tables, k);
  const bool fixed_k = k == kCompiledClasses;
  const auto emission_rows =
      fixed_k ? EmissionRows<kCompiledClasses, decltype(table)>
              : EmissionRows<0, decltype(table)>;

  // Per E-step slot: one group of its sentences at a time (their emissions
  // and new marginals), its xi sum and its change of gamma.
  std::array<std::array<util::Matrix, util::kChainLanes>, kSlots> emission;
  std::array<std::array<util::Matrix, util::kChainLanes>, kSlots> new_gamma;
  std::array<util::Matrix, kSlots> slot_xi;
  std::array<double, kSlots> slot_delta{};
  util::Matrix xi_sum(k, k);
  bool have_xi = false;
  for (int iter = 0; iter < model.max_iters; ++iter) {
    // ---- M-step from current marginals. ----
    util::Vector prior_counts(k, model.prior_pseudo);
    util::Matrix trans_counts(k, k, model.transition_pseudo);
    if (have_xi) trans_counts.AddScaled(xi_sum, 1.0f);
    float* const tc = trans_counts.data();
    for (int i = 0; i < num_instances; ++i) {
      if (items_per_instance[i] == 0) continue;
      const float* const gd = gamma + static_cast<size_t>(view.begin[i]) * k;
      for (int m = 0; m < k; ++m) prior_counts[m] += gd[m];
    }
    // On the first iteration no exact pairwise posteriors exist yet, so
    // approximate transition counts with products of adjacent marginals;
    // later iterations use the xi counts from ChainForwardBackward.
    if (!have_xi) {
      (fixed_k ? AdjacentProducts<kCompiledClasses>
               : AdjacentProducts<0>)(view, gamma, tc);
    }
    exec->RunSlots(kSlots, [&](int s) {
      const auto [b, e] =
          util::Parallelizer::SlotRange(num_instances, s, kSlots);
      slot_counts[s].Zero();
      for (int i = b; i < e; ++i) {
        const int t_len = items_per_instance[i];
        if (t_len == 0) continue;
        const float* const gd =
            gamma + static_cast<size_t>(view.begin[i]) * k;
        // Entry by entry, then token by token, so a count cell takes its
        // adds in the same order when an annotator labels a sentence twice.
        const int first = view.label_begin[view.begin[i]];
        const int n = view.label_begin[view.begin[i] + 1] - first;
        for (int p = 0; p < n; ++p) {
          for (int t = 0; t < t_len; ++t) {
            const int l = first + t * n + p;
            LNCL_DCHECK(labels[l].second >= 0 && labels[l].second < k);
            slot_counts[s].Add(table(l, t, n), labels[l].second, gd + t * k);
          }
        }
      }
    });
    counts.Zero();
    for (const crowd::ConfusionCounts& part : slot_counts) {
      counts.AddCounts(part);
    }
    double prior_total = 0.0;
    for (float c : prior_counts) prior_total += c;
    for (int m = 0; m < k; ++m) {
      prior[m] = static_cast<float>(prior_counts[m] / prior_total);
    }
    for (int a = 0; a < k; ++a) {
      const float* tc_a = tc + a * k;
      float* tr_a = transition.Row(a);
      double row_total = 0.0;
      for (int b = 0; b < k; ++b) row_total += tc_a[b];
      for (int b = 0; b < k; ++b) {
        tr_a[b] = static_cast<float>(tc_a[b] / row_total);
      }
    }
    counts.ToConfusions(&pis, model.diag_pseudo, model.confusion_pseudo);
    // Const, so the E-step's per-token Row() reads draw no version ticket.
    const std::vector<util::Matrix> log_pis = crowd::LogConfusions(pis);

    // ---- E-step: exact smoothing per sentence slot, kChainLanes sentences
    // per call. ----
    exec->RunSlots(kSlots, [&](int s) {
      const auto [b, e] =
          util::Parallelizer::SlotRange(num_instances, s, kSlots);
      slot_xi[s].Resize(k, k);
      double change = 0.0;
      for (int i0 = b; i0 < e; i0 += util::kChainLanes) {
        const int group = std::min(util::kChainLanes, e - i0);
        emission_rows(view, log_pis, table, i0,
                      std::span(emission[s]).first(group));
        util::ChainForwardBackward(prior, transition,
                                   std::span(emission[s]).first(group),
                                   std::span(new_gamma[s]).first(group),
                                   &slot_xi[s]);
        for (int j = 0; j < group; ++j) {
          const int t_len = items_per_instance[i0 + j];
          const float* const ng = new_gamma[s][j].data();
          float* const g =
              gamma + static_cast<size_t>(view.begin[i0 + j]) * k;
          for (int idx = 0; idx < t_len * k; ++idx) {
            change += std::fabs(ng[idx] - g[idx]);
            g[idx] = ng[idx];
          }
        }
      }
      slot_delta[s] = change;
    });
    xi_sum.Zero();
    for (const util::Matrix& xi : slot_xi) xi_sum.AddScaled(xi, 1.0f);
    have_xi = true;
    double delta = 0.0;
    for (const double d : slot_delta) delta += d;
    const long items = view.num_items();
    if (items > 0 && delta / static_cast<double>(items * k) < model.tol) {
      break;
    }
  }
  return UnflattenPosteriors(view, marginals);
}

SequenceEmModel HmmCrowd::model() const {
  const auto smoothing = static_cast<float>(options_.smoothing);
  return {.previous_label_context = false,
          .prior_pseudo = smoothing,
          .transition_pseudo = smoothing,
          .diag_pseudo = 0.0,
          .confusion_pseudo = options_.smoothing,
          .max_iters = options_.max_iters,
          .tol = options_.tol};
}

std::vector<util::Matrix> HmmCrowd::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  util::Parallelizer exec(util::HardwareThreads());
  return RunSequenceEm(annotations, items_per_instance, model(), &exec);
}

}  // namespace lncl::inference
