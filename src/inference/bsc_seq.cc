#include "inference/bsc_seq.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "crowd/confusion.h"
#include "util/chain.h"

namespace lncl::inference {

namespace {
// Collapses the annotator's previous label to a binary context:
// 0 = outside any entity (or sentence start), 1 = inside an annotation.
int Context(const std::vector<int>& labels, size_t t) {
  if (t == 0) return 0;
  return labels[t - 1] == 0 ? 0 : 1;
}
}  // namespace

std::vector<util::Matrix> BscSeq::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const int k = annotations.num_classes();
  const int num_instances = annotations.num_instances();
  const int num_annotators = annotations.num_annotators();

  std::vector<util::Matrix> gamma =
      annotations.MajorityVote(items_per_instance);

  util::Vector prior(k, 1.0f / k);
  util::Matrix transition(k, k, 1.0f / k);
  // Context-conditioned confusions: [context][annotator] -> K x K.
  std::array<crowd::ConfusionSet, 2> pis;
  for (crowd::ConfusionSet& set : pis) {
    set.assign(num_annotators, crowd::ConfusionMatrix(k, 0.7));
  }

  // One group of sentences at a time: their emissions and new marginals.
  std::array<util::Matrix, util::kChainLanes> emission;
  std::array<util::Matrix, util::kChainLanes> new_gamma;
  util::Matrix xi_sum(k, k);
  util::Vector lp(k);
  bool have_xi = false;
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- M-step. ----
    util::Vector prior_counts(k, 0.5f);
    util::Matrix trans_counts(k, k,
                              static_cast<float>(options_.transition_pseudo));
    if (have_xi) trans_counts.AddScaled(xi_sum, 1.0f);
    float* const tc = trans_counts.data();
    for (crowd::ConfusionSet& set : pis) {
      for (auto& pi : set) pi.matrix().Zero();
    }
    for (int i = 0; i < num_instances; ++i) {
      const util::Matrix& g = gamma[i];
      if (g.rows() == 0) continue;
      const float* const gd = g.data();
      for (int m = 0; m < k; ++m) prior_counts[m] += gd[m];
      if (!have_xi) {
        for (int t = 0; t + 1 < g.rows(); ++t) {
          const float* g0 = gd + t * k;
          const float* g1 = g0 + k;
          for (int a = 0; a < k; ++a) {
            for (int b = 0; b < k; ++b) tc[a * k + b] += g0[a] * g1[b];
          }
        }
      }
      for (const crowd::AnnotatorLabels& e : annotations.instance(i).entries) {
        float* const counts[2] = {pis[0][e.annotator].matrix().data(),
                                  pis[1][e.annotator].matrix().data()};
        for (size_t t = 0; t < e.labels.size(); ++t) {
          float* const cnt = counts[Context(e.labels, t)];
          const float* gt = gd + t * k;
          const int y = e.labels[t];
          LNCL_DCHECK(y >= 0 && y < k);
          for (int m = 0; m < k; ++m) cnt[m * k + y] += gt[m];
        }
      }
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
    for (crowd::ConfusionSet& set : pis) {
      for (auto& pi : set) {
        float* const cnt = pi.matrix().data();
        for (int m = 0; m < k; ++m) {
          cnt[m * k + m] += static_cast<float>(options_.diag_pseudo);
        }
        pi.NormalizeRows(options_.confusion_pseudo);
      }
    }
    // Const, so the E-step's per-token data() draws no version ticket.
    const std::array<std::vector<util::Matrix>, 2> log_pis = {
        crowd::LogConfusions(pis[0]), crowd::LogConfusions(pis[1])};

    // ---- E-step, kChainLanes sentences per smoother call. ----
    double delta = 0.0;
    long items = 0;
    xi_sum.Zero();
    have_xi = true;
    for (int i0 = 0; i0 < num_instances; i0 += util::kChainLanes) {
      const int group = std::min(util::kChainLanes, num_instances - i0);
      for (int j = 0; j < group; ++j) {
        const int t_len = items_per_instance[i0 + j];
        const std::vector<crowd::AnnotatorLabels>& entries =
            annotations.instance(i0 + j).entries;
        emission[j].ResizeNoZero(t_len, k);
        float* const em = emission[j].data();
        for (int t = 0; t < t_len; ++t) {
          std::fill(lp.begin(), lp.end(), 0.0f);
          for (const crowd::AnnotatorLabels& e : entries) {
            const int c = Context(e.labels, static_cast<size_t>(t));
            const float* log_pi = log_pis[c][e.annotator].data();
            const int y = e.labels[t];
            for (int m = 0; m < k; ++m) lp[m] += log_pi[m * k + y];
          }
          float mx = lp[0];
          for (int m = 1; m < k; ++m) mx = std::max(mx, lp[m]);
          for (int m = 0; m < k; ++m) em[t * k + m] = std::exp(lp[m] - mx);
        }
      }
      util::ChainForwardBackward(prior, transition,
                                 std::span(emission).first(group),
                                 std::span(new_gamma).first(group), &xi_sum);
      for (int j = 0; j < group; ++j) {
        const int t_len = items_per_instance[i0 + j];
        const float* const ng = new_gamma[j].data();
        float* const g = gamma[i0 + j].data();
        for (int idx = 0; idx < t_len * k; ++idx) {
          delta += std::fabs(ng[idx] - g[idx]);
          g[idx] = ng[idx];
        }
        items += t_len;
      }
    }
    if (items > 0 && delta / static_cast<double>(items * k) < options_.tol) {
      break;
    }
  }
  return gamma;
}

}  // namespace lncl::inference
