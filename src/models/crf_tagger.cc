#include "models/crf_tagger.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "nn/dropout.h"
#include "util/chain.h"
#include "util/check.h"
#include "util/logging.h"

namespace lncl::models {

namespace {

double LogSumExp(const std::vector<double>& xs) {
  double mx = xs[0];
  for (double x : xs) mx = std::max(mx, x);
  double s = 0.0;
  for (double x : xs) s += std::exp(x - mx);
  return mx + std::log(s);
}

// log Z of the linear-chain CRF via the log-space forward recursion.
double LogPartition(const util::Matrix& unary, const util::Matrix& transition,
                    const util::Matrix& start) {
  const int t_len = unary.rows();
  const int k = unary.cols();
  std::vector<double> alpha(k), next(k), terms(k);
  for (int m = 0; m < k; ++m) alpha[m] = start(0, m) + unary(0, m);
  for (int t = 1; t < t_len; ++t) {
    for (int b = 0; b < k; ++b) {
      for (int a = 0; a < k; ++a) terms[a] = alpha[a] + transition(a, b);
      next[b] = LogSumExp(terms) + unary(t, b);
    }
    alpha = next;
  }
  return LogSumExp(alpha);
}

}  // namespace

CrfTagger::CrfTagger(const CrfTaggerConfig& config,
                     data::EmbeddingPtr embeddings, util::Rng* rng)
    : config_(config),
      embeddings_(std::move(embeddings)),
      conv_("crf.conv", config.conv_window, embeddings_->dim(),
            config.conv_features, nn::Conv1d::Padding::kSame, rng),
      gru_("crf.gru", config.conv_features, config.gru_hidden, rng),
      fc_("crf.fc", config.gru_hidden, config.num_classes, rng),
      transition_("crf.transition", config.num_classes, config.num_classes),
      start_("crf.start", 1, config.num_classes) {}

void CrfTagger::UnaryForward(const data::Instance& x,
                             util::Matrix* unary) const {
  util::Matrix embedded, conv_out, hidden;
  embeddings_->Lookup(x.tokens, &embedded);
  conv_.Forward(embedded, &conv_out, util::Act::kRelu);
  gru_.ForwardPacked(conv_out, 1, conv_out.rows(), &hidden);
  fc_.ForwardRows(hidden, unary);
}

void CrfTagger::BuildPotentials(const util::Matrix& unary,
                                util::Vector* prior,
                                util::Matrix* transition_potential,
                                util::Matrix* emission) const {
  const int t_len = unary.rows();
  const int k = config_.num_classes;
  // Global shifts keep the exponentials bounded; per-step constants do not
  // change the chain posteriors.
  float start_max = start_.value(0, 0);
  for (int m = 1; m < k; ++m) start_max = std::max(start_max, start_.value(0, m));
  prior->resize(k);
  for (int m = 0; m < k; ++m) {
    (*prior)[m] = std::exp(start_.value(0, m) - start_max);
  }
  float trans_max = transition_.value(0, 0);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      trans_max = std::max(trans_max, transition_.value(a, b));
    }
  }
  transition_potential->Resize(k, k);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      (*transition_potential)(a, b) =
          std::exp(transition_.value(a, b) - trans_max);
    }
  }
  emission->Resize(t_len, k);
  for (int t = 0; t < t_len; ++t) {
    float row_max = unary(t, 0);
    for (int m = 1; m < k; ++m) row_max = std::max(row_max, unary(t, m));
    for (int m = 0; m < k; ++m) {
      (*emission)(t, m) = std::exp(unary(t, m) - row_max);
    }
  }
}

void CrfTagger::PredictBatch(const std::vector<const data::Instance*>& xs,
                             std::vector<util::Matrix>* out) const {
  out->resize(xs.size());
  util::Matrix unary, transition_potential, emission;
  util::Vector prior;
  for (size_t i = 0; i < xs.size(); ++i) {
    UnaryForward(*xs[i], &unary);
    BuildPotentials(unary, &prior, &transition_potential, &emission);
    util::ChainForwardBackward(prior, transition_potential, emission,
                               &(*out)[i], nullptr);
  }
}

std::vector<int> CrfTagger::Decode(const data::Instance& x) const {
  util::Matrix unary;
  UnaryForward(x, &unary);
  util::Vector prior;
  util::Matrix transition_potential, emission;
  BuildPotentials(unary, &prior, &transition_potential, &emission);
  std::vector<int> path;
  util::ChainViterbi(prior, transition_potential, emission, &path);
  return path;
}

const util::Matrix& CrfTagger::ForwardTrain(const data::Instance& x,
                                            util::Rng* rng) {
  embeddings_->Lookup(x.tokens, &cache_.embedded);
  conv_.Forward(cache_.embedded, &cache_.conv_relu, util::Act::kRelu);
  cache_.conv_dropped = cache_.conv_relu;
  nn::DropoutForward(config_.dropout, rng, &cache_.conv_dropped,
                     &cache_.dropout_mask);
  gru_.Forward(cache_.conv_dropped, &cache_.gru, &cache_.hidden);
  fc_.ForwardRows(cache_.hidden, &cache_.unary);
  util::Vector prior;
  util::Matrix transition_potential, emission;
  BuildPotentials(cache_.unary, &prior, &transition_potential, &emission);
  cache_.xi_sum.Resize(config_.num_classes, config_.num_classes);
  util::ChainForwardBackward(prior, transition_potential, emission,
                             &cache_.marginals, &cache_.xi_sum);
  return cache_.marginals;
}

void CrfTagger::BackwardFromUnary(const util::Matrix& grad_unary) {
  util::Matrix grad_hidden, grad_conv;
  fc_.BackwardRows(cache_.hidden, grad_unary, &grad_hidden);
  gru_.Backward(cache_.conv_dropped, cache_.gru, grad_hidden, &grad_conv);
  nn::DropoutBackward(config_.dropout, cache_.dropout_mask, &grad_conv);
  nn::ReluBackward(cache_.conv_relu, &grad_conv);
  conv_.Backward(cache_.embedded, grad_conv, nullptr);
}

double CrfTagger::BackwardSoftTarget(const util::Matrix& q, float w) {
  const int t_len = cache_.unary.rows();
  const int k = config_.num_classes;
  LNCL_DCHECK(q.rows() == t_len && q.cols() == k);
  LNCL_AUDIT_SIMPLEX(q);

  // Harden the target rows into the supervision sequence.
  std::vector<int> y(t_len);
  for (int t = 0; t < t_len; ++t) {
    const float* row = q.Row(t);
    y[t] = static_cast<int>(std::max_element(row, row + k) - row);
  }

  // NLL = log Z - score(y).
  double score = start_.value(0, y[0]);
  for (int t = 0; t < t_len; ++t) {
    score += cache_.unary(t, y[t]);
    if (t > 0) score += transition_.value(y[t - 1], y[t]);
  }
  const double log_z =
      LogPartition(cache_.unary, transition_.value, start_.value);

  // Gradients: (posterior expectation - empirical count).
  util::Matrix grad_unary(t_len, k);
  for (int t = 0; t < t_len; ++t) {
    for (int m = 0; m < k; ++m) {
      grad_unary(t, m) = w * (cache_.marginals(t, m) - (y[t] == m ? 1.0f : 0.0f));
    }
  }
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      transition_.grad(a, b) += w * cache_.xi_sum(a, b);
    }
  }
  for (int t = 1; t < t_len; ++t) {
    transition_.grad(y[t - 1], y[t]) -= w;
  }
  for (int m = 0; m < k; ++m) {
    start_.grad(0, m) +=
        w * (cache_.marginals(0, m) - (y[0] == m ? 1.0f : 0.0f));
  }
  BackwardFromUnary(grad_unary);
  return w * (log_z - score);
}

void CrfTagger::BackwardProbGrad(const util::Matrix&, float) {
  LNCL_CHECK(false &&
             "CrfTagger does not support per-item probability gradients "
             "(crowd-layer training); use NerTagger for that baseline");
}

std::vector<nn::Parameter*> CrfTagger::Params() {
  std::vector<nn::Parameter*> params;
  for (nn::Parameter* p : conv_.Params()) params.push_back(p);
  for (nn::Parameter* p : gru_.Params()) params.push_back(p);
  for (nn::Parameter* p : fc_.Params()) params.push_back(p);
  params.push_back(&transition_);
  params.push_back(&start_);
  return params;
}

ModelFactory CrfTagger::Factory(const CrfTaggerConfig& config,
                                data::EmbeddingPtr embeddings) {
  return [config, embeddings](util::Rng* rng) {
    return std::make_unique<CrfTagger>(config, embeddings, rng);
  };
}

}  // namespace lncl::models
