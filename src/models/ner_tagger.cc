#include "models/ner_tagger.h"

#include "obs/metrics.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/softmax.h"
#include "util/check.h"
#include "util/workspace.h"

namespace lncl::models {

NerTagger::NerTagger(const NerTaggerConfig& config,
                     data::EmbeddingPtr embeddings, util::Rng* rng)
    : config_(config),
      embeddings_(std::move(embeddings)),
      conv_("ner.conv", config.conv_window, embeddings_->dim(),
            config.conv_features, nn::Conv1d::Padding::kSame, rng),
      fc_("ner.fc", config.gru_hidden, config.num_classes, rng) {
  if (config_.recurrent == NerTaggerConfig::Recurrent::kGru) {
    gru_ = std::make_unique<nn::Gru>("ner.gru", config.conv_features,
                                     config.gru_hidden, rng);
  } else {
    lstm_ = std::make_unique<nn::Lstm>("ner.lstm", config.conv_features,
                                       config.gru_hidden, rng);
  }
}

void NerTagger::PredictBatch(const std::vector<const data::Instance*>& xs,
                             std::vector<util::Matrix>* out) const {
  out->resize(xs.size());
  if (xs.empty()) return;

  const int k_cls = config_.num_classes;
  util::WorkspaceScope scope;
  util::Matrix& packed = scope.NewMatrix();
  util::Matrix& conv_out = scope.NewMatrix();
  util::Matrix& hidden = scope.NewMatrix();
  util::Matrix& logits = scope.NewMatrix();
  util::Matrix& probs = scope.NewMatrix();

  if (quantized_predict_ && obs::Metrics::enabled()) {
    // Int8 serving visibility: per-call and per-instance volume through the
    // quantized path (the int8 GEMMs themselves count under gemm.int8.*).
    static obs::Counter* const calls =
        obs::Metrics::GetCounter("quantized_predict.calls");
    static obs::Counter* const instances =
        obs::Metrics::GetCounter("quantized_predict.instances");
    calls->Add(1);
    instances->Add(xs.size());
  }

  std::vector<int> tokens;
  for (const LengthBucket& bucket : BucketByLength(xs)) {
    const int t = bucket.length;
    if (t == 0) {
      // An empty instance has no items: a 0 x K prediction.
      for (int m : bucket.members) (*out)[m] = util::Matrix(0, k_cls);
      continue;
    }
    const int batch = static_cast<int>(bucket.members.size());
    if (quantized_predict_ && obs::Metrics::enabled()) {
      // How full the int8 [B, L] blocks run (cap kMaxPredictBatch = 64) —
      // quantized serving throughput depends on this occupancy.
      static obs::Histogram* const occupancy = obs::Metrics::GetHistogram(
          "quantized_predict.bucket_occupancy", {1, 2, 4, 8, 16, 32, 64});
      occupancy->Observe(static_cast<double>(batch));
    }
    tokens.clear();
    for (int m : bucket.members) {
      tokens.insert(tokens.end(), xs[m]->tokens.begin(), xs[m]->tokens.end());
    }
    embeddings_->Lookup(tokens, &packed);
    conv_.ForwardPacked(packed, batch, t, &conv_out, util::Act::kRelu);
    if (gru_ != nullptr) {
      gru_->ForwardPacked(conv_out, batch, t, &hidden);
    } else {
      lstm_->ForwardPacked(conv_out, batch, t, &hidden);
    }
    fc_.ForwardRows(hidden, &logits);
    nn::SoftmaxRows(logits, &probs);
    for (int b = 0; b < batch; ++b) {
      util::Matrix m(t, k_cls);
      std::copy(probs.Row(b * t), probs.Row(b * t) + static_cast<size_t>(t) * k_cls,
                m.Row(0));
      (*out)[bucket.members[b]] = std::move(m);
    }
  }
}

void NerTagger::SetQuantizedPredict(bool on) {
  quantized_predict_ = on;
  conv_.SetQuantized(on);
  fc_.SetQuantized(on);
}

const util::Matrix& NerTagger::ForwardTrain(const data::Instance& x,
                                            util::Rng* rng) {
  embeddings_->Lookup(x.tokens, &cache_.embedded);
  conv_.Forward(cache_.embedded, &cache_.conv_relu, util::Act::kRelu);
  cache_.conv_dropped = cache_.conv_relu;
  nn::DropoutForward(config_.dropout, rng, &cache_.conv_dropped,
                     &cache_.dropout_mask);
  if (gru_ != nullptr) {
    gru_->Forward(cache_.conv_dropped, &cache_.gru, &cache_.hidden);
  } else {
    lstm_->Forward(cache_.conv_dropped, &cache_.lstm, &cache_.hidden);
  }
  util::Matrix logits;
  fc_.ForwardRows(cache_.hidden, &logits);
  nn::SoftmaxRows(logits, &cache_.probs);
  return cache_.probs;
}

void NerTagger::BackwardFromLogits(const util::Matrix& grad_logits) {
  util::Matrix grad_hidden, grad_conv;
  fc_.BackwardRows(cache_.hidden, grad_logits, &grad_hidden);
  if (gru_ != nullptr) {
    gru_->Backward(cache_.conv_dropped, cache_.gru, grad_hidden, &grad_conv);
  } else {
    lstm_->Backward(cache_.conv_dropped, cache_.lstm, grad_hidden,
                    &grad_conv);
  }
  nn::DropoutBackward(config_.dropout, cache_.dropout_mask, &grad_conv);
  nn::ReluBackward(cache_.conv_relu, &grad_conv);
  conv_.Backward(cache_.embedded, grad_conv, nullptr);
}

double NerTagger::BackwardSoftTarget(const util::Matrix& q, float w) {
  LNCL_DCHECK(q.rows() == cache_.probs.rows() &&
              q.cols() == cache_.probs.cols());
  LNCL_AUDIT_SIMPLEX(q);
  util::Matrix grad_logits;
  nn::SoftmaxCrossEntropyGradRows(q, cache_.probs, w, &grad_logits);
  BackwardFromLogits(grad_logits);
  return w * nn::CrossEntropyRows(q, cache_.probs);
}

void NerTagger::BackwardProbGrad(const util::Matrix& grad_probs, float w) {
  LNCL_DCHECK(grad_probs.rows() == cache_.probs.rows());
  util::Matrix grad_logits;
  nn::SoftmaxJacobianVecProductRows(cache_.probs, grad_probs, w, &grad_logits);
  BackwardFromLogits(grad_logits);
}

std::vector<nn::Parameter*> NerTagger::Params() {
  std::vector<nn::Parameter*> params;
  for (nn::Parameter* p : conv_.Params()) params.push_back(p);
  if (gru_ != nullptr) {
    for (nn::Parameter* p : gru_->Params()) params.push_back(p);
  } else {
    for (nn::Parameter* p : lstm_->Params()) params.push_back(p);
  }
  for (nn::Parameter* p : fc_.Params()) params.push_back(p);
  return params;
}

ModelFactory NerTagger::Factory(const NerTaggerConfig& config,
                                data::EmbeddingPtr embeddings) {
  return [config, embeddings](util::Rng* rng) {
    return std::make_unique<NerTagger>(config, embeddings, rng);
  };
}

}  // namespace lncl::models
