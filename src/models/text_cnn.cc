#include "models/text_cnn.h"

#include <string>

#include "obs/metrics.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/maxpool.h"
#include "nn/softmax.h"
#include "util/check.h"
#include "util/workspace.h"

namespace lncl::models {

TextCnn::TextCnn(const TextCnnConfig& config, data::EmbeddingPtr embeddings,
                 util::Rng* rng)
    : config_(config),
      embeddings_(std::move(embeddings)),
      fc_("cnn.fc",
          static_cast<int>(config.windows.size()) * config.feature_maps,
          config.num_classes, rng) {
  if (config_.trainable_embeddings) {
    trainable_ =
        std::make_unique<nn::Embedding>("cnn.emb", embeddings_->table());
  }
  for (size_t i = 0; i < config_.windows.size(); ++i) {
    convs_.push_back(std::make_unique<nn::Conv1d>(
        "cnn.conv" + std::to_string(config_.windows[i]), config_.windows[i],
        embeddings_->dim(), config_.feature_maps, nn::Conv1d::Padding::kValid,
        rng));
  }
}

void TextCnn::PredictBatch(const std::vector<const data::Instance*>& xs,
                           std::vector<util::Matrix>* out) const {
  out->resize(xs.size());
  if (xs.empty()) return;

  const int f = config_.feature_maps;
  const int feat_dim = static_cast<int>(convs_.size()) * f;
  util::WorkspaceScope scope;
  util::Matrix& feats = scope.NewMatrix(static_cast<int>(xs.size()), feat_dim);
  util::Matrix& packed = scope.NewMatrix();
  util::Matrix& conv_out = scope.NewMatrix();
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

  // data() once: a mutable access draws a version ticket.
  float* const feat_rows = feats.data();
  std::vector<int> tokens;
  for (const LengthBucket& bucket : BucketByLength(xs)) {
    const int batch = static_cast<int>(bucket.members.size());
    const int t = bucket.length;
    if (quantized_predict_ && obs::Metrics::enabled()) {
      // How full the int8 [B, L] blocks run (cap kMaxPredictBatch = 64) —
      // quantized serving throughput depends on this occupancy.
      static obs::Histogram* const occupancy = obs::Metrics::GetHistogram(
          "quantized_predict.bucket_occupancy", {1, 2, 4, 8, 16, 32, 64});
      occupancy->Observe(static_cast<double>(batch));
    }
    // Packed embedding gather: one (batch * t) x D block for the bucket.
    tokens.clear();
    for (int m : bucket.members) {
      tokens.insert(tokens.end(), xs[m]->tokens.begin(), xs[m]->tokens.end());
    }
    if (trainable_ != nullptr) {
      trainable_->Forward(tokens, &packed);
    } else {
      embeddings_->Lookup(tokens, &packed);
    }
    for (size_t wi = 0; wi < convs_.size(); ++wi) {
      convs_[wi]->ForwardPacked(packed, batch, t, &conv_out,
                                util::Act::kRelu);
      const int out_rows = convs_[wi]->OutRows(t);
      for (int b = 0; b < batch; ++b) {
        nn::MaxOverTimeRange(
            conv_out, b * out_rows, (b + 1) * out_rows,
            feat_rows + static_cast<size_t>(bucket.members[b]) * feat_dim +
                static_cast<size_t>(wi) * f);
      }
    }
  }

  // One fc GEMM + softmax over every instance of the batch (rows are
  // independent, so batch-mates never change a row).
  fc_.ForwardRows(feats, &logits);
  nn::SoftmaxRows(logits, &probs);
  const util::Matrix& rows = probs;
  for (size_t i = 0; i < xs.size(); ++i) {
    util::Matrix m(1, config_.num_classes);
    const float* const p = rows.Row(static_cast<int>(i));
    std::copy(p, p + config_.num_classes, m.data());
    (*out)[i] = std::move(m);
  }
}

const util::Matrix& TextCnn::ForwardTrain(const data::Instance& x,
                                          util::Rng* rng) {
  cache_.tokens = x.tokens;
  if (trainable_ != nullptr) {
    trainable_->Forward(x.tokens, &cache_.embedded);
  } else {
    embeddings_->Lookup(x.tokens, &cache_.embedded);
  }
  // resize, not assign: the cached matrices keep their allocations across
  // steps (Resize reuses capacity).
  cache_.conv_post.resize(convs_.size());
  cache_.argmax.resize(convs_.size());
  const int f = config_.feature_maps;
  util::Vector feat(convs_.size() * f, 0.0f);
  util::Vector pooled;
  for (size_t wi = 0; wi < convs_.size(); ++wi) {
    convs_[wi]->Forward(cache_.embedded, &cache_.conv_post[wi],
                        util::Act::kRelu);
    nn::MaxOverTimeForward(cache_.conv_post[wi], &pooled, &cache_.argmax[wi]);
    std::copy(pooled.begin(), pooled.end(),
              feat.begin() + static_cast<long>(wi) * f);
  }
  nn::DropoutForward(config_.dropout, rng, &feat, &cache_.dropout_mask);
  cache_.feat_dropped = feat;

  util::Vector logits, probs;
  fc_.Forward(feat, &logits);
  nn::Softmax(logits, &probs);
  cache_.probs.Resize(1, config_.num_classes);
  std::copy(probs.begin(), probs.end(), cache_.probs.Row(0));
  return cache_.probs;
}

void TextCnn::BackwardFromLogits(const util::Vector& grad_logits) {
  util::Vector grad_feat;
  fc_.Backward(cache_.feat_dropped, grad_logits, &grad_feat);
  nn::DropoutBackward(config_.dropout, cache_.dropout_mask, &grad_feat);

  const int f = config_.feature_maps;
  util::Matrix grad_embedded;
  if (trainable_ != nullptr) {
    grad_embedded.Resize(cache_.embedded.rows(), cache_.embedded.cols());
  }
  util::Matrix grad_x;
  for (size_t wi = 0; wi < convs_.size(); ++wi) {
    util::Vector grad_pooled(grad_feat.begin() + static_cast<long>(wi) * f,
                             grad_feat.begin() + static_cast<long>(wi + 1) * f);
    util::Matrix grad_post;
    nn::MaxOverTimeBackward(cache_.argmax[wi], grad_pooled,
                            cache_.conv_post[wi].rows(), &grad_post);
    nn::ReluBackward(cache_.conv_post[wi], &grad_post);
    convs_[wi]->Backward(cache_.embedded, grad_post,
                         trainable_ != nullptr ? &grad_x : nullptr);
    if (trainable_ != nullptr) grad_embedded.AddScaled(grad_x, 1.0f);
  }
  if (trainable_ != nullptr) {
    trainable_->Backward(cache_.tokens, grad_embedded);
  }
}

double TextCnn::BackwardSoftTarget(const util::Matrix& q, float w) {
  LNCL_DCHECK(q.rows() == 1 && q.cols() == config_.num_classes);
  LNCL_AUDIT_SIMPLEX(q);
  const util::Vector p(cache_.probs.Row(0),
                       cache_.probs.Row(0) + config_.num_classes);
  const util::Vector qv(q.Row(0), q.Row(0) + config_.num_classes);
  util::Vector grad_logits;
  nn::SoftmaxCrossEntropyGrad(qv, p, w, &grad_logits);
  BackwardFromLogits(grad_logits);
  return w * nn::CrossEntropy(qv, p);
}

void TextCnn::BackwardProbGrad(const util::Matrix& grad_probs, float w) {
  LNCL_DCHECK(grad_probs.rows() == 1 && grad_probs.cols() == config_.num_classes);
  const util::Vector p(cache_.probs.Row(0),
                       cache_.probs.Row(0) + config_.num_classes);
  const util::Vector gp(grad_probs.Row(0),
                        grad_probs.Row(0) + config_.num_classes);
  util::Vector grad_logits;
  nn::SoftmaxJacobianVecProduct(p, gp, w, &grad_logits);
  BackwardFromLogits(grad_logits);
}

void TextCnn::SetQuantizedPredict(bool on) {
  // Embeddings stay fp32 (a gather, not a GEMM); convolutions and the
  // classifier head take the int8 path.
  quantized_predict_ = on;
  for (auto& conv : convs_) conv->SetQuantized(on);
  fc_.SetQuantized(on);
}

std::vector<nn::Parameter*> TextCnn::Params() {
  std::vector<nn::Parameter*> params;
  if (trainable_ != nullptr) {
    for (nn::Parameter* p : trainable_->Params()) params.push_back(p);
  }
  for (auto& conv : convs_) {
    for (nn::Parameter* p : conv->Params()) params.push_back(p);
  }
  for (nn::Parameter* p : fc_.Params()) params.push_back(p);
  return params;
}

ModelFactory TextCnn::Factory(const TextCnnConfig& config,
                              data::EmbeddingPtr embeddings) {
  return [config, embeddings](util::Rng* rng) {
    return std::make_unique<TextCnn>(config, embeddings, rng);
  };
}

}  // namespace lncl::models
