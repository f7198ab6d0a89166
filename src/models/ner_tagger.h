#pragma once

#include <memory>

#include "data/embedding.h"
#include "models/model.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/lstm.h"

namespace lncl::models {

// The Rodrigues & Pereira (2018) sequence tagger used by the paper for NER:
// static word embeddings, a same-padded width-5 convolution with ReLU,
// dropout, a recurrent layer, and a per-token softmax layer. Widths default
// to a CPU-friendly scale (the paper used 512 conv features and 50 GRU
// units). The recurrent cell is a GRU as in the paper; an LSTM alternative
// is available for the recurrent-cell ablation.
struct NerTaggerConfig {
  enum class Recurrent { kGru, kLstm };

  int conv_window = 5;
  int conv_features = 64;
  int gru_hidden = 32;  // hidden size of the recurrent layer (either cell)
  Recurrent recurrent = Recurrent::kGru;
  double dropout = 0.5;
  int num_classes = 9;
};

class NerTagger : public Model {
 public:
  NerTagger(const NerTaggerConfig& config, data::EmbeddingPtr embeddings,
            util::Rng* rng);

  int num_classes() const override { return config_.num_classes; }
  int NumItems(const data::Instance& x) const override {
    return static_cast<int>(x.tokens.size());
  }

  // Length-bucketed batched prediction: packed embedding gather, one conv
  // GEMM per bucket, time-major batched recurrence, and one fc GEMM over all
  // token rows.
  void PredictBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* out) const override;
  const util::Matrix& ForwardTrain(const data::Instance& x,
                                   util::Rng* rng) override;
  double BackwardSoftTarget(const util::Matrix& q, float w) override;
  void BackwardProbGrad(const util::Matrix& grad_probs, float w) override;
  std::vector<nn::Parameter*> Params() override;
  // Int8 serving: convolution + per-token classifier head. The recurrent
  // cell stays fp32 — quantization error would compound through the
  // sequential state, unlike the feed-forward layers (DESIGN.md §9).
  void SetQuantizedPredict(bool on) override;

  static ModelFactory Factory(const NerTaggerConfig& config,
                              data::EmbeddingPtr embeddings);

 private:
  void BackwardFromLogits(const util::Matrix& grad_logits);

  NerTaggerConfig config_;
  data::EmbeddingPtr embeddings_;
  nn::Conv1d conv_;
  std::unique_ptr<nn::Gru> gru_;    // exactly one of gru_/lstm_ is set
  std::unique_ptr<nn::Lstm> lstm_;
  nn::Linear fc_;
  bool quantized_predict_ = false;  // mirrors the layers' int8 toggle

  struct Cache {
    util::Matrix embedded;     // T x D
    util::Matrix conv_relu;    // T x F (post-ReLU, pre-dropout)
    util::Matrix conv_dropped; // T x F (recurrent-layer input)
    std::vector<uint8_t> dropout_mask;
    nn::Gru::Cache gru;
    nn::Lstm::Cache lstm;
    util::Matrix hidden;       // T x H
    util::Matrix probs;        // T x K
  };
  Cache cache_;
};

}  // namespace lncl::models

