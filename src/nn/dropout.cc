#include "nn/dropout.h"
#include "util/check.h"


namespace lncl::nn {

namespace {

void ApplyForward(double rate, util::Rng* rng, float* data, size_t n,
                  std::vector<uint8_t>* mask) {
  mask->assign(n, 1);
  if (rate <= 0.0) return;
  // Draw the whole mask, then apply it: the same draws and values as one
  // fused loop, but the draw loop has no data-dependent branch and the
  // apply loop vectorizes.
  uint8_t* keep = mask->data();
  for (size_t i = 0; i < n; ++i) keep[i] = !(rng->Uniform() < rate);
  const float scale = static_cast<float>(1.0 / (1.0 - rate));
  for (size_t i = 0; i < n; ++i) data[i] = keep[i] ? data[i] * scale : 0.0f;
}

void ApplyBackward(double rate, const std::vector<uint8_t>& mask, float* grad,
                   size_t n) {
  LNCL_DCHECK(mask.size() == n);
  if (rate <= 0.0) return;
  const float scale = static_cast<float>(1.0 / (1.0 - rate));
  for (size_t i = 0; i < n; ++i) {
    grad[i] = mask[i] ? grad[i] * scale : 0.0f;
  }
}

}  // namespace

void DropoutForward(double rate, util::Rng* rng, util::Vector* x,
                    std::vector<uint8_t>* mask) {
  ApplyForward(rate, rng, x->data(), x->size(), mask);
}

void DropoutForward(double rate, util::Rng* rng, util::Matrix* x,
                    std::vector<uint8_t>* mask) {
  ApplyForward(rate, rng, x->data(), x->size(), mask);
}

void DropoutBackward(double rate, const std::vector<uint8_t>& mask,
                     util::Vector* grad) {
  ApplyBackward(rate, mask, grad->data(), grad->size());
}

void DropoutBackward(double rate, const std::vector<uint8_t>& mask,
                     util::Matrix* grad) {
  ApplyBackward(rate, mask, grad->data(), grad->size());
}

}  // namespace lncl::nn
