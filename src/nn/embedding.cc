#include "nn/embedding.h"
#include "util/check.h"

#include <algorithm>

namespace lncl::nn {

Embedding::Embedding(const std::string& name, const util::Matrix& init)
    : table_(name + ".table", init.rows(), init.cols()) {
  table_.value = init;
}

void Embedding::Forward(const std::vector<int>& tokens,
                        util::Matrix* out) const {
  out->Resize(static_cast<int>(tokens.size()), dim());
  float* const dst = out->data();
  for (size_t t = 0; t < tokens.size(); ++t) {
    const int id = tokens[t];
    if (id <= 0 || id >= vocab_size()) continue;
    const float* src = table_.value.Row(id);
    std::copy(src, src + dim(), dst + t * dim());
  }
}

void Embedding::Backward(const std::vector<int>& tokens,
                         const util::Matrix& grad_out) {
  LNCL_DCHECK(grad_out.rows() == static_cast<int>(tokens.size()));
  LNCL_DCHECK(grad_out.cols() == dim());
  float* const grad = table_.grad.data();
  for (size_t t = 0; t < tokens.size(); ++t) {
    const int id = tokens[t];
    if (id <= 0 || id >= vocab_size()) continue;
    float* dst = grad + static_cast<size_t>(id) * dim();
    const float* src = grad_out.Row(static_cast<int>(t));
    for (int d = 0; d < dim(); ++d) dst[d] += src[d];
  }
}

}  // namespace lncl::nn
