#include "data/embedding.h"

#include <algorithm>

namespace lncl::data {

void EmbeddingTable::Lookup(const std::vector<int>& tokens,
                            util::Matrix* out) const {
  out->Resize(static_cast<int>(tokens.size()), dim());
  float* const dst = out->data();
  for (size_t t = 0; t < tokens.size(); ++t) {
    const int id = tokens[t];
    if (id <= 0 || id >= vocab_size()) continue;  // zero row for pad/unknown
    const float* src = table_.Row(id);
    std::copy(src, src + dim(), dst + t * dim());
  }
}

}  // namespace lncl::data
