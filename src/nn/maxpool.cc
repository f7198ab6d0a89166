#include "nn/maxpool.h"

#include <algorithm>

#include "util/check.h"

namespace lncl::nn {

void MaxOverTimeForward(const util::Matrix& x, util::Vector* out,
                        std::vector<int>* argmax) {
  const int t = x.rows();
  const int f = x.cols();
  LNCL_DCHECK(t > 0);
  out->assign(x.Row(0), x.Row(0) + f);
  argmax->assign(f, 0);
  float* const best = out->data();
  int* const best_r = argmax->data();
  for (int r = 1; r < t; ++r) {
    const float* xr = x.Row(r);
    for (int c = 0; c < f; ++c) {
      if (xr[c] > best[c]) {
        best[c] = xr[c];
        best_r[c] = r;
      }
    }
  }
}

void MaxOverTimeRange(const util::Matrix& x, int row_begin, int row_end,
                      float* out) {
  const int f = x.cols();
  LNCL_DCHECK(row_end > row_begin);
  std::copy_n(x.Row(row_begin), f, out);
  for (int r = row_begin + 1; r < row_end; ++r) {
    const float* xr = x.Row(r);
    for (int c = 0; c < f; ++c) {
      if (xr[c] > out[c]) out[c] = xr[c];
    }
  }
}

}  // namespace lncl::nn
