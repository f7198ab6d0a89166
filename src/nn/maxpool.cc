#include "nn/maxpool.h"
#include "util/check.h"


namespace lncl::nn {

void MaxOverTimeForward(const util::Matrix& x, util::Vector* out,
                        std::vector<int>* argmax) {
  const int t = x.rows();
  const int f = x.cols();
  LNCL_DCHECK(t > 0);
  out->assign(f, 0.0f);
  argmax->assign(f, 0);
  for (int c = 0; c < f; ++c) {
    float best = x(0, c);
    int best_r = 0;
    for (int r = 1; r < t; ++r) {
      if (x(r, c) > best) {
        best = x(r, c);
        best_r = r;
      }
    }
    (*out)[c] = best;
    (*argmax)[c] = best_r;
  }
}

void MaxOverTimeRange(const util::Matrix& x, int row_begin, int row_end,
                      float* out) {
  const int f = x.cols();
  LNCL_DCHECK(row_end > row_begin);
  for (int c = 0; c < f; ++c) {
    float best = x(row_begin, c);
    for (int r = row_begin + 1; r < row_end; ++r) {
      if (x(r, c) > best) best = x(r, c);
    }
    out[c] = best;
  }
}

void MaxOverTimeBackward(const std::vector<int>& argmax,
                         const util::Vector& grad_out, int rows,
                         util::Matrix* grad_x) {
  LNCL_DCHECK(argmax.size() == grad_out.size());
  const size_t cols = grad_out.size();
  grad_x->Resize(rows, static_cast<int>(cols));
  float* const g = grad_x->data();
  for (size_t c = 0; c < cols; ++c) {
    LNCL_DCHECK(argmax[c] >= 0 && argmax[c] < rows);
    g[static_cast<size_t>(argmax[c]) * cols + c] = grad_out[c];
  }
}

}  // namespace lncl::nn
