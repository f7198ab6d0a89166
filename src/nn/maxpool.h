#pragma once

#include <vector>

#include "util/matrix.h"

namespace lncl::nn {

// Max-over-time pooling: collapses a T x F feature map to an F-vector by
// taking the per-column maximum (Kim 2014). `argmax` records, per column,
// the winning row index (the first one on ties) for the backward pass,
// Conv1d::BackwardPooled. The scan walks rows in order and, per column,
// replaces the running maximum only on a strict >.
void MaxOverTimeForward(const util::Matrix& x, util::Vector* out,
                        std::vector<int>* argmax);

// Max-over-time over the row range [row_begin, row_end) of x, written to
// out[0..F) — the batched-inference entry (one packed conv output holds
// several instances' rows back to back). Same strict-> ascending scan as
// MaxOverTimeForward on the slice, so the result is bit-identical; no argmax
// (inference only).
void MaxOverTimeRange(const util::Matrix& x, int row_begin, int row_end,
                      float* out);

}  // namespace lncl::nn

