// fixture-path: src/core/slot_race_strided_ok.cc
// Negative case for the slot-race check: the worker-strided RunSlots idiom
// of the sharded trainer. Each of `workers` lambda calls owns one model and
// runs slots w, w + workers, ...; the loop variable starts at the slot
// parameter, so writes indexed by it stay slot-partitioned.
#include "util/threadpool.h"

namespace lncl::core {

void WorkerStridedSlots(util::Parallelizer* exec, int workers, int len,
                        std::vector<std::vector<float>>* grads) {
  constexpr int kSlots = util::Parallelizer::kSlots;
  double slot_loss[kSlots] = {0.0};
  std::vector<std::vector<float>> slot_grads(kSlots);
  exec->RunSlots(workers, [&](int w) {
    std::vector<float>& mine = (*grads)[w];
    for (int s = w; s < kSlots; s += workers) {
      std::swap(mine, slot_grads[s]);
      const auto [b, e] = util::Parallelizer::SlotRange(len, s, kSlots);
      for (int p = b; p < e; ++p) {
        slot_loss[s] += static_cast<double>(p);
        slot_grads[s].push_back(static_cast<float>(p));
      }
      std::swap(mine, slot_grads[s]);
    }
  });
}

}  // namespace lncl::core
