// fixture-path: src/core/slot_race_strided_bad.cc
// Positive case for the slot-race check in the worker-strided RunSlots
// idiom: the strided loop variable indexes per-slot state, but a fixed
// index does not — every worker would write slot 0's entry.
#include "util/threadpool.h"

namespace lncl::core {

void WorkerStridedSlots(util::Parallelizer* exec, int workers, int len) {
  constexpr int kSlots = util::Parallelizer::kSlots;
  double slot_loss[kSlots] = {0.0};
  exec->RunSlots(workers, [&](int w) {
    for (int s = w; s < kSlots; s += workers) {
      const auto [b, e] = util::Parallelizer::SlotRange(len, s, kSlots);
      for (int p = b; p < e; ++p) {
        slot_loss[s] += static_cast<double>(p);
        slot_loss[0] += 1.0;  // EXPECT: slot-race
      }
    }
  });
}

}  // namespace lncl::core
