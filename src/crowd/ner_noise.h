#pragma once

#include <vector>

#include "util/rng.h"

namespace lncl::crowd {

// Per-annotator error rates for the three crowd error types the paper
// identifies for the NER dataset (Section VI-A1), plus a small
// false-positive rate:
//   * ignore:   the entity is not annotated at all (span -> O);
//   * boundary: type correct but the span is shifted/shrunk/grown by one;
//   * type:     span correct but the entity type is wrong;
//   * false positive: a random O run is annotated as a random entity.
struct NerErrorRates {
  double p_ignore = 0.0;
  double p_boundary = 0.0;
  double p_type = 0.0;
  double p_false_positive = 0.0;  // expected count per sentence
};

// Applies the error model to a ground-truth BIO sequence and returns the
// annotator's tag sequence. Each kept span is rewritten whole, as B-X then
// I-X, so the result is valid BIO unless two adjacent truth spans are moved
// into each other (none of the ~30,000 sequences per seed of the
// ner_aggregate crowd at seeds 1-3 is invalid). `difficulty` in [0, 1]
// scales all error rates by (0.5 + difficulty), so hard sentences attract
// more mistakes.
std::vector<int> CorruptNerTags(const std::vector<int>& truth,
                                const NerErrorRates& rates, double difficulty,
                                util::Rng* rng);

}  // namespace lncl::crowd

