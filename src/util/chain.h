#pragma once

#include <span>
#include <vector>

#include "util/matrix.h"

namespace lncl::util {

// The chain smoother's group size: it smooths this many consecutive chains
// of a batch at once, one SIMD lane per chain. A constant, so callers that
// build their emissions on the fly (HMM-Crowd, BSC-seq) can hand over one
// group at a time and keep their scratch bounded.
inline constexpr int kChainLanes = 8;

// Exact smoothing on a batch of discrete hidden Markov chains that share
// their initial weights and transitions.
//
// Inputs: initial weights `prior` (K), nonnegative transition potentials
// `transition` (K x K; rows need not sum to one, as for the rule
// projector's exp(-C * penalty)), and for chain i its per-step emission
// likelihoods `emissions[i]` (T_i x K; entry (t, m) = p(observations at
// step t | state m), any positive scale; T_i = 0 is allowed). Outputs:
// chain i's posterior state marginals in gammas[i] (resized to T_i x K)
// and, when `xi_sum` is non-null, the summed pairwise posteriors
// sum_i sum_t p(s_t = a, s_{t+1} = b | obs_i) accumulated *into* xi_sum,
// chain by chain and within a chain step by step (callers zero it once and
// accumulate across instances for an EM M-step).
//
// In place: gammas may be the very span emissions is, so that gammas[i] is
// emissions[i] and each emission matrix is replaced by its marginals (the
// rule projector does this). Otherwise the two spans must not overlap.
//
// Lanes: each group of kChainLanes consecutive chains runs the forward,
// backward, gamma and xi passes once, one lane per chain, over the group's
// longest chain; a shorter chain's lane is padded with unit emissions and
// its beta is pinned to 1 from its last step on. Each lane performs the
// one-chain arithmetic operand for operand, so a chain's outputs are
// bit-identical whichever batch, group or lane it runs in (DESIGN.md §5
// has the per-lane contract). A group of one chain runs the same kernel at
// width 1, so a lone chain does not pay for idle lanes.
//
// Quotients: a gamma entry is (float)(row[m] / sum) of its step's double
// row, and a step's xi entries are (float)(row[i] / total) bit for bit,
// but reached with one division per step: q = row[i] * (1 / total) is the
// rounded quotient or a neighbouring double, so where q and both its
// neighbours round to one float, that float is the quotient's; where a
// float rounding boundary is that near in any lane, the group's step is
// redone by division (DESIGN.md §5 has the proof; ChainQuotients below is
// the same step on its own, for tests).
//
// Messages are locally renormalized, so long sequences are numerically
// safe. The scratch is per thread (the CRF tagger smooths from the
// parallel E-step), holds one group, and only grows. Callers: HMM-Crowd
// and BSC-seq (one group of sentences at a time),
// logic::SequenceRuleProjector::ProjectBatch (its whole batch, in place),
// models::CrfTagger::PredictBatch (its whole batch, in place) and
// CrfTagger::ForwardTrain (a batch of one).
void ChainForwardBackward(const Vector& prior, const Matrix& transition,
                          std::span<const Matrix> emissions,
                          std::span<Matrix> gammas, Matrix* xi_sum);

// The xi pass's quotient step on its own: out[j * n + i] =
// (float)(rows[j * n + i] / divisors[j]) bit for bit, for steps
// j < divisors.size() of n = rows.size() / divisors.size() terms each.
// Steps run kChainLanes at a time, one per lane, as a group's lanes do;
// the last fewer than kChainLanes run one at a time at width 1, as a lone
// chain does. Rows are >= 0, divisors in [1e-300, 2^1000] and quotients
// at most 2^1000 (the smoother's totals are above 1e-300 or replaced by
// 1, and its rows are at most their total).
void ChainQuotients(std::span<const double> rows,
                    std::span<const double> divisors, std::span<float> out);

// Viterbi decoding on the same parameterization: returns the most probable
// state sequence (on ties, the lowest previous state and the lowest final
// state). `path` is resized to emission.rows().
void ChainViterbi(const Vector& prior, const Matrix& transition,
                  const Matrix& emission, std::vector<int>* path);

}  // namespace lncl::util
