#pragma once

// The four pinned workloads of lncl_benchmark. Every input — corpus sizes,
// crowd calibration, model widths, optimizer and Logic-LNCL settings — is a
// constant in workloads.cc, so a change to bench/ or to util::Config
// defaults cannot change what the benchmark measures.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/logic_lncl.h"

namespace lncl::benchmark {

// What one unit of work did. A unit is one Logic-LNCL fit (sentiment_fit,
// ner_fit), one pass over the request stream (ner_serve), or one round of
// the five aggregators (ner_aggregate). An op is the thing a user waits
// for: a fit, a request, a round.
struct UnitReport {
  std::vector<double> op_seconds;  // latency of each op of the unit
  // Work of each op, parallel to op_seconds: items trained x epochs, tokens
  // served, or tokens aggregated x methods.
  std::vector<double> op_items;
  int64_t failed_ops = 0;  // ops whose outputs failed a check
  // Quality scores for the text report, e.g. {"teacher_score", 0.85}.
  std::vector<std::pair<std::string, double>> details;
  // Fit workloads only: where the fit's time went, and its epochs.
  core::PhaseSeconds phases;
  int epochs_run = 0;
  std::string fit_digest;  // FitDigest of the fit, empty elsewhere
  // obs::Metrics counter deltas over the unit's ops, by counter name; only
  // filled while obs::Metrics is enabled. Output checks are not counted.
  std::map<std::string, double> counters;
};

// Per-layer values keyed by the kPerLayer names.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Human-readable name of an op ("fit", "request", "round").
  virtual const char* op_name() const = 0;

  // Runs one unit. The first call is the warm-up: its outputs become the
  // reference that every later unit's outputs must equal bit for bit. Every
  // call also checks that outputs are finite and row-stochastic and that
  // scores clear their floors; an op failing any check is counted in
  // failed_ops.
  virtual UnitReport RunUnit() = 0;

  // One epoch's worth of calls into each layer the workload uses, each
  // timed by the benchmark's own span; adds seconds and counts to *values.
  // Requires a prior RunUnit.
  virtual void LayerPass(LayerValues* values) = 0;
};

// Builds the inputs of workload `name` (one of kWorkloads) from `seed`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace lncl::benchmark
