#pragma once

// Measurement plumbing of lncl_benchmark: strict flag parsing, the
// environment guard, sample statistics, output checks, and the JSON result
// line. It holds no workload code, so benchmark_selftest can pin every rule
// here without running a fit.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/matrix.h"

namespace lncl::benchmark {

// The workloads, in the order BENCHMARK.json lists them.
extern const std::vector<std::string> kWorkloads;

struct MetricSpec {
  std::string name;
  std::string unit;
};

// End-to-end metrics: every untraced run reports all of them.
extern const std::vector<MetricSpec> kEndToEnd;
// Per-layer metrics: every traced run reports all of them (0 for a layer the
// workload never calls).
extern const std::vector<MetricSpec> kPerLayer;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;   // required without --trace
  std::string trace_dir;  // empty: untraced end-to-end run
  bool list = false;
};

// Parses `--key=value` arguments (argv without the program name). Accepted:
// --workload=<name> --seed=<uint64> --seconds=<positive number>
// --trace=<dir> and the bare --list. Anything else — an unknown flag, a
// flag without '=', a malformed or out-of-range number, a repeated flag, a
// missing or unknown workload, an untraced run without --seconds — is an
// error: false with *error set.
// util::Config is deliberately not used: it falls back to defaults on a bad
// number and to LNCL_<KEY> environment variables.
bool ParseFlags(const std::vector<std::string>& args, Flags* flags,
                std::string* error);

// Names of the LNCL_* variables in `envp` (a null-terminated environ array).
// util::Config reads LNCL_<KEY> as a fallback for any key and the GEMM
// dispatcher reads LNCL_GEMM_KERNEL, so any of them can change a workload.
std::vector<std::string> LnclEnvironment(char** envp);

// Abbreviated (12 hex digit) commit of the git checkout rooted at `dir`, or
// "unknown". A `.git` directory is read directly; a `.git` file (worktree or
// submodule) is followed through its `gitdir:` line and the worktree's
// `commondir`. Parent directories are never searched: a `.git` file that
// cannot be followed, or no `.git` at all, yields "unknown", never the
// revision of some enclosing repository.
std::string GitRevision(const std::string& dir);

// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);

// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9 with at
// least ten of `n` samples beyond it, or 0 when there is none (n < 20).
double TailPercentile(size_t n);

// True when every entry is finite and non-negative and every row sums to 1
// within 1e-3 (a NaN or a row summing to 0.9 fails).
bool RowStochastic(const util::Matrix& m);
bool AllRowStochastic(const std::vector<util::Matrix>& ms);

// 64-bit FNV-1a over the shapes and raw bytes of `ms`, continuing from `h`.
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
uint64_t HashMatrices(const std::vector<util::Matrix>& ms,
                      uint64_t h = kFnvOffset);
uint64_t HashBytes(const void* data, size_t n, uint64_t h = kFnvOffset);

// The last stdout line of a run.
struct Result {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
};

// Shortest round-trip form ("%.17g"); "null" when not finite.
std::string JsonNumber(double v);
// Quoted, with '"', '\\' and control characters escaped.
std::string JsonString(const std::string& s);
// One line: {"correct": ..., "attempted": ..., "failed": ..., "metrics":
// {"<name>": {"value": <v>, "unit": "<u>"}, ...}}
std::string ResultJson(const Result& result);

}  // namespace lncl::benchmark
