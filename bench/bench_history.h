#pragma once

// Append-only bench history (schema lncl.bench.v1) + the metadata it needs.
//
// Every bench run appends one JSONL record to results/BENCH_history.jsonl:
// fit digests, wall/phase seconds, perf-counter aggregates of the "fit"
// span (when a Prof session ran), peak RSS, git revision, and host
// fingerprint. Unlike results/BENCH_<id>.json — which each run overwrites —
// the history accumulates, so the perf trajectory across commits is a file,
// not folklore. tools/bench_compare.py diffs the newest record per
// (host, bench) against the committed baseline (results/bench_baseline.json)
// and fails on wall-time / cache-miss regressions.
//
// Record shape (one line, abridged):
//   {"schema": "lncl.bench.v1", "bench": "table2", "unix_time": ...,
//    "git_rev": "<12 hex or unknown>", "host": "<HostFingerprint()>",
//    "audit": false, "prof_active": true, "hw_counters_available": false,
//    "sw_counters_available": true, "peak_rss_kb": 123456,
//    "wall_seconds": 1.23,
//    "counters": {"spans": 2, "cycles": 0, ..., "ipc": 0.0, ...},
//    "fits": [{"mode": "batched", "digest": "...", "fit_seconds": 0.2,
//              "phase_seconds": {"m_step": ..., ...}}, ...],
//    "int8_argmax_agreement": 1.0}            // only when int8 != nullptr
//
// Fig-style benches with no timed fits call the two-argument overload; the
// record then carries an empty fits array and zero counters unless a Prof
// session supplied them.

#include <string>
#include <vector>

#include "bench_common.h"

namespace lncl::bench {

// Short (12-hex) git revision, read straight from .git — HEAD, the ref file
// it points at, or packed-refs — walking up from the current directory to
// the first .git. A .git file (worktree or submodule) is followed through
// its "gitdir:" line, and a worktree's refs through its commondir. "unknown"
// when no repository is reachable (e.g. smoke runs in a temporary
// directory). No subprocess: benches must not fork to git.
std::string GitRevision();

// Appends one lncl.bench.v1 record. Returns false when the file cannot be
// opened/written (the bench itself is unaffected).
bool AppendBenchHistory(const std::string& id, double wall_seconds,
                        const std::vector<TimedFit>& fits,
                        const Int8Gate* int8 = nullptr,
                        const std::string& path =
                            "results/BENCH_history.jsonl");

// Convenience for benches without timed fits (figs, micro).
bool AppendBenchHistory(const std::string& id, double wall_seconds);

}  // namespace lncl::bench
