#pragma once

// Append-only bench history (schema lncl.bench.v1) + the metadata it needs.
//
// Every bench run appends one JSONL record to results/BENCH_history.jsonl:
// the digest and phase seconds of its timed fit, the on-CPU time and page
// faults of the "fit" span (when a Prof session ran), peak RSS, git
// revision, and host fingerprint. The history accumulates, so the perf
// trajectory across commits is a file, not folklore. It is for
// observability, not a gate: wall times are only comparable between records
// of the same host.
//
// Record shape (one line, abridged):
//   {"schema": "lncl.bench.v1", "bench": "table2", "unix_time": ...,
//    "git_rev": "<12 hex or unknown>", "host": "<HostFingerprint()>",
//    "audit": false, "prof_active": true, "peak_rss_kb": 123456,
//    "wall_seconds": 1.23,
//    "counters": {"spans": 1, "task_clock_ns": 1230000000,
//                 "page_faults": 134},
//    "fits": [{"mode": "batched", "digest": "...", "fit_seconds": 0.2,
//              "phase_seconds": {"m_step": ..., ...}}],
//    "shape_checks": [{"name": "table3....", "values": {"teacher_pred":
//                      68.1, ...}, "pass": true, "deviation": false}],
//                                             // only when checks != nullptr
//    "int8_argmax_agreement": 1.0}            // only when int8 != nullptr
//
// Benches with no timed fit (figs, micro) pass no fit; the record then
// carries an empty fits array and zero counters unless a Prof session
// supplied them. Older lines of the committed ledger also hold a
// "per_instance" fit, and more "counters" fields plus two availability flags
// from the retired hardware-counter profiler.

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

// Appends one lncl.bench.v1 record. `fit` is the bench's timed Logic-LNCL
// fit, run with LogicLnclConfig.batch_predict at its default ("batched");
// null for benches without one. `checks` are the bench's evaluated shape
// checks (ReportShapeChecks), null for benches without any. Returns false
// when the file cannot be opened/written (the bench itself is unaffected).
bool AppendBenchHistory(const std::string& id, double wall_seconds,
                        const core::LogicLnclResult* fit = nullptr,
                        const Int8Gate* int8 = nullptr,
                        const std::vector<ShapeCheck>* checks = nullptr,
                        const std::string& path =
                            "results/BENCH_history.jsonl");

}  // namespace lncl::bench
