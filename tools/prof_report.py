#!/usr/bin/env python3
"""One report over a bench run's telemetry artifacts (stdlib only).

Joins, per span name:

  * results/trace_<id>.json  (Chrome trace)  — count, inclusive ms, mean ms,
    and SELF ms (exclusive of enclosed child spans) with its share of the
    traced time. Inclusive time answers "how long does this phase take end
    to end"; self time answers "where is the clock actually spent" — an
    epoch span is ~100% inclusive but near-0% self, because its time
    belongs to the m_step/e_step/... spans nested inside it;
  * results/prof_<id>.json   (lncl.prof.v1, optional) — on-CPU ms
    (task_clock_ns, the recording thread's CPU clock) and page faults;
  * results/metrics_<id>.json (lncl.metrics.v1 snapshot, optional) —
    gemm.flops, turned into achieved GFLOP/s over the fit span's CPU time
    and compared against the roofline peak from results/BENCH_micro.json
    (max GFLOPS counter across BM_GemmMicrokernel shapes).

and, from results/runlog_<id>.jsonl (lncl.em_run.v1, optional), prints a
per-epoch table — loss, dev score, k(t), KL(q_a‖q_b), rule satisfaction,
phase seconds, E-step throughput — plus the fit_end summary line.

The trace and the prof file see the same spans from two angles: the trace
measures wall time between ctor and dtor, the prof file the thread's
on-CPU time in between. Divergence between self wall-ms and cpu ms is
scheduling (preemption, blocking, page faults), not compute. Files written
before the hardware-counter profiler was retired carry more fields per
span; only task_clock_ns and page_faults are read.

Usage:
  tools/prof_report.py --id table3     # every results/*_table3.* present
  tools/prof_report.py --trace T [--prof P] [--metrics M] [--micro B]
                       [--runlog R]
  tools/prof_report.py --runlog R      # the per-epoch table alone
  tools/prof_report.py --self-test

Exit codes: 0 ok, 1 self-test failure or unreadable artifact, 2 bad usage.
"""

import argparse
import json
import os
import sys
import tempfile
from collections import defaultdict


def compute_self_us(spans):
    """Self time (duration minus direct children) per span event.

    Spans are complete ("X") events. Within each tid, sort by (ts, -dur):
    a parent starts no later than its children and, on ties, sorts first.
    A containment stack then assigns every span's duration to itself minus
    whatever its direct children cover. Returns a parallel list of
    microsecond self times (same order as `spans`).
    """
    self_us = [float(e.get("dur", 0.0)) for e in spans]
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i].get("tid", 0),
                                  float(spans[i].get("ts", 0.0)),
                                  -float(spans[i].get("dur", 0.0))))
    stack = []  # indices of open ancestor spans (same tid)
    current_tid = object()
    for i in order:
        e = spans[i]
        tid = e.get("tid", 0)
        ts = float(e.get("ts", 0.0))
        dur = float(e.get("dur", 0.0))
        if tid != current_tid:
            stack = []
            current_tid = tid
        while stack:
            top = spans[stack[-1]]
            top_end = float(top.get("ts", 0.0)) + float(top.get("dur", 0.0))
            if top_end <= ts:
                stack.pop()
            else:
                break
        if stack:
            self_us[stack[-1]] -= dur  # direct parent loses this span's time
        stack.append(i)
    return self_us


def aggregate_trace(spans):
    """Per-name aggregates: count, inclusive total, self total (us)."""
    self_us = compute_self_us(spans)
    by_name = defaultdict(lambda: {"count": 0, "total_us": 0.0,
                                   "self_us": 0.0})
    for e, s in zip(spans, self_us):
        agg = by_name[e["name"]]
        agg["count"] += 1
        agg["total_us"] += float(e.get("dur", 0.0))
        agg["self_us"] += s
    return by_name


def load_trace_spans(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents", [])
    return [e for e in events if e.get("ph") == "X"]


def load_prof(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "lncl.prof.v1":
        raise SystemExit(f"{path}: unknown schema {doc.get('schema')!r}")
    return doc


def load_runlog(path):
    """(epoch records, fit_end records) of an lncl.em_run.v1 run log."""
    epochs, ends = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("schema") != "lncl.em_run.v1":
                raise SystemExit(f"{path}: unknown schema {rec.get('schema')}")
            (epochs if rec["record"] == "epoch" else ends).append(rec)
    return epochs, ends


def micro_roofline_gflops(path):
    """Peak GFLOPS over the GEMM microkernel sweep — the roofline the
    end-to-end fit is judged against. 0.0 when absent."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    peak = 0.0
    for bm in doc.get("benchmarks", []):
        if "GemmMicrokernel" in bm.get("name", ""):
            peak = max(peak, float(bm.get("GFLOPS", 0.0)))
    return peak


def build_report(trace_spans, prof_doc=None, metrics_doc=None, roofline=0.0):
    """Pure merge -> {"spans", "threads", "rows", "prof", "gemm"}.

    Without a prof document the rows carry the trace columns only."""
    trace_agg = aggregate_trace(trace_spans)
    prof_spans = prof_doc.get("spans", {}) if prof_doc else {}

    rows = []
    for name in sorted(set(trace_agg) | set(prof_spans),
                       key=lambda n: (-trace_agg.get(n, {}).get("self_us", 0),
                                      n)):
        t = trace_agg.get(name, {"count": 0, "total_us": 0.0, "self_us": 0.0})
        p = prof_spans.get(name, {})
        count = t["count"] or p.get("spans", 0)
        incl_ms = t["total_us"] / 1000.0
        rows.append({
            "span": name,
            "count": count,
            "incl_ms": incl_ms,
            "mean_ms": incl_ms / count if count else 0.0,
            "self_ms": t["self_us"] / 1000.0,
            "cpu_ms": p.get("task_clock_ns", 0) / 1e6,
            "page_faults": p.get("page_faults", 0),
        })

    gemm = None
    if metrics_doc is not None:
        flops = metrics_doc.get("counters", {}).get("gemm.flops", 0)
        fit = prof_spans.get("fit", {})
        # Prefer the fit span's CPU time (survives preemption); fall back
        # to its inclusive wall time from the trace.
        fit_s = fit.get("task_clock_ns", 0) / 1e9
        basis = "fit task-clock"
        if fit_s <= 0.0:
            fit_s = trace_agg.get("fit", {}).get("total_us", 0.0) / 1e6
            basis = "fit wall"
        if flops > 0 and fit_s > 0:
            achieved = flops / fit_s / 1e9
            gemm = {"flops": flops, "seconds": fit_s, "basis": basis,
                    "achieved_gflops": achieved, "roofline_gflops": roofline,
                    "roofline_pct": (achieved / roofline * 100.0
                                     if roofline > 0 else 0.0)}
    return {"spans": len(trace_spans),
            "threads": len({e.get("tid") for e in trace_spans}),
            "rows": rows, "prof": prof_doc is not None, "gemm": gemm}


def print_report(report, title=""):
    print(f"== span report: {title}")
    print(f"   {report['spans']} spans over {report['threads']} thread "
          "track(s)")
    # Total self time equals the wall time the spans cover, so it is the
    # denominator that makes the shares sum to 100%.
    total_self = sum(r["self_ms"] for r in report["rows"]) or 1.0
    header = (f"   {'span':<16} {'count':>7} {'incl ms':>10} {'mean ms':>9} "
              f"{'self ms':>10} {'self%':>6}")
    if report["prof"]:
        header += f" {'cpu ms':>10} {'pgflt':>7}"
    print(header)
    for r in report["rows"]:
        line = (f"   {r['span']:<16} {r['count']:>7} {r['incl_ms']:>10.2f} "
                f"{r['mean_ms']:>9.4f} {r['self_ms']:>10.2f} "
                f"{r['self_ms'] / total_self:>6.1%}")
        if report["prof"]:
            line += f" {r['cpu_ms']:>10.2f} {r['page_faults']:>7}"
        print(line)
    g = report["gemm"]
    if g is not None:
        line = (f"   gemm: {g['flops']:,} flops / {g['seconds']:.3f}s "
                f"{g['basis']} = {g['achieved_gflops']:.2f} GFLOP/s")
        if g["roofline_gflops"] > 0:
            line += (f"  ({g['roofline_pct']:.1f}% of "
                     f"{g['roofline_gflops']:.1f} GFLOP/s micro roofline)")
        print(line)
        print("   (end-to-end fit spends time outside GEMM too, so this is "
              "a lower bound on kernel efficiency)")


def print_runlog(path, epochs, ends):
    print(f"== run log: {path}")
    for run in sorted({r.get("run", "") for r in epochs}):
        if run:
            print(f"   run: {run}")
        print(f"   {'ep':>3} {'loss':>10} {'dev':>8} {'k':>6} "
              f"{'KL(qa|qb)':>10} {'satisf':>7} {'m_step s':>9} "
              f"{'e_step s':>9} {'inst/s':>10} {'best':>5}")
        for r in epochs:
            if r.get("run", "") != run:
                continue
            ph = r.get("phase_seconds", {})
            print(f"   {r['epoch']:>3} {r['loss']:>10.4f} "
                  f"{r['dev_score']:>8.4f} {r['k']:>6.3f} "
                  f"{r['mean_kl_qa_qb']:>10.5f} "
                  f"{r['rule_satisfaction']:>7.3f} "
                  f"{ph.get('m_step', 0.0):>9.3f} "
                  f"{ph.get('e_step', 0.0):>9.3f} "
                  f"{r['e_step_instances_per_second']:>10.0f} "
                  f"{'*' if r.get('is_best') else '':>5}")
    for end in ends:
        run = end.get("run", "")
        tag = f" [{run}]" if run else ""
        stopped = "early-stopped" if end.get("early_stopped") else "ran full"
        print(f"   fit_end{tag}: best epoch {end['best_epoch']} "
              f"(dev {end['best_dev_score']:.4f}), "
              f"{end['epochs_run']} epochs, {stopped}")


# ---------------------------------------------------------------------------
# Self-test: fixture trace/prof/metrics/micro/run-log files with
# hand-computable numbers. CI runs this (ctest prof_selftest).
# ---------------------------------------------------------------------------

def self_test():
    failures = []

    def check(name, ok, detail=""):
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] {name}" + (f" — {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    print("prof_report --self-test")
    # fit [0,1000us] wraps epoch [100,900] wraps m_step [150,450] and
    # e_step [500,850]; a second thread adds e_step_shard [0,300].
    trace = {"traceEvents": [
        {"ph": "M", "tid": 1, "name": "thread_name"},
        {"ph": "X", "tid": 1, "ts": 0, "dur": 1000, "name": "fit"},
        {"ph": "X", "tid": 1, "ts": 100, "dur": 800, "name": "epoch"},
        {"ph": "X", "tid": 1, "ts": 150, "dur": 300, "name": "m_step"},
        {"ph": "X", "tid": 1, "ts": 500, "dur": 350, "name": "e_step"},
        {"ph": "X", "tid": 2, "ts": 0, "dur": 300, "name": "e_step_shard"},
    ]}
    prof = {"schema": "lncl.prof.v1",
            "spans": {
                "fit": {"spans": 1, "task_clock_ns": 2_000_000_000,
                        "page_faults": 7},
                "m_step": {"spans": 1, "task_clock_ns": 300_000,
                           "page_faults": 2},
            }}
    metrics = {"counters": {"gemm.flops": 4_000_000_000}}
    micro = {"benchmarks": [
        {"name": "BM_GemmMicrokernel/14/16/160", "GFLOPS": 50.0},
        {"name": "BM_GemmMicrokernel/64/32/32", "GFLOPS": 80.0},
        {"name": "BM_LogicProject/32", "GFLOPS": 999.0},  # not a GEMM kernel
    ]}
    epoch = {"schema": "lncl.em_run.v1", "record": "epoch", "run": "unit",
             "loss": 0.5, "dev_score": 0.75, "k": 0.1, "mean_kl_qa_qb": 0.01,
             "rule_satisfaction": 0.9, "e_step_instances_per_second": 1000.0,
             "phase_seconds": {"m_step": 0.2, "e_step": 0.1}}
    runlog = [dict(epoch, epoch=0, is_best=True),
              dict(epoch, epoch=1, is_best=False),
              {"schema": "lncl.em_run.v1", "record": "fit_end", "run": "unit",
               "best_epoch": 0, "best_dev_score": 0.75, "epochs_run": 2,
               "early_stopped": False}]

    with tempfile.TemporaryDirectory(prefix="prof_report_selftest.") as tmp:
        paths = {}
        for stem, doc in [("trace", trace), ("prof", prof),
                          ("metrics", metrics), ("micro", micro)]:
            paths[stem] = os.path.join(tmp, f"{stem}.json")
            with open(paths[stem], "w", encoding="utf-8") as f:
                json.dump(doc, f)
        paths["runlog"] = os.path.join(tmp, "runlog.jsonl")
        with open(paths["runlog"], "w", encoding="utf-8") as f:
            f.writelines(json.dumps(rec) + "\n" for rec in runlog)

        spans = load_trace_spans(paths["trace"])
        check("metadata events skipped", len(spans) == 5, str(len(spans)))
        report = build_report(spans, load_prof(paths["prof"]),
                              json.load(open(paths["metrics"],
                                             encoding="utf-8")),
                              micro_roofline_gflops(paths["micro"]))
        rows = {r["span"]: r for r in report["rows"]}
        check("thread tracks", report["threads"] == 2,
              str(report["threads"]))

        # Self times: fit = 1000-800 = 200; epoch = 800-300-350 = 150;
        # leaves keep their full duration; tid 2 is its own stack.
        for name, want in [("fit", 0.200), ("epoch", 0.150),
                           ("m_step", 0.300), ("e_step", 0.350),
                           ("e_step_shard", 0.300)]:
            got = rows[name]["self_ms"]
            check(f"self time {name}", abs(got - want) < 1e-9,
                  f"{got} vs {want}")
        check("inclusive unchanged", abs(rows["fit"]["incl_ms"] - 1.0) < 1e-9,
              str(rows["fit"]["incl_ms"]))
        order = [r["span"] for r in report["rows"]]
        check("rows sorted by self time, then name",
              order == ["e_step", "e_step_shard", "m_step", "fit", "epoch"],
              str(order))

        # Counter join: prof rows land on the right spans.
        check("fit cpu ms", abs(rows["fit"]["cpu_ms"] - 2000.0) < 1e-9,
              str(rows["fit"]["cpu_ms"]))
        check("m_step page faults", rows["m_step"]["page_faults"] == 2)
        check("prof-less span zeroed", rows["e_step"]["cpu_ms"] == 0.0)

        # Roofline: 4e9 flops / 2.0s task-clock = 2 GFLOP/s; peak is the
        # max over GEMM kernels only (80, not 999).
        g = report["gemm"]
        check("achieved gflops", g is not None
              and abs(g["achieved_gflops"] - 2.0) < 1e-9, str(g))
        check("roofline from gemm kernels only",
              g["roofline_gflops"] == 80.0, str(g["roofline_gflops"]))
        check("roofline pct", abs(g["roofline_pct"] - 2.5) < 1e-9,
              str(g["roofline_pct"]))

        # A trace alone: the same self times, no counter columns, and the
        # GEMM rate falls back to the fit span's wall time (4e9 / 1 ms).
        alone = build_report(spans, metrics_doc=metrics)
        alone_rows = {r["span"]: r for r in alone["rows"]}
        check("trace-only report has no prof", not alone["prof"])
        check("trace-only self time", abs(alone_rows["epoch"]["self_ms"]
                                          - 0.150) < 1e-9)
        check("trace-only mean ms", abs(alone_rows["fit"]["mean_ms"]
                                        - 1.0) < 1e-9)
        check("gemm falls back to fit wall",
              alone["gemm"] is not None
              and alone["gemm"]["basis"] == "fit wall"
              and abs(alone["gemm"]["achieved_gflops"] - 4000.0) < 1e-6,
              str(alone["gemm"]))

        epochs, ends = load_runlog(paths["runlog"])
        check("run log records", len(epochs) == 2 and len(ends) == 1,
              f"{len(epochs)} epochs, {len(ends)} fit_end")

        # Every table must render without exceptions.
        print_report(report, title="self-test fixture")
        print_report(alone, title="self-test fixture, trace only")
        print_runlog(paths["runlog"], epochs, ends)

    print("self-test: " +
          (f"{len(failures)} FAILURE(S)" if failures else "all checks passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--id", help="reads results/trace_<id>.json and, "
                        "when present, results/{prof,metrics}_<id>.json, "
                        "results/runlog_<id>.jsonl and "
                        "results/BENCH_micro.json")
    parser.add_argument("--trace", help="Chrome trace JSON")
    parser.add_argument("--prof", help="lncl.prof.v1 JSON (optional)")
    parser.add_argument("--metrics", help="metrics snapshot JSON (optional)")
    parser.add_argument("--micro", help="BENCH_micro.json for the roofline "
                        "(optional)")
    parser.add_argument("--runlog", help="lncl.em_run.v1 JSONL (optional)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.id:
        def present(path):
            return path if os.path.exists(path) else None
        args.trace = args.trace or f"results/trace_{args.id}.json"
        args.prof = args.prof or present(f"results/prof_{args.id}.json")
        args.metrics = args.metrics or present(
            f"results/metrics_{args.id}.json")
        args.micro = args.micro or present("results/BENCH_micro.json")
        args.runlog = args.runlog or present(
            f"results/runlog_{args.id}.jsonl")
    if not args.trace and not args.runlog:
        parser.error("pass --id, --trace, or --runlog")
    if not args.trace and (args.prof or args.metrics or args.micro):
        parser.error("--prof, --metrics and --micro join onto --trace")

    if args.trace:
        metrics_doc = None
        if args.metrics:
            with open(args.metrics, encoding="utf-8") as f:
                metrics_doc = json.load(f)
        roofline = micro_roofline_gflops(args.micro) if args.micro else 0.0
        prof_doc = load_prof(args.prof) if args.prof else None
        report = build_report(load_trace_spans(args.trace), prof_doc,
                              metrics_doc, roofline)
        print_report(report, title=args.id or args.trace)
    if args.runlog:
        print_runlog(args.runlog, *load_runlog(args.runlog))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
