#!/usr/bin/env bash
# CI gate: lint first, then build-and-test sweeps.
#
# The lint pass (scripts/lint.sh) runs before anything is compiled: repo
# conventions are the cheapest failures to surface. Then each requested
# sweep builds the tree and runs the tier-1 suite:
#
#   analyze            AST-grounded static analysis (tools/analyze/): the
#                      fixture self-test, the full-tree run (builtin
#                      frontend always; libclang sharpens it when present),
#                      and the clang-tidy zero-warning baseline gate (skips
#                      gracefully when the binary is absent). Also runs as
#                      part of the lint pass; the named sweep re-runs it
#                      after the tree is configured so the analyzer sees
#                      build/compile_commands.json.
#   audit              -DLNCL_AUDIT=ON: every LNCL_DCHECK / LNCL_AUDIT_*
#                      numeric-invariant contract live (simplex posteriors,
#                      row-stochastic confusions, finite gradients, poisoned
#                      workspace arenas), plus the expect-fail death tests
#                      in audit_test
#   address,undefined,float-cast-overflow
#                      ASan + UBSan, plus the float-to-int cast check that
#                      GCC's "undefined" group leaves out (a NaN or
#                      out-of-range float reaching an int conversion); every
#                      finding is fatal (-fno-sanitize-recover=all, set by
#                      CMakeLists.txt for any LNCL_SANITIZE build)
#   thread             TSan (exercises the deterministic parallel training
#                      paths in determinism_test / util_test, and in
#                      inference_test the per-thread chain-smoother buffers
#                      and the parallel EM aggregators, DS and IBCC
#                      (DawidSkene::Run) and HMM-Crowd and BSC-seq
#                      (RunSequenceEm), whose E-steps and M-step count
#                      tables split the items or sentences into the same
#                      fixed slots, at 1-4 workers and with empty slots,
#                      with real data races flagged, not just bit-identity
#                      checked)
#   portable           -DLNCL_NATIVE_ARCH=OFF: a Release build for the
#                      baseline x86-64 ISA (SSE2), running the suites that
#                      pin bits (inference, determinism, util, models,
#                      logic). The chain smoother's lane vectors, the
#                      aggregators' compile-time-K (K = 9) kernels and the
#                      GEMM dispatch then run at SSE2 width, and every
#                      golden hash must still hold
#
# Sanitizer sweeps finish with an explicit run of the batched-prediction
# equivalence, determinism and inference tests, one at a time, so the
# PredictBatch bit-identity contract and the aggregators' worker-count
# invariance are checked under both sanitizers with no other suite
# competing for cores. The ASan/UBSan sweep additionally reruns the whole
# suite with LNCL_GEMM_KERNEL=scalar so the scalar GEMM twin (the
# bit-equality reference for the SIMD microkernels) gets its own sanitized
# pass. All sweeps build with -DLNCL_WERROR=ON: the tree must stay
# warning-clean under -Wall -Wextra -Wshadow.
#
# Between lint and the sweeps, a trace-smoke step runs a tiny table2 bench
# and validates the artifacts of its timed fit: the trace file must parse as
# Chrome trace-event JSON with span events, every run-log line must parse as
# JSON carrying the lncl.em_run.v1 schema, the prof file must carry
# lncl.prof.v1 span aggregates (span count, on-CPU ns, page faults) with a
# nonzero on-CPU time for the fit span, and the bench-history append must be
# a well-formed lncl.bench.v1 record holding exactly one (batched) fit, the
# fit span's nonzero on-CPU time, and an empty shape_checks array (a
# --runs=0 bench has no means to check). The same smoke run then drives
# tools/prof_report.py end to end: the merged per-span table with the
# per-epoch run-log table, and the trace alone. The report's fixture
# self-test runs with the lint pass.
#
# A claims step then runs the three paper-table benches (table2_sentiment,
# table3_ner, table4_ablation) at default scale, in a temporary directory
# holding a copy of EXPERIMENTS.md so the committed results/ ledger is left
# alone. Each bench exits non-zero when one of its shape checks fails
# without EXPERIMENTS.md naming it as a deviation, which fails the step.
#
#   scripts/check.sh              # lint + smoke + claims + all four sweeps
#   scripts/check.sh audit        # lint + smoke + claims + audit sweep only
#   scripts/check.sh thread       # lint + smoke + claims + TSan only
#   scripts/check.sh portable     # lint + smoke + claims + portable only
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

scripts/lint.sh

echo "===== telemetry report self-test ====="
python3 tools/prof_report.py --self-test

echo "===== trace smoke (tiny table2 run) ====="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target table2_sentiment
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
(cd "$smoke" && "$root/build/bench/table2_sentiment" --runs=0 --train=120 \
  --dev=60 --test=60 --annotators=8 --epochs=2 >/dev/null)
python3 - "$smoke" <<'EOF'
import json
import sys

smoke = sys.argv[1]
trace = json.load(open(f"{smoke}/results/trace_table2.json"))
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "trace has no complete ('X') span events"
names = {e["name"] for e in spans}
for expected in ("fit", "epoch", "e_step"):
    assert expected in names, f"trace missing span '{expected}': {sorted(names)}"
assert all("ts" in e and "dur" in e for e in spans), "span missing ts/dur"

lines = [l for l in open(f"{smoke}/results/runlog_table2.jsonl")
         if l.strip()]
assert lines, "run log is empty"
for line in lines:
    rec = json.loads(line)
    assert rec["schema"] == "lncl.em_run.v1", rec
    assert rec["record"] in ("epoch", "fit_end"), rec
    if rec["record"] == "epoch":
        for key in ("epoch", "loss", "dev_score", "k", "phase_seconds",
                    "rule_satisfaction", "confusion_diag_mass"):
            assert key in rec, f"epoch record missing {key}"
assert lines and json.loads(lines[-1])["record"] == "fit_end", \
    "run log does not end with a fit_end record"

json.load(open(f"{smoke}/results/metrics_table2.json"))

prof = json.load(open(f"{smoke}/results/prof_table2.json"))
assert prof["schema"] == "lncl.prof.v1", prof
assert "fit" in prof["spans"], sorted(prof["spans"])
for span in prof["spans"].values():
    for key in ("spans", "task_clock_ns", "page_faults"):
        assert key in span, f"prof span missing {key}: {span}"
assert prof["spans"]["fit"]["task_clock_ns"] > 0, prof["spans"]["fit"]

history = [json.loads(l) for l in
           open(f"{smoke}/results/BENCH_history.jsonl") if l.strip()]
assert len(history) == 1, f"expected one history record, got {len(history)}"
rec = history[0]
assert rec["schema"] == "lncl.bench.v1", rec
assert rec["bench"] == "table2" and rec["prof_active"] is True, rec
assert rec["peak_rss_kb"] > 0 and rec["wall_seconds"] > 0, rec
assert rec["counters"]["task_clock_ns"] > 0, rec["counters"]
assert len(rec["fits"]) == 1, f"expected one timed fit: {rec['fits']}"
assert rec["fits"][0]["mode"] == "batched" and rec["fits"][0]["digest"], rec
assert rec["shape_checks"] == [], f"--runs=0 checks nothing: {rec}"

print(f"trace smoke ok: {len(spans)} spans, {len(lines)} run-log records, "
      f"prof spans {sorted(prof['spans'])}, 1 history record")
EOF
echo "----- report smoke: merged report + run log, then the trace alone -----"
python3 tools/prof_report.py --trace "$smoke/results/trace_table2.json" \
  --prof "$smoke/results/prof_table2.json" \
  --metrics "$smoke/results/metrics_table2.json" \
  --runlog "$smoke/results/runlog_table2.jsonl"
python3 tools/prof_report.py --trace "$smoke/results/trace_table2.json"
rm -rf "$smoke"
trap - EXIT

echo "===== paper claims (table2, table3, table4 at default scale) ====="
cmake --build build -j "$(nproc)" --target table2_sentiment table3_ner \
  table4_ablation
claims=$(mktemp -d)
trap 'rm -rf "$claims"' EXIT
cp EXPERIMENTS.md "$claims/"
for bench in table2_sentiment table3_ner table4_ablation; do
  (cd "$claims" && "$root/build/bench/$bench" | grep '^shape check')
done
rm -rf "$claims"
trap - EXIT

sweeps=("audit" "address,undefined,float-cast-overflow" "thread" "portable")
if [ $# -ge 1 ]; then
  sweeps=("$@")
fi

for sweep in "${sweeps[@]}"; do
  if [ "$sweep" = "analyze" ]; then
    echo "===== static analysis (tools/analyze + clang-tidy gate) ====="
    python3 tools/analyze/analyze.py --self-test
    python3 tools/analyze/analyze.py
    scripts/tidy.sh
    continue
  fi
  if [ "$sweep" = "audit" ]; then
    build="build-audit-check"
    echo "===== LNCL_AUDIT=ON (${build}) ====="
    cmake -B "$build" -S . -DLNCL_AUDIT=ON -DLNCL_WERROR=ON >/dev/null
    cmake --build "$build" -j "$(nproc)"
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
    continue
  fi
  if [ "$sweep" = "portable" ]; then
    build="build-portable-check"
    suites="inference_test determinism_test util_test models_test logic_test"
    echo "===== LNCL_NATIVE_ARCH=OFF (${build}) ====="
    cmake -B "$build" -S . -DLNCL_NATIVE_ARCH=OFF -DLNCL_WERROR=ON >/dev/null
    # shellcheck disable=SC2086
    cmake --build "$build" -j "$(nproc)" --target $suites
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)" \
      -R "^(${suites// /|})\$"
    continue
  fi
  san="$sweep"
  build="build-san-${san//,/ -}"
  build="${build// /}"
  echo "===== LNCL_SANITIZE=${san} (${build}) ====="
  cmake -B "$build" -S . -DLNCL_SANITIZE="$san" -DLNCL_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$build" -j "$(nproc)"
  ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
  echo "----- ${san}: batched prediction, determinism, aggregators -----"
  ctest --test-dir "$build" --output-on-failure \
    -R 'batch_predict|determinism|inference_test'
  if [ "$san" = "address,undefined,float-cast-overflow" ]; then
    echo "----- ${san}: full suite under LNCL_GEMM_KERNEL=scalar -----"
    LNCL_GEMM_KERNEL=scalar ctest --test-dir "$build" \
      --output-on-failure -j "$(nproc)"
  fi
done

echo "All check sweeps passed."
