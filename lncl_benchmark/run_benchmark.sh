#!/usr/bin/env bash
# The one command for the repository benchmark. Runs every workload in its
# own process (so peak_rss_mb is per workload), then every workload traced,
# then the benchmark self-test, printing every metric with its unit. Exits
# non-zero if any output check or the self-test failed.
#
#   lncl_benchmark/run_benchmark.sh --seed=N
#
# Each untraced run measures for BENCHMARK.json's run_seconds. Builds into
# .bench_build/ at the repository root on first use; traces go to
# .bench_build/trace/. Takes about three minutes.
set -euo pipefail

usage() {
  echo "usage: $0 --seed=N" >&2
  exit 2
}

[[ $# -eq 1 && "$1" =~ ^--seed=[0-9]+$ ]] || usage
seed="${1#--seed=}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

status=0
for trace in 0 1; do
  for workload in sentiment_fit ner_fit ner_serve ner_aggregate; do
    echo "=== $workload seed=$seed trace=$trace"
    python3 lncl_benchmark/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" || status=1
  done
done

echo "=== benchmark_selftest"
cmake --build .bench_build --target benchmark_selftest >/dev/null &&
  ctest --test-dir .bench_build -R benchmark_selftest --output-on-failure ||
  status=1

if [[ $status -ne 0 ]]; then
  echo "run_benchmark: FAILED (see the output checks above)" >&2
fi
exit $status
