#!/usr/bin/env bash
# One-shot reproduction: build, test, and regenerate every table/figure.
#
#   scripts/run_all.sh            # reduced (laptop) scale, minutes
#   LNCL_FULL=1 scripts/run_all.sh  # paper-scale sweeps, hours
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $b ====="
    "$b"
  fi
done
