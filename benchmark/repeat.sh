#!/usr/bin/env bash
# Repeatability check: the whole suite twice on the same commit (RUNS
# untraced runs per workload and side, default 5), then `compare` with
# --strict, so a row that is `worse` or `unresolved` fails the script.
# Extra arguments go to both suites (e.g. --seconds 5).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${CARGO_TARGET_DIR:-.bench_build}"
for side in a b; do
    bash benchmark/run.sh --runs "${RUNS:-5}" --out "$out/ledger-repeat-$side.json" "$@"
done
bash benchmark/run.sh compare --strict "$out/ledger-repeat-a.json" "$out/ledger-repeat-b.json"
