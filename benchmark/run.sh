#!/usr/bin/env bash
# Builds the ledger in release mode and runs it. With the acceptance
# driver's arguments (--workload NAME --seed N --seconds S --trace 0|1)
# that is one run ending in one JSON line; with none it is the whole
# suite. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
export CARGO_TARGET_DIR
# Everything a run writes (artifact stores, JIT dylibs, rustc and linker
# temporaries) stays under the build directory, inside the checkout.
export LEDGER_SCRATCH="$CARGO_TARGET_DIR/ledger-scratch"
export TMPDIR="$LEDGER_SCRATCH"
mkdir -p "$LEDGER_SCRATCH"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/strober-ledger" "$@"
