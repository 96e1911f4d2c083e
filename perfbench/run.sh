#!/usr/bin/env bash
# Build the release daemon and the benchmark from source, then run one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload <solve-mix|hot-cache|figure-grid|dist-solve> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); results go to .perfbench/.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (crates/serve not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p pubopt-serve --bin pubopt-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/pubopt-serve" "$@"
