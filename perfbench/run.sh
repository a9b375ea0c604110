#!/usr/bin/env bash
# Builds the release `knnshap` binary and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload exact_csv --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
/*) target="$CARGO_TARGET_DIR" ;;
*) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path Cargo.toml -p knnshap_cli --bin knnshap 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$target/release/perfbench" --bin "$target/release/knnshap" "$@"
