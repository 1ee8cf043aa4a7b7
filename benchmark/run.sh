#!/usr/bin/env bash
# Build satwatch and satbench (release, offline), then hand every
# argument to satbench:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--seconds S] [--rounds R]           the whole suite
#   benchmark/run.sh aa | check | manifest
#
# Both builds go to $CARGO_TARGET_DIR (default benchmark/target), so
# nothing is written outside ignored directories. Only satbench's
# result goes to stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p satwatch-cli >&2
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/satbench" "$@"
