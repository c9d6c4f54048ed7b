#!/usr/bin/env bash
# Builds ned-cli and the benchmark program from the checkout, then runs
# the benchmark with the given arguments:
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of the repository.
set -euo pipefail
# Both workspaces build into one target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin ned-cli >&2
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --cli "$CARGO_TARGET_DIR/release/ned-cli" "$@"
