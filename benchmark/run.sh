#!/usr/bin/env bash
# Builds the ledger (release, offline) and runs it with the given
# arguments, from the root of the checkout:
#
#   bash benchmark/run.sh --workload serve_admit --seed 1 --seconds 12 --trace 0
#   bash benchmark/run.sh --sets 2
#   bash benchmark/run.sh --smoke
#
# The build goes into $CARGO_TARGET_DIR when the caller sets it, else into
# the repo's own target/, so the workspace crates are compiled once and the
# root Cargo.toml / Cargo.lock stay untouched. cargo's output goes to
# stderr; the ledger's result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pqos-ledger" "$@"
