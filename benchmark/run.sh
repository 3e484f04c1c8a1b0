#!/usr/bin/env bash
# The repository benchmark: build the harness, then run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of stdout is its result
#   benchmark/run.sh [--seed N] [--traced]
#       every workload, each in a process of its own
#   benchmark/run.sh --check-repeat [--seed N]
#       the untraced suite twice; fails if any end-to-end metric moved by
#       more than its bound between the two
#
# Run it from the root of a checkout. Everything it writes goes under
# benchmark/out/ and the cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr, so stdout stays the harness's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

RQM_BENCH_RUSTC="$(rustc --version)"
export RQM_BENCH_RUSTC
exec "$target/release/rqm-benchmark" --out "$here/out" "$@"
