#!/bin/sh
# A/A check: run the untraced set twice (one process per workload and side,
# alternating which side goes first) and compare the sides against the bounds
# in BENCHMARK.json. Exits non-zero when any workload x metric differs by
# more than its bound. Extra arguments (--seed N, --seconds S) are passed on.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --aa "$@"
