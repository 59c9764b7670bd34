#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the root of the checkout:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#
# Prints every metric as `workload name value unit`, then one JSON object
# as the last line. Exits non-zero on a build failure, a response that
# differs bitwise from a direct forward, a ticket that does not reconcile,
# or a metric name outside [A-Za-z0-9_.-]. Without --workload it runs all
# four, each in a process of its own.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# A relative CARGO_TARGET_DIR is relative to the checkout root.
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/pim-benchmark" "$@"
