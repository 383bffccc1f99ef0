#!/usr/bin/env bash
# The benchmark's one command: builds release/offline, then runs
# sg-benchmark with the arguments given (see README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
#   benchmark/run.sh [--seed N]                                      all four workloads, untraced + traced
#   benchmark/run.sh --smoke                                         10 timed rounds each, all checks on
#   benchmark/run.sh --aa                                            the suite twice, compared to the bounds
#
# Run from anywhere; a relative CARGO_TARGET_DIR is taken against the
# current directory, as cargo does. Without one, builds go to
# benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/sg-benchmark" "$@"
