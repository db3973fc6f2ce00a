#!/usr/bin/env bash
# Builds the `serve` binary and the benchmark package, then runs the
# benchmark. See benchmark/README.md.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (result line last)
#   run.sh [--seed N] [--workload W] [--seconds S] [--reps R]
#          [--traced|--no-traced] [--smoke]                 the suite -> out/result.json
#   run.sh compare A.json B.json                            apply the bounds to two results
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A run measures the library's defaults: nothing that changes how it
# evaluates, or arms its fault injection, may leak in from the caller.
unset INFLOG_THREADS INFLOG_PARALLEL_THRESHOLD INFLOG_EXEC \
      INFLOG_FAILPOINT INFLOG_SERVE_ABORT INFLOG_DUMP_IR

if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/serve" ]]; then
    echo "run.sh: $root is not the inflog repository (no Cargo.toml / crates/serve); nothing to benchmark" >&2
    exit 3
fi

# One target directory for both builds, inside the checkout. A relative
# CARGO_TARGET_DIR means relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

# The tier-1 `cargo build --release` does not build the `serve` binary.
# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p inflog-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/inflog-benchmark"
if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi
exec "$bin" --out "$here/out" "$@"
