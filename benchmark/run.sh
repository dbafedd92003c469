#!/usr/bin/env bash
# The repository's wall-clock benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run; the last line of stdout is its JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W]
#       every workload untraced then traced, into benchmark/out/results.json
#   benchmark/run.sh --agree [--seed N] [--seconds S] [--workload W]
#       the end-to-end set twice, compared against the bounds of BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Fixed settings: shipped defaults everywhere, one evaluation thread.
for name in "${!MAGMA_@}"; do unset "$name"; done
export MAGMA_THREADS=1

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p magma-bench --bin magma_server >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target/benchmark" >&2

bin=magma_benchmark
if [[ " $* " == *" --trace 1 "* ]]; then bin=magma_benchmark_traced; fi
exec "$target/benchmark/release/$bin" --server "$target/release/magma_server" "$@"
