#!/usr/bin/env bash
# Build the benchmark, check it against its own description, run it.
#
#   benchmark/run.sh --workload NAME|all --seed N --trace 0|1
#                    [--out DIR] [--quick] [--record]
#   benchmark/run.sh --list
#
# --quick   a tenth of every size, for smoke tests; not a measurement
# --record  also append the run's values to benchmark/history.jsonl
#
# The work of a run is fixed in src/spec.rs. `--seconds 20`, which the
# driver passes from BENCHMARK.json, is accepted and changes nothing;
# any other value is refused.
#
# The last line of standard output is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries only the report.
cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/qmc-benchmark"

args=()
for a in "$@"; do
    if [ "$a" = "--record" ]; then
        sha="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
        cpu="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n 1)"
        args+=(--record "$sha $(uname -sm) $(nproc)x ${cpu:-cpu}")
    else
        args+=("$a")
    fi
done

"$bin" --selfcheck --home "$here" >&2
exec "$bin" --home "$here" "${args[@]}"
