#!/usr/bin/env bash
# A/A check: two interleaved sets of N full runs of the current tree,
# every run on another seed. Prints, per workload and end-to-end
# metric, both medians, min, max, (max - min) / median and the
# interquartile spread over all 2N runs, and two verdicts:
#
#   issue   what the issue that asked for the benchmark requires:
#           (max - min) / median <= 0.10 (0.05 for peak_heap_mb) and set
#           B's median no worse than set A's by more than that, for every
#           metric, setup_s too
#   driver  what the driver checks against the bound in BENCHMARK.json:
#           interquartile spread <= bound (it exempts setup_s) and set
#           B's median no worse than set A's by more than the bound
#
#   benchmark/aa.sh [N]        (default 5)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-5}"
mkdir -p "$here/out"
log="$here/out/aa.$$.log"
trap 'rm -f "$log"' EXIT

workloads="$(bash "$here/run.sh" --list | cut -f1)"
seed=1
for i in $(seq 1 "$n"); do
    for set in A B; do
        for w in $workloads; do
            line="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)"
            echo "$set $w $line" >>"$log"
            seed=$((seed + 1))
        done
    done
    echo "aa: round $i of $n done" >&2
done

python3 - "$log" "$here/../BENCHMARK.json" <<'PY'
import json, statistics, sys
rows = {}
attempted = {}
bad = []
for line in open(sys.argv[1]):
    which, workload, result = line.split(" ", 2)
    r = json.loads(result)
    attempted.setdefault(workload, set()).add(r["attempted"])
    if not r["correct"] or r["failed"]:
        bad.append(f"{workload}: correct={r['correct']} failed={r['failed']}")
    for name, m in r["metrics"].items():
        rows.setdefault((workload, name), {"A": [], "B": []})[which].append(m["value"])
spec = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}
print(f"{'workload':18} {'metric':20} {'median A':>11} {'median B':>11} {'min':>11} {'max':>11} "
      f"{'range':>7} {'IQR':>7} {'A vs B':>7} {'bound':>6}  {'issue':8} driver")
missed = 0
for (workload, name), sets in rows.items():
    both = sets["A"] + sets["B"]
    med = statistics.median(both)
    a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
    q = statistics.quantiles(both, n=4)
    iqr = (q[2] - q[0]) / med
    rng = (max(both) - min(both)) / med
    # how much worse the second set's median is than the first's
    worse = (b - a) / a if spec[name]["better"] == "lower" else (a - b) / a
    bound = spec[name]["bound"]
    limit = 0.05 if name == "peak_heap_mb" else 0.10
    by_range = rng <= limit and worse <= limit
    by_iqr = (iqr <= bound or name == "setup_s") and worse <= bound
    missed += not by_range
    print(f"{workload:18} {name:20} {a:11.5g} {b:11.5g} {min(both):11.5g} {max(both):11.5g} "
          f"{rng:7.1%} {iqr:7.1%} {worse:+7.1%} {bound:6.2f}  "
          f"{'ok' if by_range else 'OUTSIDE':8} {'ok' if by_iqr else 'OUTSIDE'}")
for workload, counts in attempted.items():
    print(f"{workload}: attempted {sorted(counts)}" + ("" if len(counts) == 1 else "  NOT IDENTICAL"))
print("all runs correct, none failed" if not bad else "\n".join(bad))
print(f"{missed} of {len(rows)} rows outside the issue's limits: unresolved at 0.10 on this host")
PY
