#!/usr/bin/env bash
# A/A check: two sets of runs of the same code, as the driver of
# BENCHMARK.json makes them: every workload ten times per set, on seeds 1
# to 10, for `run_seconds`, tracing off. For every end-to-end metric of
# every workload it prints, as a Markdown table, each set's median, the
# spread of each set (distance between the first and third quartile as a
# share of the median) and the shift of the median between the sets, beside
# the metric's bound. The sets run the same code, so a shift in either
# direction, or a spread, beyond the bound is marked `over`, and the script
# then exits 1.
#
#   benchmark/aa.sh > table.md        (about 55 minutes on the 2-core sandbox)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p benchmark/out
results="$(mktemp -d benchmark/out/aa.XXXXXX)"
for set in 1 2; do
    for workload in $workloads; do
        for seed in 1 2 3 4 5 6 7 8 9 10; do
            echo "set $set $workload seed $seed" >&2
            benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                2>/dev/null | tail -n 1 > "$results/$set.$workload.$seed.json"
        done
    done
done
python3 - "$results" <<'PY'
import json, statistics, sys
results = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
print("| workload | metric | median A | median B | spread A | spread B | shift | bound |  |")
print("|---|---|---|---|---|---|---|---|---|")
over = 0
for w in (w["name"] for w in bench["workloads"]):
    sets = []
    for s in (1, 2):
        runs = [json.load(open(f"{results}/{s}.{w}.{seed}.json")) for seed in range(1, 11)]
        assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run of set {s} failed"
        sets.append(runs)
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med.append(statistics.median(values))
            spread.append((q3 - q1) / q2)
        shift = (med[1] - med[0]) / med[0]
        worst = max(abs(shift), *spread)
        mark = "over" if worst > bound else ("" if worst <= bound / 3 else "above a third")
        over += mark == "over"
        print(f"| {w} | {name} | {med[0]:.6g} | {med[1]:.6g} | {spread[0]:.3f} | {spread[1]:.3f} | {shift:+.3f} | {bound} | {mark} |")
sys.exit(1 if over else 0)
PY
