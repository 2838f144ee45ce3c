"""Checks one perfbench run's JSON verdict line and gates its times.

    tail -n 1 perfbench-figs.txt | python3 .github/perfbench_gate.py figs 2018 BASELINE

Exits 1 unless the run checked out correct with no failed runs and each
gated metric (`metrics.<name>.value`, for `wall_s` and `setup_s`) is at
most 30% above its baseline row `<name> <workload> seed=<seed> <seconds>`.
A missing row also fails: a gate that silently passes an unrecorded run
guards nothing.
"""

import json
import sys

MAX_REGRESSION = 0.30
GATED = ("wall_s", "setup_s")

workload, seed, baseline_path = sys.argv[1:]
verdict = json.loads(sys.stdin.read())
ok = verdict["correct"] is True and verdict["failed"] == 0
print(f"{workload} seed={seed}: correct: {verdict['correct']} "
      f"failed: {verdict['failed']} of {verdict['attempted']}")

rows = {}
with open(baseline_path) as f:
    for line in f:
        fields = line.split()
        if len(fields) == 4 and fields[0] in GATED:
            rows[(fields[0], fields[1], fields[2])] = float(fields[3])
for metric in GATED:
    baseline = rows.get((metric, workload, f"seed={seed}"))
    value = verdict["metrics"][metric]["value"]
    if baseline is None:
        print(f"MISSING BASELINE: no '{metric} {workload} seed={seed}' row in {baseline_path}")
        ok = False
        continue
    limit = baseline * (1.0 + MAX_REGRESSION)
    print(f"{workload} seed={seed}: {metric} {value:.3f} s vs baseline {baseline:.3f} s "
          f"(fail above {limit:.3f})")
    if value > limit:
        print(f"{metric.upper()} REGRESSION: {workload} seed={seed} more than 30% above its baseline")
        ok = False
sys.exit(0 if ok else 1)
