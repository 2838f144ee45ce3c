"""Checks one perfbench run's JSON verdict line and gates its wall time.

    tail -n 1 perfbench-figs.txt | python3 .github/perfbench_gate.py figs 2018 BASELINE

Exits 1 unless the run checked out correct with no failed runs and its
`metrics.wall_s.value` is at most 30% above the baseline row
`wall_s <workload> seed=<seed> <seconds>`. A missing row also fails: a
gate that silently passes an unrecorded run guards nothing.
"""

import json
import sys

MAX_REGRESSION = 0.30

workload, seed, baseline_path = sys.argv[1:]
verdict = json.loads(sys.stdin.read())
ok = verdict["correct"] is True and verdict["failed"] == 0
print(f"{workload} seed={seed}: correct: {verdict['correct']} "
      f"failed: {verdict['failed']} of {verdict['attempted']}")

rows = {}
with open(baseline_path) as f:
    for line in f:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "wall_s":
            rows[(fields[1], fields[2])] = float(fields[3])
baseline = rows.get((workload, f"seed={seed}"))
wall_s = verdict["metrics"]["wall_s"]["value"]
if baseline is None:
    print(f"MISSING BASELINE: no 'wall_s {workload} seed={seed}' row in {baseline_path}")
    ok = False
else:
    limit = baseline * (1.0 + MAX_REGRESSION)
    print(f"{workload} seed={seed}: wall_s {wall_s:.3f} s vs baseline {baseline:.3f} s "
          f"(fail above {limit:.3f})")
    if wall_s > limit:
        print(f"WALL_S REGRESSION: {workload} seed={seed} more than 30% above its baseline")
        ok = False
sys.exit(0 if ok else 1)
