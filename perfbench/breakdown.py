"""Summarize a trace written by ``run.py --trace 1``.

Usage, from the root of the repository:

    python3 perfbench/breakdown.py .bench_out/trace-gradient-64-seed1.json

For the first traced task that passed its gates it prints the wall time of
each run (forward, adjoint, tangent) per time step with the share spent in
CG solves, the CG iterations per solve grouped by the run that made the
solve, and the share of the traced time spent in each span's own code (self
time, from the task's summary in the trace), largest first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

STAGES = ("forward.run", "adjoint.run", "tangent.run")
SOLVES = ("linsolve.helmholtz", "linsolve.poisson")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path)
    args = parser.parse_args(argv)

    data = json.loads(args.trace.read_text())
    spans = data["spans"]
    first = data["per_task"][0]
    task = [i for i, s in enumerate(spans) if s[5] == first["task"]]

    def stage_of(i):
        while i >= 0 and spans[i][0] not in STAGES:
            i = spans[i][3]
        return spans[i][0] if i >= 0 else "other"

    steps = {"forward.run": "forward.step_ch", "adjoint.run": "adjoint.step_back",
             "tangent.run": "tangent.step"}
    print(f"{data['workload']} seed {data['seed']}, traced task {first['task']}")
    for stage, step in steps.items():
        runs = [spans[i][2] - spans[i][1] for i in task if spans[i][0] == stage]
        nsteps = sum(1 for i in task if spans[i][0] == step)
        if runs:
            cg = sum(spans[i][2] - spans[i][1] for i in task
                     if spans[i][0] in SOLVES and stage_of(i) == stage)
            print(f"  {stage:12s} {len(runs)} runs, {1e3 * sum(runs) / nsteps:.2f} ms "
                  f"per step (traced), {100 * cg / sum(runs):.1f} % in CG solves")
    for solve in SOLVES:
        by_stage = {}
        for i in task:
            if spans[i][0] == solve:
                by_stage.setdefault(stage_of(i), []).append(spans[i][4])
        for stage, iters in sorted(by_stage.items()):
            print(f"  {solve} under {stage}: {len(iters)} solves, iterations "
                  f"median {statistics.median(iters)} mean {statistics.mean(iters):.1f} "
                  f"range {min(iters)}-{max(iters)}")
    self_s = {name: st["self_s"] for name, st in first["layers"].items()}
    total = sum(self_s.values())
    print(f"  self time, share of {total:.3f} s traced:")
    for name, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {100 * t / total:5.1f} %  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
