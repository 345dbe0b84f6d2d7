"""Repeat benchmark runs over seeds and check their spread, counts and drift.

Usage, from the root of the repository:

    python3 perfbench/check.py --workload gradient-64 --seeds 1 2 3 4 5
    python3 perfbench/check.py --workload optimize-32 --seeds 1 2 --trace

Each run is ``perfbench/run.py`` in its own process, one after another.
Untraced, the check prints for every end-to-end metric the median of the
per-seed values and their interquartile range as a share of the median,
against the metric's bound in ``BENCHMARK.json``, each run measuring for the
file's ``run_seconds``; ``--save`` writes the
values and ``--against`` compares the medians with a saved set.  Traced, it
checks that every call count (and the optimizer's iteration count) is the
same on every seed, and says which CG iteration totals, and the Laplacian
calls made once per CG iteration, are.  The exit code
is nonzero when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# called once per CG iteration, so it follows the iteration totals
PER_ITERATION_CALLS = {"grid.laplacian_neumann_array.calls"}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def check_spread(spec, workload, runs, against):
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name] for r in runs.values()]
        med, rel = spread(values)
        verdict = "steady" if rel <= bound / 3 else "within bound" if rel <= bound \
            else "TOO WIDE"
        if rel > bound:
            ok = False
        line = (f"{workload:12s} {name:12s} median {med:.6g} {metric['unit']}  "
                f"IQR/median {rel:.4f} (bound {bound}) {verdict}")
        if against is not None:
            base, _ = spread([r[name] for r in against[workload].values()])
            worse = (med - base) / base if metric["better"] == "lower" \
                else (base - med) / base
            line += f"  vs saved median {base:.6g}: {worse:+.4f}"
            if worse > bound:
                ok = False
                line += " WORSE"
        print(line)
    return ok


def check_counts(workload, runs):
    ok = True
    first = next(iter(runs.values()))
    for name in first:
        values = {seed: r[name] for seed, r in runs.items()}
        same = len(set(values.values())) == 1
        if name in PER_ITERATION_CALLS or name.endswith(".iters"):
            print(f"{workload:12s} {name}: {'same on every seed' if same else values}")
        elif name.endswith(".calls") or name == "optimize.iterations":
            if not same:
                ok = False
                print(f"{workload:12s} {name}: differs across seeds {values}")
    print(f"{workload:12s} call counts {'match' if ok else 'DIFFER'} on seeds "
          f"{sorted(runs)}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    against = json.loads(args.against.read_text()) if args.against else None
    results, ok = {}, True
    for workload in args.workload:
        runs = {}
        for seed in args.seeds:
            runs[seed] = run(workload, seed, seconds, args.trace)
            print(f"# {workload} seed {seed}: {json.dumps(runs[seed])}", flush=True)
        results[workload] = runs
        if args.trace:
            ok &= check_counts(workload, runs)
        elif len(args.seeds) >= 2:
            ok &= check_spread(spec, workload, runs, against)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
