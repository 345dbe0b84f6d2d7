"""Run one benchmark workload of the nchns solvers and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload forward-128 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run repeats a set-up and the workload's task until
``--seconds`` have passed (at least three times) and reports the end-to-end
metrics: ``setup_s`` and ``task_s`` are the mean set-up and task times,
normalized by a reference computation timed between them (see
``reference.py``).  With ``--trace 1`` it alternates untraced tasks with
tasks traced from outside the package (see ``tracer.py``) for ``--seconds``
and reports the per-layer metrics per task; the spans are written to
``.bench_out/`` under the repository root.  Each run starts with one untimed warm-up task.  Metric
names and units come from ``BENCHMARK.json``.

Every task is checked by the gates in ``workloads.py`` outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("NCHNS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
MIN_TASKS = 3     # tasks per measured phase, even past --seconds


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs a workload's task, gates every run and counts the operations."""

    def __init__(self, wl, errors):
        self.wl = wl
        self.errors = errors
        self.attempted = 0
        self.failed = 0

    def once(self, case, tracer=None):
        """Run the task once (traced if a tracer is given), then its gates.

        Returns (stage times, quality figures, task output), or None when an
        operation raised or failed a gate.
        """
        ops = len(self.wl.operations)
        self.attempted += ops
        times = {}
        if tracer is not None:
            tracer.wrap()
        try:
            out = self.wl.task(case, times)
        except self.errors as exc:
            # the stage that raised was timed too; it and all after it failed
            self.failed += ops - len(times) + 1
            print(f"# failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.unwrap()
        failures, quality = self.wl.check(case, out)
        for msg in (m for ms in failures.values() for m in ms):
            print(f"# gate failed: {msg}", file=sys.stderr)
        failed = sum(1 for ms in failures.values() if ms)
        self.failed += failed
        return None if failed else (times, quality, out)


def measure(runner, seed, seconds):
    """End-to-end metrics, and the stage times and figures for the report."""
    from reference import BURST_S, Speedometer, repeat_for
    speed = Speedometer()
    # warm-up: first-call costs are part of neither setup_s nor task_s
    case = runner.wl.setup(seed)
    runner.once(case)
    speed.burst()
    speed.times.clear()
    setup_times, passed, tasks = [], [], 0
    end = perf_counter() + seconds
    while tasks < MIN_TASKS or perf_counter() < end:
        # set-ups before every task spread the set-up samples over the run
        # like the task samples; the tasks keep using the warm case
        speed.burst()
        # as many set-ups as fit in a burst, at least one
        repeat_for(BURST_S, lambda: runner.wl.setup(seed), setup_times)
        speed.burst()
        result = runner.once(case)
        tasks += 1
        if result is not None:
            passed.append(result[:2])
        # drop the task output so that one trajectory at a time is alive
        del result
    speed.burst()
    # Every set-up and every task of a run does the same deterministic work,
    # but other tenants of a shared machine slow some of them down (see
    # reference.py): setup_s and task_s are the mean times normalized by the
    # reference computation.  The measured median, fastest and slowest are
    # reported alongside.
    values = {"setup_s": speed.normalized(setup_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    report = {"setups": len(setup_times), "setup_s_median": statistics.median(setup_times),
              "setup_s_min": min(setup_times), "setup_s_max": max(setup_times),
              "tasks": len(passed), "failed_frac": runner.failed / runner.attempted,
              "reference_calls": len(speed.times), "reference_s_min": min(speed.times),
              "reference_s_mean": statistics.fmean(speed.times)}
    if passed:
        totals = [sum(times.values()) for times, _ in passed]
        values["task_s"] = speed.normalized(totals)
        report["task_s_median"] = statistics.median(totals)
        report["task_s_min"] = min(totals)
        report["task_s_max"] = max(totals)
        for key in passed[0][0]:
            report[key] = speed.normalized([times[key] for times, _ in passed])
        for key in passed[0][1]:
            report[key] = statistics.median(q[key] for _, q in passed)
    return values, report


def trace(runner, seed, seconds):
    """Per-layer metrics from traced tasks, alternated with untraced ones."""
    from tracer import Tracer
    case = runner.wl.setup(seed)
    runner.once(case)      # warm-up, as in measure()
    tracer = Tracer()
    plain, traced, per_task = [], [], []
    end = perf_counter() + seconds
    while not tracer.task or perf_counter() < end:
        result = runner.once(case)
        if result is not None:
            plain.append(sum(result[0].values()))
        del result
        # a new id for every traced attempt, so a failed task's spans are
        # never counted with the next task's
        tracer.task += 1
        result = runner.once(case, tracer)
        if result is not None:
            stats = tracer.summary(tracer.task)
            per_task.append((tracer.task, stats, optimizer_figures(result[2], stats)))
            traced.append(sum(result[0].values()))
        del result
    if not (plain and traced):
        return {}, {}
    values = {}
    for name in tracer.span_names:
        for stat in ("calls", "s", "self_s", "iters"):
            values[f"{name}.{stat}"] = statistics.median(
                stats.get(name, {}).get(stat, 0) for _, stats, _ in per_task)
    for key in per_task[0][2]:
        values[key] = statistics.median(figures[key] for _, _, figures in per_task)
    for key, value in values.items():
        if key.endswith((".calls", ".iters", ".iterations")):
            values[key] = int(value) if value == int(value) else value
    # the two kinds of task alternate, so they meet the same slowdowns
    values["trace.overhead"] = statistics.fmean(traced) / statistics.fmean(plain)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{runner.wl.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": runner.wl.name, "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "iters", "task"],
        "spans": tracer.spans,
        "per_task": [{"task": task, "layers": stats} for task, stats, _ in per_task]}))
    return values, {"trace_file": str(path.relative_to(ROOT)),
                    "traced_tasks": len(traced), "untraced_tasks": len(plain)}


def optimizer_figures(out, stats):
    """Iterations, median seconds per iteration and accepted / trial runs."""
    state = out.get("state") if out else None
    if state is None:
        return {"optimize.iterations": 0, "optimize.iter_s": 0.0,
                "optimize.accept_ratio": 0.0}
    marks = out["iter_marks"]
    steps = [b - a for a, b in zip(marks, marks[1:])]
    trials = stats.get("forward.run", {}).get("calls", 1) - 1
    accepted = len(state.step_norm_history)
    return {"optimize.iterations": state.iterations,
            "optimize.iter_s": statistics.median(steps) if steps else 0.0,
            "optimize.accept_ratio": accepted / trials if trials else 1.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # thread caps must be in place before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nchns
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot load the package or BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if not Path(nchns.__file__).resolve().is_relative_to(src):
        print(f"perfbench: nchns imported from {nchns.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    header = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": git_commit(),
              "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              **{var: os.environ[var] for var in THREAD_VARS}}
    print("# env " + json.dumps(header), flush=True)

    runner = Runner(wl, workloads.STAGE_ERRORS)
    if args.trace:
        values, report = trace(runner, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, report = measure(runner, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    print("# report " + json.dumps(report), flush=True)
    correct = runner.failed == 0 and all(m["name"] in values for m in wanted)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
