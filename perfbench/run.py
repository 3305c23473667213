"""Run one workload of the benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the measuring is split over up to WORKERS fresh,
single-threaded interpreters (`worker.py`), one after another, each
measuring whole passes for its share of `--seconds`.  Two processes
started together on a shared machine can run 20% apart; pooling several
processes evens out such differences.  The end-to-end metrics, measured
untraced, are:

* wall_s         median over all passes of one pass's summed operation time
* op_geomean_ms  geometric mean over operations of each one's median time
* setup_s        median over SETUP_SAMPLES fresh interpreters of the time
                 from spawning the interpreter to having parsed the inputs
* peak_rss_mb    the largest peak resident memory of a measuring process

With `--trace 1` one worker makes untraced passes for half the time and
traced passes for the other half, and the run prints the per-layer
metrics of `layers.py` per traced pass, the tracing overhead, and two
figures from fresh interpreters (`cli.import_ms`, `cli.process_fixture_ms`).
The raw spans of the first traced pass go to `.bench_out/trace-*.json`;
an untraced run writes each operation's median and largest time to
`.bench_out/ops-*.json`.

Every pass runs the same operations, so the share of failed operations
is the same in every run.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKERS = 4             # measuring processes per untraced run, at most
SETUP_SAMPLES = 5       # workers plus set-up-only interpreters
IMPORT_PROBES = 5
FIXTURE_PROBES = 3
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def spawn_worker(workload, records, seconds, trace):
    """Run worker.py to its end; returns its report and its set-up time,
    from the spawn to the end of parsing the inputs."""
    request = json.dumps({"workload": workload, "records": records,
                          "seconds": seconds, "trace": trace})
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                         input=request, stdout=subprocess.PIPE, text=True,
                         env=_child_env(), timeout=CHILD_TIMEOUT_S,
                         check=True)
    report = json.loads(out.stdout)
    return report, report["ready"] - t0


def import_ms():
    code = ("import time; t = time.perf_counter(); import pie; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_child_env(),
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip()) * 1000


def process_fixture_ms():
    """`pie process fixtures/workbench.pie` as a subprocess."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pie.cli", "process",
                    os.path.join("fixtures", "workbench.pie")],
                   capture_output=True, env=_child_env(), cwd=ROOT,
                   timeout=CHILD_TIMEOUT_S, check=True)
    return (time.perf_counter() - t0) * 1000


def write_json(name, data):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def end_to_end(workload, seed, records, op_names, seconds):
    """Workers one after another, each for an equal share of the time
    left and at least one pass, then set-up-only interpreters."""
    reports, setups = [], []
    measured = 0.0
    while len(reports) < WORKERS and measured < seconds:
        share = (seconds - measured) / (WORKERS - len(reports))
        report, setup = spawn_worker(workload, records, share, 0)
        reports.append(report)
        setups.append(setup)
        measured += report["measured_s"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_worker(workload, records, 0, 0)[1])
    times = [sum((r["times"][i] for r in reports), [])
             for i in range(len(op_names))]
    walls = sum((r["walls"] for r in reports), [])
    write_json(f"ops-{workload}-{seed}.json", {
        name: {"median_ms": statistics.median(t) * 1000,
               "max_ms": max(t) * 1000, "calls": len(t)}
        for name, t in zip(op_names, times)})
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_geomean_ms": (math.exp(statistics.fmean(
            math.log(statistics.median(t) * 1000) for t in times)), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in reports), "MB"),
    }
    return reports, metrics


def traced(workload, seed, records, seconds):
    report, _ = spawn_worker(workload, records, seconds, 1)
    metrics = {name: tuple(v) for name, v in report["metrics"].items()}
    metrics["cli.import_ms"] = (statistics.median(
        import_ms() for _ in range(IMPORT_PROBES)), "ms")
    metrics["cli.process_fixture_ms"] = (statistics.median(
        process_fixture_ms() for _ in range(FIXTURE_PROBES)), "ms")
    path = write_json(f"trace-{workload}-{seed}.json", {
        "columns": ["id", "parent", "name", "start_s", "end_s"],
        "spans": report["spans"]})
    log(f"spans of the first traced pass: {path}")
    return [report], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pie", "__init__.py")):
        log(f"no package to measure: {SRC}/pie is missing")
        return 2
    sys.path.insert(0, SRC)
    import pie
    if not os.path.abspath(pie.__file__).startswith(SRC + os.sep):
        log(f"pie was imported from {pie.__file__}, not from {SRC}")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}")
        return 2
    make_inputs, prepare = workloads.WORKLOADS[args.workload]
    records = make_inputs(args.seed)
    op_names = [op.name for op in prepare(records)]

    if args.trace:
        reports, metrics = traced(args.workload, args.seed, records,
                                  args.seconds)
    else:
        reports, metrics = end_to_end(args.workload, args.seed, records,
                                      op_names, args.seconds)

    problems = [p for r in reports for p in r["problems"]]
    for problem in dict.fromkeys(problems):
        log(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
