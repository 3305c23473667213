"""One measuring process of a run, spawned by `run.py`.

The request comes as JSON on standard input: the workload, its generated
inputs, the seconds to measure and whether to trace.  The worker imports
`pie`, parses the inputs, notes the monotonic clock (the end of set-up),
makes whole passes and prints its tallies as JSON.  With 0 seconds it
only reports the end of set-up.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import layers

MIN_TRACED_PASSES = 2   # per half of a traced run


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def schedule(ops):
    """Indices of one pass: the small operations before, between and after
    the large ones, e.g. S L1 S L2 S; just S when none is large."""
    small = [i for i, op in enumerate(ops) if not op.large]
    order = list(small)
    for i, op in enumerate(ops):
        if op.large:
            order += [i] + small
    return order


class Tally:
    """Outcomes of the operations over the passes of a worker."""

    def __init__(self, ops):
        self.ops = ops
        self.order = schedule(ops)
        self.times = [[] for _ in ops]      # per op, seconds per call
        self.first = [None] * len(ops)      # (signature, judgement)
        self.pass_walls = []
        self.attempted = 0
        self.failed = 0
        self.problems = []                  # wrong answers, new failures

    def one_pass(self):
        wall = 0.0
        for i in self.order:
            op = self.ops[i]
            t0 = time.perf_counter()
            try:
                outcome = op.run()
                error = None
            except Exception as e:          # a failed operation
                outcome, error = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            wall += dt
            self.times[i].append(dt)
            self.attempted += 1
            kind, reason = ("failed", error) if error else \
                self._judge(i, op, outcome)
            if kind != "ok":
                self.failed += 1
                if kind == "wrong" or not op.known_fault:
                    self.problems.append(f"{op.name}: {kind}: {reason}")
        self.pass_walls.append(wall)
        return wall

    def _judge(self, i, op, outcome):
        if op.signature is None:
            return op.judge(outcome)
        sig = op.signature(outcome)
        if self.first[i] is not None and self.first[i][0] == sig:
            return self.first[i][1]
        verdict = op.judge(outcome)
        if self.first[i] is None:
            self.first[i] = (sig, verdict)
        return verdict

    def report(self):
        return {"times": self.times, "walls": self.pass_walls,
                "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


def run_passes(tally, seconds, min_passes, label):
    """Whole passes until the next one would end after `seconds`."""
    start = time.perf_counter()
    while True:
        wall = tally.one_pass()
        elapsed = time.perf_counter() - start
        n = len(tally.pass_walls)
        log(f"{label} pass {n}: {wall:.3f} s")
        if n >= min_passes and elapsed + wall > seconds:
            return elapsed


def traced(ops, seconds, tracer, label):
    """Untraced passes for half the time, traced ones for the other half;
    per-layer figures per traced pass and the tracing overhead."""
    setup = dict(tracer.times)
    plain = Tally(ops)
    run_passes(plain, seconds / 2, MIN_TRACED_PASSES, f"{label} untraced")
    traced_tally = Tally(ops)
    traced_tally.first = plain.first
    tracer.reset()
    tracer.active = tracer.keep_spans = True
    start = time.perf_counter()
    traced_tally.one_pass()
    tracer.keep_spans = False
    run_passes(traced_tally, seconds / 2 - (time.perf_counter() - start),
               MIN_TRACED_PASSES, f"{label} traced")
    tracer.active = False
    n = len(traced_tally.pass_walls)
    metrics = {}
    for name in layers.TIME_METRICS:
        value = tracer.times[name] / n + setup.get(name, 0.0)
        metrics[name] = (value * 1000, "ms")
    for name in layers.COUNT_METRICS:
        total = tracer.counts[name]
        metrics[name] = (total // n if total % n == 0 else total / n,
                         "count")
    overhead = (statistics.median(traced_tally.pass_walls)
                / statistics.median(plain.pass_walls) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    report = plain.report()
    report["attempted"] += traced_tally.attempted
    report["failed"] += traced_tally.failed
    report["problems"] += traced_tally.problems
    report["metrics"] = metrics
    report["spans"] = tracer.spans
    return report


def main():
    request = json.load(sys.stdin)
    import workloads    # imports pie
    workload = request["workload"]
    prepare = workloads.WORKLOADS[workload][1]
    records = [tuple(r) for r in request["records"]]
    tracer = None
    if request["trace"]:
        tracer = layers.Tracer()
        tracer.install()
        tracer.active = True
    ops = prepare(records)
    ready = time.monotonic()
    if tracer is not None:
        tracer.active = False
        report = traced(ops, request["seconds"], tracer, workload)
    elif request["seconds"] > 0:
        tally = Tally(ops)
        measured = run_passes(tally, request["seconds"], 1, workload)
        report = tally.report()
        report["measured_s"] = measured
    else:
        report = {}
    report["ready"] = ready
    report["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
