"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` replaces public functions of the `pie` modules by
wrappers, in every `pie` module namespace that holds the original, so
that calls from one layer into another are caught as well as calls from
the benchmark.  Nothing in the package is edited.  A span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric, module, attribute, time kind).  Several attributes may feed one
# metric; "total" adds the spans of the metric that have no enclosing span
# of the same metric, "self" adds self times.
SPANS = [
    ("syntax.parse_ms", "pie.syntax", "parse_formula", "total"),
    ("syntax.parse_ms", "pie.syntax", "Parser.__init__", "total"),
    ("syntax.parse_ms", "pie.syntax", "Parser.parse_formula", "total"),
    ("syntax.parse_ms", "pie.syntax", "Parser.parse_arg", "total"),
    ("syntax.print_ms", "pie.syntax", "print_latex", "total"),
    ("syntax.print_ms", "pie.syntax", "print_text", "total"),
    ("document.load_ms", "pie.document", "load_document", "total"),
    ("document.directive_ms", "pie.document", "run_directive", "self"),
    ("macros.expand_ms", "pie.macros", "expand", "total"),
    ("preprocess.clausify_ms", "pie.preprocess", "clausify", "total"),
    ("preprocess.simplify_ms", "pie.preprocess", "simplify_clausal",
     "total"),
    ("preprocess.unskolemize_ms", "pie.preprocess", "unskolemize", "total"),
    ("preprocess.pipeline_ms", "pie.preprocess", "pipeline_c6", "total"),
    ("preprocess.pipeline_ms", "pie.preprocess", "pipeline_d6", "total"),
    ("prover.search_ms", "pie.prover", "prove_clausal", "self"),
    ("prover.model_search_ms", "pie.prover", "find_countermodel", "total"),
    ("prover.check_ms", "pie.prover", "check_tableau", "total"),
    ("elimination.eliminate_ms", "pie.elimination", "eliminate", "self"),
    ("elimination.ackermann_ms", "pie.elimination", "ackermann_rewrite",
     "total"),
    ("interpolation.interpolate_ms", "pie.interpolation", "interpolate",
     "self"),
    ("interpolation.extract_ms", "pie.interpolation",
     "extract_from_tableau", "total"),
    ("interpolation.generalize_ms", "pie.interpolation",
     "generalize_constants", "total"),
]


def _count_expand(args, result):
    return {"macros.expand_calls": 1}


def _count_clausify(args, result):
    return {"preprocess.clauses_out": len(result.clauses)}


def _count_simplify(args, result):
    return {"preprocess.clauses_removed":
            len(args[0].clauses) - len(result.clauses)}


def _count_search(args, result):
    return {"prover.inferences": result.inferences,
            "prover.depth_sum": result.depth or 0}


def _count_models(args, result):
    return {"prover.model_search_calls": 1,
            "prover.models_found": int(result is not None)}


COUNTS = {
    ("pie.macros", "expand"): _count_expand,
    ("pie.preprocess", "clausify"): _count_clausify,
    ("pie.preprocess", "simplify_clausal"): _count_simplify,
    ("pie.prover", "prove_clausal"): _count_search,
    ("pie.prover", "find_countermodel"): _count_models,
}

TIME_METRICS = sorted({m for m, _, _, _ in SPANS})
COUNT_METRICS = ["macros.expand_calls", "preprocess.clauses_out",
                 "preprocess.clauses_removed", "prover.inferences",
                 "prover.depth_sum", "prover.model_search_calls",
                 "prover.models_found"]


class Tracer:
    """Aggregates span times and counts while `active` is true, and keeps
    the raw spans of the first recorded pass for the trace file."""

    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.times = defaultdict(float)     # metric -> seconds
        self.counts = defaultdict(int)
        self.spans = []                     # (id, parent, name, start, end)
        self._stack = []                    # [span id, child seconds]
        self._next_id = 0
        self._open = defaultdict(int)       # metric -> open span depth
        self._patched = []                  # (owner, attribute, original)

    def reset(self):
        self.times.clear()
        self.counts.clear()

    def _wrap(self, metric, kind, label, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            tracer._open[metric] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                tracer._stack.pop()
                tracer._open[metric] -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if kind == "self":
                    tracer.times[metric] += dt - frame[1]
                elif tracer._open[metric] == 0:
                    tracer.times[metric] += dt
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], parent, label, t0, t1))
            if count is not None:
                for name, n in count(args, result).items():
                    tracer.counts[name] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every function of SPANS wherever a pie module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "pie" or name.startswith("pie."))
                   and m is not None]
        for metric, modname, attr, kind in SPANS:
            owner = sys.modules[modname]
            label = f"{modname}.{attr}"
            count = COUNTS.get((modname, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patched.append((cls, meth, fn))
                setattr(cls, meth,
                        self._wrap(metric, kind, label, fn, count))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(metric, kind, label, fn, count)
            for m in modules:
                if m.__dict__.get(attr) is fn:
                    self._patched.append((m, attr, fn))
                    setattr(m, attr, wrapper)
                # dispatch tables such as preprocess.PIPELINES
                for table in list(m.__dict__.values()):
                    if not isinstance(table, dict):
                        continue
                    for key, value in list(table.items()):
                        if value is fn:
                            self._patched.append((table, key, fn))
                            table[key] = wrapper

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._patched.clear()
