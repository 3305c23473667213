"""One budget per call: every layer under a public entry point has until
the entry point's start + timeout_ms, whatever the layers before it
spent.

A fake clock stands still while the package runs and moves only when a
wrapped layer is called, by a fixed step: the step stands for work that
checks no deadline.  Each wrapper records the deadline its layer is
handed before it moves the clock."""

import math
import sys
import threading
from types import SimpleNamespace

import pytest

from pie import preprocess, prover
from pie.document import Directive, ProcessingContext, run_directive
from pie.elimination import EliminationTask, eliminate
from pie.interpolation import (
    InterpolationError, InterpolationTask, interpolate, symmetric_interpolate,
)
from pie.macros import MacroTable
from pie.prover import ProverConfig, validate
from pie.syntax import parse_formula

START = 100.0
TIMEOUT_MS = 1000

# (module, function, the timeout_ms it reads from its own arguments)
LAYERS = [
    ("pie.prover", "find_countermodel",
     lambda args, kw: kw.get("timeout_ms", 5000)),
    ("pie.prover", "prove_clausal", lambda args, kw: args[1].timeout_ms),
    ("pie.prover", "prove", lambda args, kw: math.inf),
    ("pie.preprocess", "clausify", lambda args, kw: math.inf),
    ("pie.preprocess", "simplify_clausal", lambda args, kw: math.inf),
    ("pie.preprocess", "unskolemize", lambda args, kw: math.inf),
    ("pie.preprocess", "pipeline_c6", lambda args, kw: math.inf),
    ("pie.macros", "expand", lambda args, kw: math.inf),
    ("pie.interpolation", "interpolate",
     lambda args, kw: args[1].timeout_ms),
    ("pie.elimination", "eliminate", lambda args, kw: args[0].timeout_ms),
    ("pie.prover", "validate", lambda args, kw: args[1].timeout_ms),
]


@pytest.fixture
def clock(monkeypatch):
    """The fake clock; clock.handed lists (layer, deadline) pairs."""
    clock = SimpleNamespace(now=START, handed=[], step=0.0)
    fake = SimpleNamespace(monotonic=lambda: clock.now)
    monkeypatch.setattr(preprocess, "time", fake)
    monkeypatch.setattr(prover, "time", fake)
    modules = [m for name, m in sys.modules.items()
               if name.startswith("pie.") and m is not None]
    for modname, name, timeout in LAYERS:
        real = getattr(sys.modules[modname], name)

        def wrapper(*args, real=real, timeout=timeout, **kw):
            clock.handed.append(
                (real.__name__, preprocess.deadline(timeout(args, kw))))
            clock.now += clock.step
            return real(*args, **kw)

        for m in modules:
            if m.__dict__.get(name) is real:
                monkeypatch.setattr(m, name, wrapper)
        for key, fn in preprocess.PIPELINES.items():
            if fn is real:
                monkeypatch.setitem(preprocess.PIPELINES, key, wrapper)
    return clock


CFG = ProverConfig(timeout_ms=TIMEOUT_MS)
ENTRY_POINTS = {
    "validate-valid": lambda: validate(parse_formula("p ; ~p"), CFG),
    "validate-so": lambda: validate(
        parse_formula("all2(q, (q(a) -> q(a)))"), CFG),
    "interpolate": lambda: interpolate(InterpolationTask(
        parse_formula("p, q"), parse_formula("p ; r")), CFG),
    "interpolate-not-valid": lambda: interpolate(InterpolationTask(
        parse_formula("p"), parse_formula("q")), CFG),
    "symmetric_interpolate": lambda: symmetric_interpolate(
        [parse_formula("p"), parse_formula("~p")], CFG),
    "eliminate": lambda: eliminate(EliminationTask(
        parse_formula("ex2(q, (all(x, (q(x) -> r(x))), q(a)))"),
        pre="d6", simp_result="c6", timeout_ms=TIMEOUT_MS)),
    "run_directive": lambda: run_directive(
        Directive("valid", parse_formula("p ; ~p"),
                  {"timeout_ms": TIMEOUT_MS}, ""),
        ProcessingContext(MacroTable())),
}


@pytest.mark.parametrize("step", [0.0, 0.1, 0.3, 0.6])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_layer_gets_past_its_entry_points_budget(clock, entry, step):
    # at a step of 0.6 the model search's 0.5 s share overruns: the
    # proof gets the 0.4 s left, not a fresh 0.5 s
    clock.step = step * TIMEOUT_MS / 1000
    try:
        ENTRY_POINTS[entry]()
    except InterpolationError:  # a part of symmetric_interpolate failed
        assert entry == "symmetric_interpolate"
    assert clock.handed
    end = START + TIMEOUT_MS / 1000
    assert [(layer, d) for layer, d in clock.handed if d > end] == []


def test_an_overrun_shortens_the_next_share(clock):
    # the countermodel search is handed its share, 0.5 s, and spends
    # 0.8 s; the proof after it is handed the 0.2 s left of the one
    # budget, not the other 0.5 s, and its clausification runs out
    clock.step = 0.8
    r = validate(parse_formula("p ; ~p"), CFG)
    assert clock.handed == [("find_countermodel", START + 0.5),
                            ("prove", START + 1.0),
                            ("clausify", START + 1.0)]
    assert r.status == "unknown"
    assert r.proof.reason == "clausification timeout"


def test_a_budget_stays_in_its_thread():
    seen = []
    with preprocess.budget(50):
        t = threading.Thread(target=lambda: seen.append(preprocess.deadline()))
        t.start()
        t.join(5)
    assert not t.is_alive() and seen == [math.inf]
    assert preprocess.deadline() == math.inf
