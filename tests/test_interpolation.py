"""Craig-Lyndon interpolation from side-labeled clausal tableaux."""

import itertools
import time
from types import SimpleNamespace

import pytest

from pie import interpolation, preprocess
from pie.formula import Implies, free_symbols, neg
from pie.interpolation import (
    Interpolant, InterpolationTask, emit_tableau_dot, interpolate,
    symmetric_interpolate,
)
from pie.prover import ProverConfig, check_tableau, prove_implication
from pie.syntax import parse_formula, print_text

from oracles import (
    eval_prop, fo_equivalent, prop_atoms, prop_corpus, prop_entails,
)

CFG = ProverConfig(timeout_ms=5000)


def ipol(left, right, **kw):
    task = InterpolationTask(parse_formula(left), parse_formula(right), **kw)
    return interpolate(task, CFG)


def pred_pols(f):
    return {(o.name, o.arity): o.polarity
            for o in free_symbols(f) if o.kind == "predicate"}


def craig_lyndon_ok(left, right, h):
    """Independent check of the Craig-Lyndon conditions."""
    lp, rp = pred_pols(left), pred_pols(right)
    for key, pol in pred_pols(h).items():
        if key not in lp or key not in rp:
            return False
        need = {pol} if pol != "both" else {"pos", "neg"}
        for p in need:
            if lp[key] not in (p, "both") or rp[key] not in (p, "both"):
                return False
    return True


# ---------------------------------------------------------------------------
# Headline examples

def test_propositional_interpolant_exact():
    out = ipol("p, q", "p ; r")
    assert out.status == "interpolant"
    assert print_text(out.formula) == "p"


def test_quantified_interpolant():
    out = ipol("all(x, p(a, x)), q", "ex(x, p(x, b)) ; r")
    assert out.status == "interpolant"
    assert fo_equivalent(out.formula,
                         parse_formula("ex(x, all(y, p(x, y)))"))
    names = {o.name for o in free_symbols(out.formula)}
    assert names == {"p"}


def test_tableau_interpolation_example():
    out = ipol("all(x, p(x)), all(x, (p(x) -> q(x)))", "q(c)",
               simp_sides=False)
    assert out.status == "interpolant"
    assert fo_equivalent(out.formula, parse_formula("all(x, q(x))"))
    names = {o.name for o in free_symbols(out.formula)}
    assert names == {"q"}


def test_not_valid_reports_model():
    out = ipol("p", "q")
    assert out.status == "not_valid"
    assert out.model is not None
    assert out.model.eval(parse_formula("~(p -> q)")) is True


# ---------------------------------------------------------------------------
# Craig-Lyndon conditions on the propositional corpus

def test_craig_lyndon_conditions_propositional():
    corpus = prop_corpus(200)[:200]
    pairs = 0
    for left, right in itertools.islice(
            zip(corpus, reversed(corpus)), 200):
        if not prop_entails(left, right):
            continue
        out = interpolate(InterpolationTask(left, right), CFG)
        assert out.status == "interpolant", (left, right)
        h = out.formula
        assert prop_entails(left, h)
        assert prop_entails(h, right)
        assert craig_lyndon_ok(left, right, h), \
            (print_text(left), print_text(right), print_text(h))
        pairs += 1
    assert pairs >= 20


# ---------------------------------------------------------------------------
# First-order spot checks with both entailment directions proved

@pytest.mark.parametrize("left,right,shared", [
    ("all(x, (p(x) -> q(x))), p(a)", "q(a) ; r(b)", {"q", "a"}),
    ("p(a), a=b", "p(b)", {"p", "b", "="}),
    ("all(x, p(x))", "p(c) ; s", {"p"}),
])
def test_fo_interpolants(left, right, shared):
    out = ipol(left, right)
    assert out.status == "interpolant"
    lf, rf = parse_formula(left), parse_formula(right)
    assert prove_implication(lf, out.formula, CFG).proved
    assert prove_implication(out.formula, rf, CFG).proved
    names = {o.name for o in free_symbols(out.formula)}
    lnames = {o.name for o in free_symbols(lf)} | {"="}
    rnames = {o.name for o in free_symbols(rf)} | {"="}
    assert names <= (lnames & rnames)


def test_interpolation_proof_passes_checker():
    out = ipol("p, q", "p ; r")
    assert out.proof is not None
    assert check_tableau(out.proof.tableau, out.proof.clauses)


# ---------------------------------------------------------------------------
# Second-order sides are reduced before interpolating

def test_second_order_definiens_input():
    kb2 = ("all(x, (p(x) -> q(x), s(x))), all(x, (s(x) -> r(x))), "
           "all(x, (q(x), r(x) -> p(x)))")
    out = ipol(f"ex2([p,s], ({kb2}, p(a)))",
               f"all2([p,s], ({kb2} -> p(a)))")
    assert out.status == "interpolant"
    assert fo_equivalent(out.formula, parse_formula("q(a), r(a)"))


# ---------------------------------------------------------------------------
# Symmetric interpolation

def test_irreducible_second_order_input_fails():
    out = ipol("q", "ex2(p, p)")
    assert out.status == "failed"
    assert out.proof.reason.startswith("irreducible")


def test_symmetric_interpolation():
    parts = [parse_formula("p, s"), parse_formula("~p ; q"),
             parse_formula("~q")]
    hs = symmetric_interpolate(parts, CFG)
    assert len(hs) == 3
    # jointly unsatisfiable
    atoms = sorted({a for h in hs for a in prop_atoms(h)})
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        assert not all(eval_prop(h, env) for h in hs)
    # each part entails its interpolant
    for f, h in zip(parts, hs):
        assert prop_entails(f, h)
    # vocabulary of each h is shared with the other parts
    for i, h in enumerate(hs):
        others = {o.name for j, f in enumerate(parts) if j != i
                  for o in free_symbols(f)}
        mine = {o.name for o in free_symbols(parts[i])}
        assert {o.name for o in free_symbols(h)} <= (mine & others)


def test_symmetric_interpolation_shares_one_budget(monkeypatch):
    # each interpolate call is taken to use all the time it is given; at
    # most the caller's budget may be handed out in all
    now, given = [0.0], []

    def spend_all(task, config):
        given.append(preprocess.deadline(config.timeout_ms) - now[0])
        now[0] += given[-1]
        return Interpolant(parse_formula("p"))

    monkeypatch.setattr(preprocess, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(interpolation, "interpolate", spend_all)
    parts = [parse_formula("p, s"), parse_formula("~p ; q"),
             parse_formula("~q")]
    symmetric_interpolate(parts, ProverConfig(timeout_ms=900))
    assert len(given) == 3 and given[0] == 0.9 and sum(given) <= 0.9


@pytest.mark.parametrize("left, right, reason", [
    ("all(x, ex(y, r(x,y)))", "all(x, ex(y, r(x,y)))",
     "function sk1/1 is not shared"),
    ("all(x, r(x, f(x)))", "all(x, ex(y, r(x,y)))",
     "function f/1 is not shared"),
    ("a = b", "s(a) -> s(b)",
     "predicate s/1 (both) is not shared"),
    ("all(x, (q(x) -> x = a)), q(b)", "p(b) -> p(a)",
     "predicate p/1 (both) is not shared"),
], ids=["skolem-function", "left-function", "equality", "equality-lyndon"])
def test_interpolant_with_an_unshared_symbol_fails(left, right, reason):
    # each gave an "interpolant" with the symbol named: all(x, r(x,sk1(x))),
    # all(x, r(x,f(x))), ~s(a); s(b) and ~p(b); p(a)
    out = ipol(left, right)
    assert out.status == "failed"
    assert out.proof.reason == reason


# ---------------------------------------------------------------------------
# DOT output

def test_dot_output_grammar(tmp_path):
    path = tmp_path / "tableau.dot"
    out = ipol("all(x, p(x)), all(x, (p(x) -> q(x)))", "q(c)",
               simp_sides=False, dot_path=str(path))
    assert out.status == "interpolant"
    text = path.read_text()
    assert text.startswith("digraph tableau {")
    assert text.rstrip().endswith("}")
    assert "style=dashed" in text      # closure edges
    assert "lightgrey" in text         # right-side shading


@pytest.mark.parametrize("simp_sides", [True, False])
def test_interpolation_keeps_its_budget(simp_sides):
    # the left side's clausal form has 2^18 clauses
    d = " ; ".join(f"(a{i}, b{i})" for i in range(18))
    f = parse_formula(f"({d}) -> ({d})")
    t0 = time.monotonic()
    out = interpolate(InterpolationTask(f.lhs, f.rhs, simp_sides=simp_sides),
                      ProverConfig(timeout_ms=100))
    assert time.monotonic() - t0 < 1.2 * 0.1 + 0.05
    assert out.status == "failed"
    assert out.proof.reason == "clausification timeout"


@pytest.mark.parametrize("simp_sides", [True, False])
def test_countermodel_search_keeps_the_budget(simp_sides):
    # the proof search runs to the deadline, so the countermodel search
    # after it may have no time of its own
    d = " ; ".join(f"(a{i}, b{i})" for i in range(10))
    f = parse_formula(f"({d}) -> ({d})")
    t0 = time.monotonic()
    out = interpolate(InterpolationTask(f.lhs, f.rhs, simp_sides=simp_sides),
                      ProverConfig(timeout_ms=500))
    assert time.monotonic() - t0 < 1.2 * 0.5 + 0.05
    assert out.status == "failed"


@pytest.mark.parametrize("simp_sides", [False, True])
def test_countermodel_search_keeps_its_share(simp_sides):
    # the proof search runs to its deadline; the countermodel search
    # after it still has its share of the budget, so the invalid
    # implication is found not valid.  With simp_sides, simplifying the
    # left side's 1,024 clauses takes about 0.05 s of the proof's 0.25 s
    d = " ; ".join(f"(a{i}, b{i})" for i in range(10))
    e = " ; ".join(f"(a{i}, b{i})" for i in range(9))
    f = parse_formula(f"({d}) -> ({e})")
    t0 = time.monotonic()
    out = interpolate(InterpolationTask(f.lhs, f.rhs, simp_sides=simp_sides),
                      ProverConfig(timeout_ms=500))
    assert time.monotonic() - t0 < 1.2 * 0.5 + 0.05
    assert out.status == "not_valid"
    assert not out.model.eval(f)
