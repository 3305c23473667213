"""Model-elimination prover, tableau checker, countermodels, validation."""

import contextlib
import importlib.util
import itertools
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pie.formula import (
    Atom, Context, Eq, Fn, ForAll, Implies, Var, map_atom, neg,
)
from pie.preprocess import Clause, clausify
from pie import prover
from pie.prover import (
    Model, ProverConfig, check_tableau, find_countermodel, prove, prove_clausal,
    prove_implication, reduce_so_universal, side_clauses, validate,
)
from pie.syntax import parse_formula, print_text

from oracles import prop_atoms, prop_corpus, truth_table, eval_prop
from test_elimination import BENCH_ORACLES

FAST = ProverConfig(timeout_ms=3000)


VALID = [
    "p ; ~p",
    "(p -> q) -> (~q -> ~p)",
    "((p -> q), (q -> r)) -> (p -> r)",
    "all(x, p(x)) -> p(a)",
    "all(x, (p(x) -> q(x))), all(x, p(x)) -> all(x, q(x))",
    "ex(x, all(y, r(x, y))) -> all(y, ex(x, r(x, y)))",
    "all(x, p(x)) -> ex(x, p(x))",
    "a=b -> b=a",
    "(a=b, b=c) -> a=c",
    "(a=b, p(a)) -> p(b)",
    "a=b -> f(a)=f(b)",
    "all([x,y], (r(x,y) -> r(y,x))), r(a,b) -> r(b,a)",
    "~(ex(y, all(x, (shaves(y,x) <-> ~shaves(x,x)))))",
    "(all(x, (p(x) ; q(x))), ~p(a)) -> q(a)",
]

INVALID = [
    "p",
    "p -> q",
    "ex(x, p(x)) -> all(x, p(x))",
    "all(y, ex(x, r(x, y))) -> ex(x, all(y, r(x, y)))",
    "p(a) -> p(b)",
    "a=b",
    "(p ; q) -> p",
]


@pytest.mark.parametrize("src", VALID)
def test_proves_valid(src):
    r = prove(parse_formula(src), FAST)
    assert r.proved, r.reason
    assert check_tableau(r.tableau, r.clauses)


@pytest.mark.parametrize("src", INVALID)
def test_countermodel_for_invalid(src):
    f = parse_formula(src)
    m = find_countermodel(f)
    assert m is not None
    # the countermodel must actually falsify the formula
    assert m.eval(neg(f)) is True


@pytest.mark.parametrize("src", INVALID)
def test_prover_does_not_prove_invalid(src):
    r = prove(parse_formula(src), ProverConfig(timeout_ms=500, max_depth=6))
    assert not r.proved


# ---------------------------------------------------------------------------
# Propositional completeness (oracle: truth tables)

def test_propositional_decision_agrees_with_truth_tables():
    corpus = prop_corpus(250)[:250]
    for f in corpus:
        atoms = prop_atoms(f)
        table = truth_table(f, atoms)
        r = prove(f, ProverConfig(timeout_ms=2000))
        if all(table):
            assert r.proved, f
            assert check_tableau(r.tableau, r.clauses)
        else:
            m = find_countermodel(f, max_size=1)
            assert m is not None, f
            assert m.eval(neg(f)) is True
            # the model is the first false row of the truth table
            rows = list(itertools.product([False, True], repeat=len(atoms)))
            row = rows[table.index(False)]
            assert {k[0] for k, rel in m.predicates.items() if rel} \
                == {a for a, v in zip(atoms, row) if v}, f


# ---------------------------------------------------------------------------
# validate: three-valued

def test_validate_valid():
    out = validate(parse_formula("p ; ~p"), FAST)
    assert out.status == "valid"
    assert out.proof is not None and out.proof.proved


def test_validate_invalid():
    out = validate(parse_formula("p -> q"), FAST)
    assert out.status == "invalid"
    assert out.model is not None
    assert out.model.eval(parse_formula("~(p -> q)")) is True


def test_validate_unknown_on_hard_formula():
    # not provable, and countermodels need infinite domains:
    # an irreflexive transitive relation with no maximal element
    src = ("(all(x, ex(y, r(x,y))), all(x, ~r(x,x)), "
           "all([x,y,z], ((r(x,y), r(y,z)) -> r(x,z)))) -> q")
    out = validate(parse_formula(src),
                   ProverConfig(timeout_ms=400, max_depth=5))
    assert out.status == "unknown"


def test_validate_finds_the_long_chain_countermodel():
    # enumerating the 2^20 interpretations of this chain outlasted the
    # 1 s share, and validate answered 'unknown'
    f = parse_formula(" -> ".join(f"p{i}" for i in range(20)))
    t0 = time.monotonic()
    out = validate(f, ProverConfig(timeout_ms=2000))
    assert time.monotonic() - t0 < 0.25
    assert out.status == "invalid"
    assert out.model.eval(neg(f)) is True


def _definiens_formula():
    # the fixture's ppl_valid(definiens(p(a), kb2, [p,s]))
    kb2 = ("all(x, (p(x) -> q(x), s(x))), all(x, (s(x) -> r(x))), "
           "all(x, (q(x), r(x) -> p(x)))")
    return reduce_so_universal(parse_formula(
        f"ex2([p,s], ({kb2}, p(a))) -> all2([p,s], ({kb2} -> p(a)))"))


def test_countermodel_search_exhausts_the_definiens_formula():
    # enumerating its 786,432 interpretations of size 3 took about 15 s
    f = _definiens_formula()
    t0 = time.monotonic()
    assert find_countermodel(f, max_size=3, timeout_ms=10000) is None
    assert time.monotonic() - t0 < 3.0


def test_countermodel_search_skips_isomorphic_branches(monkeypatch):
    # trying the constant a at each element visited 6,638 nodes, where
    # the branches a=2 and a=3 repeat a=1 up to a swap of elements
    nodes, depth = 0, 0
    eval3 = prover._eval3

    def counted(*args):
        nonlocal nodes, depth
        nodes += depth == 0
        depth += 1
        try:
            return eval3(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(prover, "_eval3", counted)
    assert find_countermodel(_definiens_formula(), max_size=3,
                             timeout_ms=10000) is None
    assert nodes <= 2000


# A seeded corpus of closed formulas over the constants a, b, c, the
# function f/1 and the predicates p/1, q/1, r/2, kept to those with at
# most _REFERENCE_CAP interpretations of size 3.  Half of them are
# disjoined with a=b ; b=c ; a=c, so that only models of size 3 with
# three distinct constants can falsify them.
_REFERENCE_CAP = 5000


def _random_formula(rng, depth, bound=()):
    if depth == 0 or rng.random() < 0.25:
        def term():
            t = rng.choice(("a", "b", "c", *bound))
            return f"f({t})" if rng.random() < 0.3 else t
        kind = rng.randrange(4)
        if kind == 0:
            return f"{term()}={term()}"
        if kind == 1:
            return f"r({term()},{term()})"
        return f"{'pq'[kind - 2]}({term()})"
    kind = rng.randrange(6)
    if kind < 2:
        v = "xy"[len(bound) % 2]
        body = _random_formula(rng, depth - 1, (*bound, v))
        return f"{('all', 'ex')[kind]}({v}, {body})"
    if kind == 2:
        return f"~{_random_formula(rng, depth - 1, bound)}"
    op = (",", ";", "->", "<->")[kind - 3]
    lhs, rhs = (_random_formula(rng, depth - 1, bound) for _ in "lr")
    return f"({lhs} {op} {rhs})"


# three formulas whose first models need a function value above every
# element named before its cell, but not above the cell's own key: f
# without a fixed point, f a 3-cycle, and f(a)=a with f swapping the
# other two elements
_FUNCTION_CYCLES = [
    "ex(x, f(x)=x)",
    "(ex(x, f(x)=x) ; ex(x, f(f(x))=x))",
    "(~(f(a)=a) ; ex(x, (~(x=a), (f(x)=x ; f(x)=a))) ; "
    "all([x,y], (x=a ; y=a ; x=y)))",
]


def _model_search_corpus(k, seed=1):
    rng = random.Random(seed)
    out = [parse_formula(text) for text in _FUNCTION_CYCLES]
    while len(out) < k:
        text = _random_formula(rng, 3)
        if rng.random() < 0.5:
            text = f"(a=b ; (b=c ; (a=c ; {text})))"
        f = parse_formula(text)
        preds, funs, _ = BENCH_ORACLES.vocabulary(f)
        if (math.prod(3 ** 3 ** ar for ar in funs.values())
                * math.prod(2 ** 3 ** ar for ar in preds.values())
                <= _REFERENCE_CAP):
            out.append(f)
    return out


def _first_countermodel(f, max_size):
    """The first interpretation falsifying f, enumerated whole in the
    search's cell order: function cells, then predicate cells, each in
    sorted (name, arity) and key order; values in domain order, False
    before True."""
    preds, funs, _ = BENCH_ORACLES.vocabulary(f)
    for n in range(1, max_size + 1):
        dom = range(1, n + 1)
        fcells, pcells = ([(name, ar, key) for name, ar in sorted(s.items())
                           for key in itertools.product(dom, repeat=ar)]
                          for s in (funs, preds))
        for fvals in itertools.product(dom, repeat=len(fcells)):
            for pvals in itertools.product((False, True),
                                           repeat=len(pcells)):
                functions = {(name, ar): {} for name, ar in funs.items()}
                for (name, ar, key), v in zip(fcells, fvals):
                    functions[(name, ar)][key] = v
                predicates = {(name, ar): set()
                              for name, ar in preds.items()}
                for (name, ar, key), v in zip(pcells, pvals):
                    if v:
                        predicates[(name, ar)].add(key)
                m = Model(n, functions, predicates)
                if BENCH_ORACLES.check_countermodel(f, m) is None:
                    return m
    return None


def test_countermodel_search_returns_the_first_model_in_cell_order():
    # the search tries a function cell only at the elements 1..top+1,
    # top the largest element named before; the first model must be
    # the one the whole enumeration finds first
    sizes = []
    for f in _model_search_corpus(300):
        want = _first_countermodel(f, 3)
        got = find_countermodel(f, max_size=3, timeout_ms=60000)
        if want is None:
            assert got is None, print_text(f)
        else:
            assert got is not None, print_text(f)
            assert (got.size, got.functions, got.predicates) == (
                want.size, want.functions, want.predicates), print_text(f)
        sizes.append(want and want.size)
    # the corpus reaches every size, and formulas with no model
    assert all(sizes.count(n) >= 20 for n in (None, 1, 2, 3))


@pytest.mark.parametrize("src", ["ex2(p, p)", "lambda(x, p(x))"])
def test_validate_answers_unknown_on_irreducible_input(src):
    # reduce_so_universal cannot reduce these; the reason says why
    out = validate(parse_formula(src), FAST)
    assert out.status == "unknown"
    assert not out.proof.proved
    assert out.proof.reason.startswith(("irreducible", "cannot reduce"))


# ---------------------------------------------------------------------------
# Second-order universal reduction

def test_reduce_so_universal_renames():
    f = parse_formula("ex2(p, (p(a), q)) -> all2(p, (p(a) ; r))")
    g = reduce_so_universal(f)
    from pie.formula import is_first_order
    assert is_first_order(g)


def test_reduce_so_universal_validity_example():
    # forall p (p(a) -> p(a)) reduces to a valid first-order formula
    f = parse_formula("all2(p, (p(a) -> p(a)))")
    g = reduce_so_universal(f)
    assert prove(g, FAST).proved


# ---------------------------------------------------------------------------
# Tableau certificates

def test_tableau_structure_records_input_clauses():
    r = prove(parse_formula("(p, (p -> q)) -> q"), FAST)
    assert r.proved
    # every non-root node group must be an instance of an input clause
    assert check_tableau(r.tableau, r.clauses)
    # mutated tableaux must be rejected
    leaf = next(n for n in r.tableau.nodes() if not n.children)
    saved = leaf.closed_by
    leaf.closed_by = None
    assert not check_tableau(r.tableau, r.clauses)
    leaf.closed_by = saved


def test_equality_reasoning_via_axioms():
    r = prove(parse_formula("(a=b, b=c, p(c)) -> p(a)"), FAST)
    assert r.proved
    assert check_tableau(r.tableau, r.clauses)


def test_timeout_reports_resources():
    src = ("(all(x, ex(y, r(x,y))), all(x, ~r(x,x)), "
           "all([x,y,z], ((r(x,y), r(y,z)) -> r(x,z)))) -> q")
    r = prove(parse_formula(src), ProverConfig(timeout_ms=100))
    assert not r.proved
    assert r.reason in ("timeout", "depth bound exhausted")


def test_inference_limit_stops_search():
    src = ("(all(x, ex(y, r(x,y))), all(x, ~r(x,x)), "
           "all([x,y,z], ((r(x,y), r(y,z)) -> r(x,z)))) -> q")
    r = prove(parse_formula(src),
              ProverConfig(timeout_ms=60000, max_inferences=500))
    assert not r.proved
    assert r.reason == "inference limit"
    assert r.inferences == 501


def dnf_family(n):
    """(a0,b0 ; ... ; an-1,bn-1) -> (the same): the negation's clausal
    form has 2^n clauses."""
    d = " ; ".join(f"(a{i}, b{i})" for i in range(n))
    return parse_formula(f"({d}) -> ({d})")


@pytest.mark.parametrize("n", [12, 14])
def test_prove_keeps_its_budget(n):
    # with timeout_ms=500 these took 1.0 and 2.5 s while clausify ran
    # without the deadline
    t0 = time.monotonic()
    r = prove(dnf_family(n), ProverConfig(timeout_ms=500))
    assert time.monotonic() - t0 < 1.2 * 0.5 + 0.05
    assert r.proved or r.reason in ("timeout", "clausification timeout")


def test_validate_keeps_its_budget():
    # the model search uses up its share of the budget, so the proof
    # search may have only what is left
    t0 = time.monotonic()
    out = validate(dnf_family(10), ProverConfig(timeout_ms=500))
    assert time.monotonic() - t0 < 1.2 * 0.5 + 0.05
    assert out.status == "unknown"


@pytest.mark.parametrize("attempt", [
    lambda f, config: prove(f, config),
    lambda f, config: prove_implication(f.lhs, f.rhs, config),
])
def test_clausification_timeout_is_named(attempt):
    t0 = time.monotonic()
    r = attempt(dnf_family(18), ProverConfig(timeout_ms=100))
    assert time.monotonic() - t0 < 1.2 * 0.1 + 0.05
    assert not r.proved and r.reason == "clausification timeout"


# ---------------------------------------------------------------------------
# Pinned proofs, recorded when the search began to start only from
# all-negative clauses (the pins from pelletier-26 on were added before
# the search came to share structure): the connection index, the
# extension step's shortcuts and structure sharing only skip work that
# cannot close a goal, so the search must keep finding the same tableaux
# with the same number of inferences

PINNED = json.loads(
    Path(__file__).with_name("pinned_proofs.json").read_text())


def _preorder(r):
    """The grounded tableau as pre-order (sign, literal text, clause)."""
    return [[n.literal[0], print_text(n.literal[1]), n.clause_index]
            for n in r.tableau.nodes() if n.literal is not None]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_proofs(name):
    pin = PINNED[name]
    r = prove(parse_formula(pin["formula"]), FAST)
    assert r.proved, r.reason
    assert r.depth == pin["depth"]
    assert r.inferences == pin["inferences"]
    assert _preorder(r) == pin["tableau"]


P45 = ("(all(x, ((f(x), all(y, ((g(y), h(x,y)) -> j(x,y)))) -> "
       "all(y, ((g(y), h(x,y)) -> k(y))))), ~ex(y, (l(y), k(y))), "
       "ex(x, (f(x), all(y, (h(x,y) -> l(y))), "
       "all(y, ((g(y), h(x,y)) -> j(x,y)))))) -> "
       "ex(x, (f(x), ~ex(y, (g(y), h(x,y)))))")


P33 = ("all(x, ((p(a), (p(x) -> p(b))) -> p(c))) <-> "
       "all(x, ((~p(a) ; p(x) ; p(c)), (~p(a) ; ~p(b) ; p(c))))")


@pytest.mark.parametrize("src, most", [
    (P45, 585),
    (PINNED["dnf-3"]["formula"], 616),
    (PINNED["pelletier-17"]["formula"], 111),
    (P33, 129),
    (PINNED["pelletier-26"]["formula"], 3678),
    (PINNED["dnf-4"]["formula"], 4200),
], ids=["pelletier-45", "dnf-3", "pelletier-17", "pelletier-33",
        "pelletier-26", "dnf-4"])
def test_inference_counts_do_not_grow(src, most):
    # a machine-independent guard against a slower search
    r = prove(parse_formula(src), ProverConfig(timeout_ms=20000))
    assert r.proved, r.reason
    assert r.inferences <= most


def test_dnf_5_is_proved():
    # the search without its failure cache timed out after about 2.8M
    # inferences
    r = prove(dnf_family(5), ProverConfig(timeout_ms=4000))
    assert r.proved, r.reason
    assert check_tableau(r.tableau, r.clauses)


def test_cached_failures_are_counted():
    assert prove(parse_formula(PINNED["dnf-4"]["formula"]),
                 FAST).cached_failures > 0
    assert prove(parse_formula(PINNED["pelletier-18"]["formula"]),
                 FAST).cached_failures == 0


@pytest.mark.parametrize("src", [
    PINNED["pelletier-19"]["formula"],
    PINNED["pelletier-20"]["formula"],
    P33,
], ids=["pelletier-19", "pelletier-20", "pelletier-33"])
def test_unconnectable_clauses_cost_nothing(src):
    # Clauses over fresh predicates can never connect to the problem's
    # literals.  Each has a positive literal, so none is a start clause,
    # and the search must not look at them at all.
    clauses = side_clauses(clausify(neg(parse_formula(src))).clauses, [])
    x = Var("x")
    pad = [(Clause(((False, Atom(f"pad{i}", (x,))),
                    (True, Atom(f"pad{i + 1}", (x,))))), "left")
           for i in range(50)]
    base = prove_clausal(clauses, FAST)
    padded = prove_clausal(clauses + pad, FAST)
    assert base.proved and padded.proved
    assert padded.depth == base.depth
    assert padded.inferences == base.inferences
    assert _preorder(padded) == _preorder(base)


# ---------------------------------------------------------------------------
# Property: the search starts only from all-negative clauses, which must
# not lose a refutation

ATOMS4 = ["p", "q", "r", "s"]
_clause_sets = st.lists(
    st.lists(st.tuples(st.booleans(), st.sampled_from(ATOMS4)),
             min_size=1, max_size=3),
    min_size=1, max_size=9)


def _unsatisfiable(lit_lists):
    """Truth table: no assignment to ATOMS4 makes every clause true."""
    return not any(
        all(any(env[a] == s for s, a in lits) for lits in lit_lists)
        for env in (dict(zip(ATOMS4, bits)) for bits in
                    itertools.product([False, True], repeat=len(ATOMS4))))


@given(_clause_sets)
@settings(deadline=None, max_examples=300)
def test_prove_clausal_refutes_exactly_the_unsatisfiable_sets(lit_lists):
    clauses = [(Clause(tuple((s, Atom(a, ())) for s, a in lits)), "left")
               for lits in lit_lists]
    r = prove_clausal(clauses, FAST)
    assert r.proved == _unsatisfiable(lit_lists), r.reason
    if r.proved:
        assert check_tableau(r.tableau, r.clauses)


def test_no_all_negative_clause_costs_nothing():
    # making every atom true satisfies such a set: no start clause
    x = Var("x")
    clauses = [(Clause(((True, Atom("p", (x,))),)), "left"),
               (Clause(((False, Atom("p", (x,))), (True, Atom("q", (x,))))),
                "right")]
    r = prove_clausal(clauses, FAST)
    assert not r.proved
    assert r.inferences == 0


def test_occurs_check_blocks_a_cyclic_unifier():
    # p(X, f(X)) and ~p(Y, Y) unify only if X = f(X): satisfiable
    x, y = Var("X"), Var("Y")
    clauses = [(Clause(((True, Atom("p", (x, Fn("f", (x,))))),)), "left"),
               (Clause(((False, Atom("p", (y, y))),)), "left")]
    r = prove_clausal(clauses, FAST)
    assert not r.proved
    assert r.reason == "depth bound exhausted"


# ---------------------------------------------------------------------------
# Property: on random first-order clause sets every proof checks, and the
# names of the input variables change neither the search nor the proof

def _terms(depth):
    leaves = st.one_of(st.sampled_from("XYZ").map(Var),
                       st.sampled_from("ab").map(Fn))
    if depth == 0:
        return leaves
    return st.one_of(leaves, _terms(depth - 1).map(lambda t: Fn("f", (t,))))


_fo_literals = st.tuples(st.booleans(), st.one_of(
    _terms(2).map(lambda t: Atom("p", (t,))),
    st.tuples(_terms(1), _terms(1)).map(lambda ts: Atom("q", ts))))
_fo_clause_sets = st.lists(st.lists(_fo_literals, min_size=1, max_size=3),
                           min_size=1, max_size=6)


@given(_fo_clause_sets)
@settings(deadline=None, max_examples=100)
def test_search_does_not_depend_on_variable_names(lit_lists):
    config = ProverConfig(timeout_ms=60000, max_inferences=1000)

    def run(name):
        clauses = []
        for k, lits in enumerate(lit_lists):
            def leaf(t):
                return Var(name(k, t.name)) if isinstance(t, Var) else None
            clauses.append((Clause(tuple((s, map_atom(a, leaf))
                                         for s, a in lits)), "left"))
        return prove_clausal(clauses, config)

    r = run(lambda k, v: v)
    renamed = run(lambda k, v: f"{'ZXY'['XYZ'.index(v)]}{k % 2}")
    assert (renamed.proved, renamed.reason, renamed.inferences,
            renamed.depth) == (r.proved, r.reason, r.inferences, r.depth)
    if r.proved:
        assert check_tableau(r.tableau, r.clauses)
        assert _preorder(renamed) == _preorder(r)


# ---------------------------------------------------------------------------
# Property: prover decisions match an independent evaluator on random
# propositional formulas

from pie.formula import And, Atom, Iff, Implies as Impl, Not, Or

_atoms = st.sampled_from([Atom("p", ()), Atom("q", ())])
_forms = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda t: And(t)),
        st.tuples(kids, kids).map(lambda t: Or(t)),
        st.tuples(kids, kids).map(lambda t: Impl(*t)),
    ),
    max_leaves=6)


@given(_forms)
@settings(deadline=None, max_examples=60)
def test_prover_property(f):
    atoms = ["p", "q"]
    is_valid = all(truth_table(f, atoms))
    r = prove(f, ProverConfig(timeout_ms=2000))
    assert r.proved == is_valid
    if r.proved:
        assert check_tableau(r.tableau, r.clauses)


# ---------------------------------------------------------------------------
# Property: the failure cache cuts only subtrees that would yield nothing,
# so the search finds the same proof at the same depth with no more
# inferences than without it

class _NoHits(dict):
    """A failure cache that records every failure and never hits."""

    def get(self, key, default=None):
        return -1


@contextlib.contextmanager
def _no_cache_hits():
    init = prover._Search.__init__

    def patched(self, *args):
        init(self, *args)
        self.failed = _NoHits()

    prover._Search.__init__ = patched
    try:
        yield
    finally:
        prover._Search.__init__ = init


def _assert_same_search(attempt):
    cached = attempt()
    with _no_cache_hits():
        plain = attempt()
    assert plain.cached_failures == 0
    assert cached.inferences <= plain.inferences
    if plain.reason == "inference limit":
        return
    assert (cached.proved, cached.reason, cached.depth) == \
        (plain.proved, plain.reason, plain.depth)
    if plain.proved:
        assert _preorder(cached) == _preorder(plain)


def _bench_workloads():
    """perfbench/workloads.py, which imports the benchmark's oracles as
    the module oracles."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules["oracles"]
    sys.modules["oracles"] = BENCH_ORACLES
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules["oracles"] = saved
    return module


THEOREMS = dict(_bench_workloads().theorems_inputs(1))
UNLIMITED = ProverConfig(timeout_ms=60000)


@pytest.mark.parametrize("src", [
    *(pin["formula"] for _, pin in sorted(PINNED.items())),
    *(src for _, src in sorted(THEOREMS.items())),
], ids=[*(f"pinned-{name}" for name in sorted(PINNED)),
        *(f"theorems-{name}" for name in sorted(THEOREMS))])
def test_failure_cache_keeps_the_proof(src):
    f = parse_formula(src)
    _assert_same_search(lambda: prove(f, UNLIMITED))


@given(_clause_sets)
@settings(deadline=None, max_examples=200)
def test_failure_cache_keeps_propositional_proofs(lit_lists):
    clauses = [(Clause(tuple((s, Atom(a, ())) for s, a in lits)), "left")
               for lits in lit_lists]
    _assert_same_search(lambda: prove_clausal(clauses, UNLIMITED))


# Random clause sets are mostly satisfiable and cut few subtrees.  The
# negation of all(x, D) -> all(x, D'), D a disjunction of conjunctions
# and D' the same permuted, is a product of clauses like the dnf
# family's, in which the same goals fail again and again.

def _eq_atoms(terms):
    terms = st.sampled_from(terms)
    return st.one_of(
        terms.map(lambda t: Atom("p", (t,))),
        st.tuples(terms, terms).map(lambda ts: Atom("q", ts)),
        st.tuples(terms, terms).map(lambda ts: Eq(*ts)))


_dnf_atoms = {
    "propositional": st.sampled_from(ATOMS4).map(lambda a: Atom(a, ())),
    "ground-equality": _eq_atoms([Fn("a"), Fn("b"), Fn("f", (Fn("a"),)),
                                  Fn("f", (Fn("b"),))]),
    "equality": _eq_atoms([Var("x"), Fn("a"), Fn("f", (Var("x"),))]),
}


def _dnf(disjuncts):
    return Or(tuple(And(tuple(c)) if len(c) > 1 else c[0]
                    for c in disjuncts))


def _dnf_pairs(atoms):
    lits = st.tuples(st.booleans(), atoms).map(
        lambda la: la[1] if la[0] else Not(la[1]))
    disjuncts = st.lists(st.lists(lits, min_size=1, max_size=2),
                         min_size=2, max_size=4)
    return disjuncts.flatmap(
        lambda ds: st.tuples(st.just(ds), st.permutations(ds)))


@pytest.mark.parametrize("vocabulary", sorted(_dnf_atoms))
@given(data=st.data())
@settings(deadline=None, max_examples=100)
def test_failure_cache_keeps_dnf_proofs(vocabulary, data):
    ds, perm = data.draw(_dnf_pairs(_dnf_atoms[vocabulary]))
    f = Implies(ForAll(("x",), _dnf(ds)),
                ForAll(("x",), _dnf([c[::-1] for c in perm])))
    config = ProverConfig(timeout_ms=60000, max_depth=8,
                          max_inferences=5000)
    _assert_same_search(lambda: prove(f, config))
