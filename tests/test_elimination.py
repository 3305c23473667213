"""Second-order quantifier elimination (DLS/Ackermann) and its oracles."""

import importlib.util
import itertools
import os
import random
import time

import pytest
from hypothesis import given

from pie import preprocess
from pie.elimination import (
    EliminationTask, eliminate, eliminate_staged, truth_simplify,
)
from pie.formula import (
    Context, Exists2, Falsity, PredSpec, Truth, free_symbols,
    is_first_order, subformulas,
)
from pie.macros import expand
from pie.syntax import parse_formula, print_text

from oracles import (
    exists_table, fo_equivalent, prop_atoms, prop_corpus, truth_table,
)
from test_formula import prop_formulas
from test_macros import CIRC, table_from


def _bench_oracles():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_ORACLES = _bench_oracles()


def elim(src, **kw):
    return eliminate(EliminationTask(parse_formula(src), **kw))


def has_pred(f, name):
    return any(o.name == name and o.kind == "predicate"
               for o in free_symbols(f))


# ---------------------------------------------------------------------------
# Headline examples

def test_interpolating_predicate():
    out = elim("ex2(p, (all(x, (q(x) -> p(x))), all(x, (p(x) -> r(x)))))")
    assert out.status == "success"
    assert not has_pred(out.result, "p")
    assert fo_equivalent(out.result, parse_formula("all(x, (q(x) -> r(x)))"))


def test_positive_occurrence_only_gives_truth():
    out = elim("ex2(p, p(a))")
    assert out.status == "success"
    assert fo_equivalent(out.result, parse_formula("true"))


def test_universal_predicate_quantifier():
    out = elim("all2(p, (p(a) -> p(a)))")
    assert out.status == "success"
    assert fo_equivalent(out.result, parse_formula("true"))


def test_elimination_keeps_other_predicates():
    out = elim("ex2(p, (p ; q))")
    assert out.status == "success"
    assert fo_equivalent(out.result, parse_formula("true"))
    out = elim("ex2(p, (p, q))")
    assert out.status == "success"
    assert fo_equivalent(out.result, parse_formula("q"))


def test_multiple_predicates_left_to_right():
    out = elim("ex2([p, r], (p, (p -> r), (r -> q)))")
    assert out.status == "success"
    assert fo_equivalent(out.result, parse_formula("q"))


def test_circumscription_of_fact():
    # circ(p, p(a)) expanded by hand
    src = ("ex2(q, (p(a), q(a), all(x, (q(x) -> p(x))), "
           "~(all(x, (p(x) -> q(x))))))")
    out = eliminate(EliminationTask(parse_formula(
        f"p(a), ~({src})"), simp_result="c6"))
    assert out.status == "success"


def test_un_skolemization_in_results():
    out = elim("ex2(p, (all(x, (p(x) -> ex(y, r(x, y)))), "
               "all(x, (q(x) -> p(x)))))")
    assert out.status == "success"
    names = {o.name for o in free_symbols(out.result)}
    assert not any(n.startswith("sk") for n in names)
    assert fo_equivalent(
        out.result, parse_formula("all(x, (q(x) -> ex(y, r(x, y))))"))


def test_result_names_no_variable_like_a_constant():
    # a is a constant and a bound variable; the existential that the
    # Ackermann step puts around q must not capture the constant a
    out = elim("ex2(p, (all([a,y], (q(a,y) -> p(y))), (p(a) -> r)))")
    assert out.status == "success"
    assert fo_equivalent(parse_formula(print_text(out.result)),
                         parse_formula("ex(z, q(z, a)) -> r"))


def test_constant_named_like_a_skolem_symbol_stays():
    # only the Skolem symbols that clausification recorded are turned
    # back into quantified variables, not every functor named sk<n>
    out = elim("ex2(q, (q(a), p(sk1)))", simp_result="c6")
    assert out.status == "success"
    assert out.result == parse_formula("p(sk1)")


# ---------------------------------------------------------------------------
# Nonreducible and resource outcomes

def test_skolem_function_over_two_argument_lists_is_nonreducible():
    # the Ackermann step puts sk(x) into both p-literals of the second
    # conjunct; un-Skolemizing t(sk(z1), sk(z11)) as t(y, y) gave a
    # result that is true on a domain {1, 2} where the input is false
    out = elim("ex2(p, (all(x, (q(x) -> ex(y, (p(y), s(x,y))))), "
               "all([u,v], ((p(u), p(v)) -> t(u,v)))))")
    assert out.status == "nonreducible"
    # both signs' reasons: the un-Skolemization failure of the first
    # used to be hidden behind the case-split failure of the second
    first, second = out.reason.split("; def_sign=False: ")
    assert first.startswith("def_sign=True: cannot un-Skolemize result")
    assert second == "clause with mixed/multiple p literals is not ground"


def template_corpus(n, seed):
    """n elimination inputs: a definition of p under an existential and
    a use of p with two p-literals, over q/1 and s/2."""
    defs = ["all(x, ({A} -> ex(y, (p(y), {B}))))",
            "all(x, ({A} -> ex(y, (~p(y), {B}))))",
            "all(x, ex(y, (p(y) ; {B})))"]
    uses = ["all([u,v], ((p(u), p(v)) -> {C}))",
            "all([u,v], ({C} -> (p(u) ; p(v))))",
            "all([u,v], ((p(u), {C}) -> p(v)))"]
    atoms = {"A": ["q(x)", "~q(x)", "s(x,x)"],
             "B": ["s(x,y)", "s(y,x)", "q(y)", "~q(y)", "s(y,y)"],
             "C": ["s(u,v)", "s(v,u)", "q(u)", "~q(v)", "~s(u,u)"]}
    rng = random.Random(seed)

    def fill(template):
        parts = {}
        for k, choices in atoms.items():
            a = rng.sample(choices, rng.choice([1, 1, 2]))
            op = rng.choice([", ", "; "])
            parts[k] = a[0] if len(a) == 1 else "(" + op.join(a) + ")"
        return template.format(**parts)

    return [f"ex2(p, ({fill(rng.choice(defs))}, {fill(rng.choice(uses))}))"
            for _ in range(n)]


def test_successes_pass_the_benchmark_oracle_on_a_template_corpus():
    # the benchmark's oracle refuted 16 of these results before a Skolem
    # function over two argument lists in one clause was rejected
    refuted = []
    for src in template_corpus(300, 2):
        f = parse_formula(src)
        out = eliminate(EliminationTask(f))
        if out.status == "success" and \
                BENCH_ORACLES.check_elimination(f, out.result, ["p"]):
            refuted.append((src, print_text(out.result)))
    assert not refuted


def test_nonreducible_reported_honestly():
    # mixed-polarity non-ground clause joining p to itself: outside the
    # reducible fragment handled here
    out = elim("ex2(p, all([x,y], ((p(x), r(x,y)) -> p(y))))")
    assert out.status in ("nonreducible", "success")
    if out.status == "success":
        assert not has_pred(out.result, "p")


def test_resources_on_tiny_budget():
    out = elim("ex2(p, (all(x, (q(x) -> p(x))), all(x, (p(x) -> r(x)))))",
               timeout_ms=0)
    assert out.status in ("resources", "success")


# ---------------------------------------------------------------------------
# Circumscription of a knowledge base: one cause and a chain of links

def circ_chain(links):
    """circ(wet, kb) with kb: rain -> wet(c0), wet(ci) -> wet(ci+1)."""
    kb = ", ".join(["(rain -> wet(c0))"] + [
        f"(wet(c{i}) -> wet(c{i + 1}))" for i in range(links)])
    table = table_from(CIRC, f"def(kb) :: {kb}")
    return expand(table, parse_formula("circ(wet, kb)"), Context())


CHAIN3 = ("(rain->wet(c0)), (wet(c0)->wet(c1)), (wet(c1)->wet(c2)), "
          "(wet(c2)->wet(c3)), ")
# recorded from the all-pairs subsumption step that the feature index
# replaced
PINNED_CIRC = {
    None: CHAIN3 + "~((rain->wet(c0)), (rain->wet(c3)), (rain->wet(c2)), "
    "(rain->wet(c1)), ex(y, (~(rain, y=c1), ~(rain, y=c2), ~(rain, y=c3), "
    "~(y=c0, rain), wet(y))))",
    "c6": CHAIN3 + "all(x, (wet(x)->rain)), all(x, (wet(c0), wet(c3), "
    "wet(c2), wet(c1), wet(x)->x=c1; x=c2; x=c3; x=c0))",
}


CHAIN4 = CHAIN3 + "(wet(c3)->wet(c4)), "
# recorded from the code that built every product clause
PINNED_CIRC4 = {
    None: CHAIN4 + "~((rain->wet(c0)), (rain->wet(c4)), (rain->wet(c3)), "
    "(rain->wet(c2)), (rain->wet(c1)), ex(y, (~(rain, y=c1), ~(rain, y=c2), "
    "~(rain, y=c3), ~(rain, y=c4), ~(y=c0, rain), wet(y))))",
    "c6": CHAIN4 + "all(x, (wet(x)->rain)), all(x, (wet(c0), wet(c4), "
    "wet(c3), wet(c2), wet(c1), wet(x)->x=c1; x=c2; x=c3; x=c4; x=c0))",
}


@pytest.mark.parametrize("simp", [None, "c6"])
def test_circumscription_of_chain_is_pinned(simp):
    out = eliminate(EliminationTask(circ_chain(3), simp_result=simp))
    assert out.status == "success", out.reason
    assert print_text(out.result) == PINNED_CIRC[simp]


def test_subsumption_counts_do_not_grow(monkeypatch):
    # a machine-independent guard: un-Skolemizing this result simplifies
    # 1,564 clauses down to 9, which took 702,953 subsumes calls when
    # every pair of clauses was compared and 9,206 when the subsumed
    # product clauses were still built
    calls = [0]
    subsumes = preprocess.subsumes

    def counted(c, d, *deadline):
        calls[0] += 1
        return subsumes(c, d, *deadline)

    monkeypatch.setattr(preprocess, "subsumes", counted)
    out = eliminate(EliminationTask(circ_chain(3), simp_result="c6"))
    assert out.status == "success"
    assert calls[0] <= 842


def test_product_clauses_are_not_built_when_subsumed(monkeypatch):
    # un-Skolemizing the result multiplied out 4,860 literal lists while
    # every product clause was built
    sizes = []
    cnf = preprocess._cnf

    def counted(*args):
        out = cnf(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(preprocess, "_cnf", counted)
    out = eliminate(EliminationTask(circ_chain(3)))
    assert out.status == "success"
    assert max(sizes) <= 468


def test_deadline_reaches_restore_quantifiers():
    # over four links, clausifying and simplifying the result takes about
    # 0.3 s, well over this budget
    t0 = time.monotonic()
    out = eliminate(EliminationTask(circ_chain(4), timeout_ms=100))
    assert out.status == "resources"
    assert "timeout" in out.reason
    assert time.monotonic() - t0 < 2.0


# (a0, b0) ; ... ; (a11, b11), whose CNF has 4,096 clauses
D12 = "(" + " ; ".join(f"(a{i}, b{i})" for i in range(12)) + ")"


@pytest.mark.parametrize("src, pre, simp", [
    (f"ex2(q, (q(c), {D12}))", "c6", None),
    (f"ex2(q, (q(c), ~{D12}))", "d6", None),
    (f"(ex2(q, q(c)), {D12})", None, "c6"),
], ids=["pre-c6", "pre-d6", "simp_result-c6"])
def test_deadline_reaches_the_pipelines(src, pre, simp):
    # 0.7 to 2.0 s each while the c6 and d6 pipelines ignored the budget
    f = parse_formula(src)
    t0 = time.monotonic()
    out = eliminate(EliminationTask(f, pre=pre, simp_result=simp,
                                    timeout_ms=200))
    assert out.status == "resources"
    assert "timeout" in out.reason
    assert time.monotonic() - t0 < 1.2 * 0.2 + 0.05


def test_deadline_reaches_subsumption():
    # p(z,z) matches none of the ground p(a_i,b_i), and backtracking
    # θ-subsumption learns that only after trying every assignment of the
    # seven other literals: 28–37 s while subsumes ignored the budget
    xs = " ; ".join(f"p(x{i},y{i})" for i in range(7))
    vs = ",".join([f"x{i}" for i in range(7)] + [f"y{i}" for i in range(7)])
    gs = " ; ".join(f"p(a{i},b{i})" for i in range(8))
    f = parse_formula(f"ex2(q, (all([{vs},z], ({xs} ; p(z,z))), ({gs}), q))")
    t0 = time.monotonic()
    out = eliminate(EliminationTask(f, simp_result="c6", timeout_ms=500))
    assert out.status == "resources"
    assert out.reason == "clausal simplification timeout"
    assert time.monotonic() - t0 < 2.0


# p(x0,x1) ; ... ; p(x7,x8), and the 63 edges of an 8-layer, width-3 DAG
PATH8 = " ; ".join(f"p(x{i},x{i + 1})" for i in range(8))
DAG8 = " ; ".join(f"p(n{i}_{a},n{i + 1}_{b})"
                  for i in range(7) for a in range(3) for b in range(3))


def test_subsumption_size_cap_keeps_wide_clauses_cheap():
    # The path clause does not subsume the DAG clause (the DAG has no
    # walk of 8 edges), and backtracking θ-subsumption learns that only
    # after trying every walk.  SUBSUMPTION_SIZE_CAP sends clauses this
    # wide to the key comparison instead: with the cap removed this
    # input ran out of its 2 s budget, with it it takes about 0.01 s.
    xs = ",".join(f"x{i}" for i in range(9))
    f = parse_formula(f"ex2(q, (all([{xs}], ({PATH8})), ({DAG8}), q))")
    out = eliminate(EliminationTask(f, simp_result="c6", timeout_ms=2000))
    assert out.status == "success", out.reason


@pytest.mark.parametrize("simp", [None, "c6"])
def test_circumscription_of_longer_chain(simp):
    # 13 to 16 s each while the subsumed product clauses were built
    out = eliminate(EliminationTask(circ_chain(4), simp_result=simp))
    assert out.status == "success", out.reason
    assert print_text(out.result) == PINNED_CIRC4[simp]


# ---------------------------------------------------------------------------
# Propositional oracle: Shannon expansion

def test_exists_table_is_shannon():
    f = parse_formula("(p -> q), (r -> p)")
    atoms = ["q", "r"]
    assert exists_table("p", f, atoms) == \
        truth_table(parse_formula("(true -> q), (r -> true) ; "
                                  "(false -> q), (r -> false)"), atoms)


def test_dls_agrees_with_shannon_on_corpus():
    corpus = prop_corpus(300)[:300]
    checked = 0
    for f in corpus:
        atoms = prop_atoms(f)
        if "p" not in atoms:
            continue
        rest = [a for a in atoms if a != "p"]
        out = eliminate(EliminationTask(
            Exists2((PredSpec("p", 0),), f)))
        assert out.status == "success", print_text(f)
        assert is_first_order(out.result)
        assert not has_pred(out.result, "p")
        assert truth_table(out.result, rest) == exists_table("p", f, rest), \
            print_text(f)
        checked += 1
    assert checked >= 150


# ---------------------------------------------------------------------------
# truth_simplify

@pytest.mark.parametrize("src,want", [
    ("p, true", "p"),
    ("p ; true", "true"),
    ("p, false", "false"),
    ("~true", "false"),
    ("all(x, true)", "true"),
    ("a=a", "true"),
    ("(true -> p)", "p"),
    ("(p -> true)", "true"),
])
def test_truth_simplify(src, want):
    got = truth_simplify(parse_formula(src))
    assert got == parse_formula(want)


@given(prop_formulas())
def test_truth_simplify_property(f):
    # the rules for ->, <-> and ~ included: same truth table, and a
    # constant survives only as the whole result
    g = truth_simplify(f)
    atoms = ["p", "q", "r"]
    assert truth_table(f, atoms) == truth_table(g, atoms)
    if not isinstance(g, (Truth, Falsity)):
        assert not any(isinstance(h, (Truth, Falsity))
                       for h in subformulas(g))


# ---------------------------------------------------------------------------
# Graph colorability (two colors), staged elimination

def _edge_lambda(body_src):
    """Lambda (u, v) over a formula written with bound u, v."""
    from pie.formula import Lambda
    quantified = parse_formula(f"all([u,v], ({body_src}))")
    return Lambda(("u", "v"), quantified.body)


def test_staged_two_coloring_empty_graph():
    from pie.formula import FALSE, Lambda
    _, final = eliminate_staged(Lambda(("u", "v"), FALSE))
    # an edgeless graph is 2-colorable
    assert fo_equivalent(final, parse_formula("true"))


def test_staged_two_coloring_path():
    # path 1-2-3 is 2-colorable exactly when its endpoints of each edge
    # are distinct vertices
    _, final = eliminate_staged(
        _edge_lambda("(u=1, v=2) ; (u=2, v=3)"))
    assert fo_equivalent(final, parse_formula("~(1=2), ~(2=3)"))


def test_staged_two_coloring_self_loop_fails():
    _, final = eliminate_staged(_edge_lambda("u=1, v=1"))
    assert fo_equivalent(final, parse_formula("false"))
