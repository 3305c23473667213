"""Clausification, clausal simplification, and un-Skolemization."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from pie import preprocess
from pie.formula import (
    And, Atom, Context, Eq, Exists, Fn, ForAll, Not, Or, Var, conj,
    free_symbols, map_children, neg, nnf,
)
from pie.preprocess import (
    ClausalForm, Clause, SUBSUMPTION_SIZE_CAP, UnskolemizeError, _Products,
    _cnf, _drop_subsumed, _features, _simplify_clause, clause_terms,
    clause_to_formula, clausify, lit_subst, pipeline_c6, pipeline_d6,
    simplify_clausal, subsumes, unskolemize,
)
from pie.syntax import parse_formula, print_text

from oracles import (
    eval_clauses, fo_equivalent, prop_atoms, prop_corpus, prop_equivalent,
    truth_table, eval_prop,
)


# ---------------------------------------------------------------------------
# Clausification (oracle: truth tables on the propositional corpus)

def test_clausify_preserves_truth_tables():
    for f in prop_corpus(400)[:400]:
        cf = clausify(f)
        atoms = prop_atoms(f)
        for bits in itertools.product([False, True], repeat=len(atoms)):
            env = dict(zip(atoms, bits))
            assert eval_clauses(cf.clauses, env) == eval_prop(f, env), \
                print_text(f)


def test_clausify_removes_tautologies_and_duplicates():
    cf = clausify(parse_formula("(p ; ~p), (q ; q ; r)"))
    assert len(cf.clauses) == 1
    assert len(cf.clauses[0].literals) == 2


def test_clausify_skolemizes_existentials():
    cf = clausify(parse_formula("all(x, ex(y, p(x, y)))"))
    assert len(cf.skolems) == 1
    ((name, arity),) = cf.skolems.items()
    assert arity == 1


def test_clausify_skolem_constant():
    cf = clausify(parse_formula("ex(x, p(x))"))
    ((name, arity),) = cf.skolems.items()
    assert arity == 0


def test_clausify_names_the_copies_of_a_quantifier_alike():
    # miniscoping copies all(x) into both conjuncts; one name for both
    # copies lets the product clause p(x) ; q be left out as implied
    cf = clausify(parse_formula("all(x, (p(x), (p(x) ; q)))"))
    assert cf.clauses == [Clause(((True, Atom("p", (Var("x"),))),))]


@pytest.mark.parametrize("src, want", [
    ("p ; true", []),
    ("(p, false) ; q", [Clause(((True, Atom("q")),))]),
    ("false", [Clause(())]),
    ("true", []),
], ids=["p ; true", "(p, false) ; q", "false", "true"])
def test_clause_forms_agree_on_truth_constants(src, want):
    # true and false are absorbed; false alone is the empty clause
    assert clausify(parse_formula(src)).clauses == want


# ---------------------------------------------------------------------------
# Clausal simplification

def simp(src):
    return simplify_clausal(clausify(parse_formula(src)))


def clauses_to_formula(cf):
    return conj(clause_to_formula(c) for c in cf.clauses)


def test_subsumption_removes_weaker_clause():
    cf = simp("p, (p ; q)")
    assert len(cf.clauses) == 1
    assert print_text(clauses_to_formula(cf)) == "p"


def test_unit_subsumption_resolution():
    cf = simp("p, (~p ; q)")
    texts = {print_text(clauses_to_formula(cf))}
    assert texts == {"p, q"}


def test_equality_resolution_grounds_variables():
    cf = simp("all(x, (~(x=a) ; p(x)))")
    assert print_text(clauses_to_formula(cf)) == "p(a)"


def test_simplify_is_equivalence_under_protect_all():
    for src in ["(p ; q), (~p ; q), (p ; ~q)",
                "all(x, (p(x) -> q(x))), p(a)",
                "a=b, (p(a) -> p(b))"]:
        f = parse_formula(src)
        cf = simplify_clausal(clausify(f))
        g = clauses_to_formula(cf)
        assert fo_equivalent(f, g), (src, print_text(g))


def test_subsumes_basic():
    c = clausify(parse_formula("all(x, p(x))")).clauses[0]
    d = clausify(parse_formula("p(a) ; q")).clauses[0]
    assert subsumes(c, d)
    assert not subsumes(d, c)


# Random clauses over a small vocabulary, so that instances, variants,
# repeated variables and mutual subsumers come up often: p is used with
# two arities, f and g nest, a and b are constants.  Terms come from a
# fixed pool, which keeps generation cheap.
VARS = ("X", "Y", "Z")
X, Y, Z = (Var(v) for v in VARS)
A, B = Fn("a"), Fn("b")
TERM_POOL = [X, Y, Z, A, B, Fn("f", (X,)), Fn("f", (A,)), Fn("g", (X, Y)),
             Fn("g", (X, X)), Fn("f", (Fn("f", (Y,)),)),
             Fn("g", (A, Fn("f", (Z,)))), Fn("f", (Fn("g", (X, B)),))]
terms = st.sampled_from(TERM_POOL)
atoms = st.one_of(
    st.builds(lambda t: Atom("p", (t,)), terms),
    st.builds(lambda s, t: Atom("p", (s, t)), terms, terms),
    st.builds(lambda t: Atom("q", (t,)), terms),
    st.just(Atom("r")),
    st.builds(Eq, terms, terms))
literals = st.tuples(st.booleans(), atoms)
# clauses over the cap are compared by canonical key only; clauses of at
# most five literals keep the backtracking matcher fast
LONG = (SUBSUMPTION_SIZE_CAP + 1, SUBSUMPTION_SIZE_CAP + 3)


def clauses(min_size=0, max_size=5):
    return st.lists(literals, min_size=min_size, max_size=max_size).map(
        lambda ls: Clause(tuple(ls)))


def related(draw, d):
    """A clause drawn to stand in some relation to d: the same literals
    reordered, a variant, an instance with extra literals, or unrelated."""
    kind = draw(st.sampled_from(["permutation", "variant", "instance",
                                 "other"]))
    if kind == "permutation":
        return Clause(tuple(draw(st.permutations(d.literals))))
    if kind == "variant":
        names = draw(st.permutations(VARS))
        ren = {v: Var(w) for v, w in zip(VARS, names)}
        return Clause(tuple(lit_subst(l, ren) for l in d.literals))
    if kind == "instance" and len(d) < LONG[0]:
        theta = draw(st.fixed_dictionaries({v: terms for v in VARS}))
        lits = [lit_subst(l, theta) for l in d.literals]
        lits += draw(st.lists(literals, max_size=2))
        return Clause(tuple(draw(st.permutations(lits))))
    if len(d) >= LONG[0]:
        return draw(clauses(*LONG))
    return draw(clauses())


@st.composite
def clause_pairs(draw):
    d = draw(st.one_of(clauses(), clauses(*LONG)))
    return d, related(draw, d)


@st.composite
def clause_lists(draw):
    out = draw(st.lists(clauses(max_size=4), min_size=1, max_size=4))
    out += draw(st.lists(clauses(*LONG), max_size=1))
    for _ in range(draw(st.integers(0, 12))):
        out.append(related(draw, draw(st.sampled_from(out))))
    return draw(st.permutations(out))


@given(clause_pairs())
@settings(deadline=None, max_examples=200)
def test_subsumption_needs_shorter_clause_and_feature_subset(pair):
    d, c = pair
    if subsumes(d, c):
        assert len(d) <= len(c)
        assert _features(d) <= _features(c)


def drop_subsumed_all_pairs(clauses):
    """The reference for _drop_subsumed: compare every pair."""
    kept = []
    for i, c in enumerate(clauses):
        if not any(i != j and subsumes(d, c) and not (subsumes(c, d) and j > i)
                   for j, d in enumerate(clauses)):
            kept.append(c)
    return kept


@given(clause_lists())
@settings(deadline=None, max_examples=150)
def test_drop_subsumed_matches_all_pairs(clauses):
    assert _drop_subsumed(clauses) == drop_subsumed_all_pairs(clauses)


@given(clauses())
@settings(deadline=None, max_examples=300)
def test_deleting_literals_keeps_a_clause_normalised(c):
    # simplify_clausal normalises each clause once, before its fixpoint,
    # whose rounds then only delete literals
    c = _simplify_clause(c)
    for i in range(len(c) if c is not None else 0):
        d = Clause(c.literals[:i] + c.literals[i + 1:])
        assert _simplify_clause(d) == d


def test_drop_subsumed_keeps_first_of_mutual_subsumers():
    twice = Clause(((True, Atom("p", (X,))), (True, Atom("p", (X,)))))
    pair = Clause(((True, Atom("p", (X,))), (True, Atom("p", (Y,)))))
    unit = Clause(((True, Atom("p", (A,))),))
    wider = Clause(((True, Atom("p", (A,))), (True, Atom("q", (A,)))))
    # twice and pair subsume each other, both subsume wider, and neither
    # subsumes unit, which is shorter
    assert subsumes(twice, pair) and subsumes(pair, twice)
    clauses = [wider, pair, unit, twice, pair]
    assert _drop_subsumed(clauses) == [pair, unit]
    assert drop_subsumed_all_pairs(clauses) == [pair, unit]
    # a later clause of the same length that subsumes a kept one, and
    # which that one does not subsume, drops it
    same = Clause(((True, Atom("p", (X,))), (True, Atom("q", (X,)))))
    apart = Clause(((True, Atom("p", (X,))), (True, Atom("q", (Y,)))))
    assert subsumes(apart, same) and not subsumes(same, apart)
    assert _drop_subsumed([same, apart]) == [apart]
    assert drop_subsumed_all_pairs([same, apart]) == [apart]


def test_variants_over_the_cap_subsume_each_other():
    # over the cap subsumes compares canonical keys, whose literal order
    # must not depend on variable names: sorted by name, q(X,a) comes
    # before q(Y,b) but q(Z,a) after q(A,b)
    wide = tuple((True, Atom(f"l{i}")) for i in range(SUBSUMPTION_SIZE_CAP))
    c = Clause(wide + ((True, Atom("q", (X, A))), (True, Atom("q", (Y, B)))))
    d = Clause(wide + ((True, Atom("q", (Z, A))),
                       (True, Atom("q", (Var("A"), B)))))
    assert subsumes(c, d) and subsumes(d, c)
    assert _drop_subsumed([c, d]) == [c]


# The d6 input of an elimination (under ex2 p): its d6 output clausifies
# to 3,644 clauses, which simplify to 29.
D6_INPUT = ("all(x, ((q(x), s(x,x)) -> ex(y, (p(y), (s(y,y); s(y,x)))))), "
            "all([u,v], (s(u,v) -> (p(u) ; p(v))))")


def test_simplification_compares_clauses_with_the_kept_ones_only(
        monkeypatch):
    cf = clausify(pipeline_d6(parse_formula(D6_INPUT)))
    assert len(cf.clauses) == 3644
    calls = []
    real = subsumes
    monkeypatch.setattr(preprocess, "subsumes",
                        lambda c, d, *deadline:
                        calls.append(1) or real(c, d, *deadline))
    assert len(simplify_clausal(cf).clauses) == 29
    # comparing with every shorter clause of a subset feature group,
    # dropped ones included, takes 182,160 calls
    assert len(calls) <= 20_000


# ---------------------------------------------------------------------------
# _cnf: product clauses that an earlier clause implies are never built

def test_cnf_drops_tautologies_repeats_and_duplicates():
    g = parse_formula("(p ; q ; p ; ~(a=a)), (q ; p), (r ; ~r), (b=b ; s),"
                      " (a=b ; ~(b=a) ; s)")
    assert _cnf(g) == [((True, Atom("p")), (True, Atom("q")))]


def test_cnf_leaves_out_clauses_with_an_earlier_clause_s_literals():
    assert _cnf(parse_formula("p, (p ; q)")) == [((True, Atom("p")),)]


def all_products(g):
    """The reference for _cnf: every clause the distributive law gives,
    repeated literals, tautologies and repeated clauses included."""
    if isinstance(g, And):
        return [c for a in g.args for c in all_products(a)]
    if isinstance(g, Or):
        out = [[]]
        for a in g.args:
            out = [c1 + c2 for c1 in out for c2 in all_products(a)]
        return out
    if isinstance(g, Not):
        return [[(False, g.arg)]]
    return [[(True, g)]]


def strip_quantifiers(f):
    if isinstance(f, (ForAll, Exists)):
        return strip_quantifiers(f.body)
    return map_children(f, strip_quantifiers)


def literal_set(lits):
    """The literals as a set, a=b and b=a as one and t!=t left out, or
    None for a tautology (t=t or a complementary pair)."""
    out = set()
    for s, a in lits:
        key = frozenset((a.lhs, a.rhs)) if isinstance(a, Eq) else a
        if isinstance(a, Eq) and a.lhs == a.rhs:
            if s:
                return None
            continue
        if (not s, key) in out:
            return None
        out.add((s, key))
    return frozenset(out)


def var_diseqs(lits):
    """The x!=t literals of a literal set that have a variable side."""
    return {(s, key) for s, key in lits if not s and isinstance(key, frozenset)
            and any(isinstance(t, Var) for t in key)}


# Random formulas with variables, constants, a function, equalities,
# quantifiers and nested ; and , so that products have instances,
# subsets, equal literal sets and complementary pairs.
F_TERMS = st.sampled_from([Var("x"), Var("y"), Fn("a"), Fn("b"),
                           Fn("f", (Var("x"),)), Fn("f", (Fn("a"),))])
F_ATOMS = st.one_of(
    st.builds(lambda t: Atom("p", (t,)), F_TERMS),
    st.builds(lambda s, t: Atom("q", (s, t)), F_TERMS, F_TERMS),
    st.sampled_from([Atom("r"), Atom("s")]),
    st.builds(Eq, F_TERMS, F_TERMS))
FORMULAS = st.recursive(
    st.one_of(F_ATOMS, F_ATOMS.map(Not)),
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda a: And(tuple(a))),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: Or(tuple(a))),
        st.builds(lambda v, g: ForAll((v,), g), st.sampled_from("xy"), sub),
        st.builds(lambda v, g: Exists((v,), g), st.sampled_from("xy"), sub),
        sub.map(Not)),
    max_leaves=14)


def _keep_reference(masks, veqs):
    """The masks _Products.keep keeps, found by comparing each mask with
    every mask kept before it."""
    out = []
    for m in masks:
        if m is not None and not any(
                k & veqs == m & veqs and not k & ~m for k in out):
            out.append(m)
    return out


@given(st.lists(st.one_of(st.none(), st.integers(1, 2 ** 10 - 1)),
                max_size=40),
       st.integers(0, 2 ** 10 - 1))
@settings(deadline=None, max_examples=300)
def test_keep_matches_a_brute_force_reference(masks, veqs):
    run = _Products(math.inf)
    run.veqs = veqs
    clauses = [None if m is None else
               (tuple(i for i in range(10) if m >> i & 1), m) for m in masks]
    kept = run.keep(clauses)
    assert [m for _, m in kept] == _keep_reference(masks, veqs)


@given(FORMULAS)
@settings(deadline=None, max_examples=200)
def test_cnf_makes_the_clauses_of_all_products(f):
    g = nnf(strip_quantifiers(f))
    products = {literal_set(c) for c in all_products(g)} - {None}
    clauses = _cnf(g)
    made = [literal_set(c) for c in clauses]
    for c, lits in zip(clauses, made):
        assert lits in products and len(lits) == len(c)
    for p in products:
        assert any(c <= p and var_diseqs(c) == var_diseqs(p) for c in made)


# A unit whose complement is another unit: the result is contradictory
# like its input.
UNIT_CLASH = "(s ; (s, (s ; r))), ~s"
# Over the cap subsumes compares canonical keys only: clausify leaves out
# the second clause, whose literals include the first one's, but keeps
# the third, which has other variable names.
WIDE = " ; ".join(f"l{i}" for i in range(SUBSUMPTION_SIZE_CAP))
OVER_CAP = (f"all(x, (({WIDE} ; p(x)), ({WIDE} ; p(x) ; q(x)))), "
            f"all(y, ({WIDE} ; p(y) ; q(y)))")
# Equality resolution turns the second clause into the unit p(a), which
# subsumes the first one.  clausify must keep the second clause although
# its literals include the first one's: without it the result would be
# the weaker all(x, (p(x) ; p(a))).
EQ_COLLAPSE = "all(x, ((p(x) ; p(a)), (p(x) ; p(a) ; ~(x = a))))"
# x!=f(y) and x!=y share x, so equality resolution gives clauses that
# differ with the order of a clause's literals.
SHARED_VAR = ("all([x,y], ((~x=f(y), q, r(y) ; (~x=y ; ~y=y ; p(a,f(x))) ;"
              " p(y,f(x))) ; ~x=f(y) ; ~x=y))")


@pytest.mark.parametrize("src,lengths", [
    (UNIT_CLASH, [1, 1]),
    (OVER_CAP, [SUBSUMPTION_SIZE_CAP + 1, SUBSUMPTION_SIZE_CAP + 2]),
    (EQ_COLLAPSE, [1]),
    (SHARED_VAR, [3]),
])
def test_clausify_simplified_keeps_what_simplification_keeps(src, lengths):
    # simplify_clausal(clausify(f)) is the form elimination, c6 and
    # interpolation use
    f = parse_formula(src)
    cf = simplify_clausal(clausify(f))
    assert [len(c) for c in cf.clauses] == lengths
    g = clauses_to_formula(cf)
    if src == UNIT_CLASH:
        assert prop_equivalent(f, g)
    else:
        assert fo_equivalent(f, g), print_text(g)


# ---------------------------------------------------------------------------
# Un-Skolemization

def roundtrip(src):
    ctx = Context()
    f = parse_formula(src)
    ctx.reserve_formula(f)
    cf = clausify(f, ctx)
    return unskolemize(cf, ctx)


@pytest.mark.parametrize("src", [
    "ex(x, p(x))",
    "all(x, ex(y, p(x, y)))",
    "all(x, ex(y, (p(x, y), q(y))))",
    "ex(x, all(y, p(x, y)))",
    "all([x,y], ex(z, r(x, y, z)))",
    "(ex(x, p(x)), all(y, q(y)))",
    # bound names reused in one clause, and a free x beside a bound one
    "all(x, p(x)) ; all(x, q(x))",
    "p(x) ; all(x, q(x))",
    "all(x, (r(x, x) ; all(x, ex(y, r(x, y)))))",
    "ex(x, p(x)) ; all(x, ex(y, (r(x, y) ; all(x, q(x)))))",
])
def test_unskolemize_inverts_skolemization(src):
    f = parse_formula(src)
    g = roundtrip(src)
    names = {o.name for o in free_symbols(g)}
    assert not any(n.startswith("sk") for n in names)
    assert fo_equivalent(f, g), print_text(g)


def test_unskolemize_keeps_constants_named_like_skolem_symbols():
    assert pipeline_c6(parse_formula("p(sk1)")) == parse_formula("p(sk1)")


def test_unskolemize_does_not_capture_constants():
    # the fresh universal variable avoids the constant x of the clause
    f = parse_formula("all(z, ex(w, p(z, w, x)))")
    g = pipeline_c6(f)
    assert print_text(g) == "all(x1, ex(y, p(x1,y,x)))"
    assert fo_equivalent(f, g)


def test_unskolemize_chain_violation_raises():
    # two skolem constants with incomparable dependency sets sharing a
    # clause cannot be rebuilt into one quantifier prefix
    from pie.preprocess import ClausalForm
    c = Clause(((True, Atom("p", (Fn("sk1", (Var("x"),)),
                                  Fn("sk2", (Var("y"),))))),))
    cf = ClausalForm([c], {"sk1": 1, "sk2": 1})
    with pytest.raises(UnskolemizeError):
        unskolemize(cf)


def sk1(*args):
    return Fn("sk1", tuple(Var(a) if a.isupper() else Fn(a, ())
                           for a in args))


@pytest.mark.parametrize("lits", [
    # two argument lists in one clause: their variables are not one x
    [Atom("p", (Var("X"), sk1("X"))), Atom("q", (Var("Y"), sk1("Y")))],
    [Atom("p", (sk1("X", "Y"), sk1("Y", "X")))],
    # not a list of distinct variables
    [Atom("p", (Var("X"), sk1("X", "X")))],
    [Atom("p", (sk1("a", "X"),))],
], ids=["two-lists", "swapped", "repeated", "constant"])
def test_unskolemize_rejects_terms_it_cannot_invert(lits):
    c = Clause(tuple((True, a) for a in lits))
    arity = len(next(t for t in clause_terms(c) if isinstance(t, Fn)).args)
    with pytest.raises(UnskolemizeError):
        unskolemize(ClausalForm([c], {"sk1": arity}))


def test_unskolemize_keeps_the_order_of_the_groups():
    # two Skolem groups, one of them merged from two, between clauses
    # without a Skolem symbol: each group comes where its last clause
    # is, and the clause that merged two groups comes first in it
    f = parse_formula("(ex(y, (p(y), (q ; t(y)))), r, "
                      "all(x, ex(z, (s(x,z), (u(z) ; q)))), (r ; v), "
                      "ex(w, (t(w), ex(z, (p(z), s(w,z))))), ~v)")
    assert print_text(pipeline_c6(f)) == (
        "ex(y, ((q; t(y)), p(y))), r, "
        "all(x1, ex(y1, ((u(y1); q), s(x1,y1)))), "
        "ex([y2,y3], (s(y2,y3), t(y2), p(y3))), ~v")


def test_unskolemize_is_linear_in_the_clauses_without_skolems():
    # a Skolem constant beside the 4,096 clauses of a 12-disjunct DNF:
    # about 2 s while every clause was compared with every earlier group
    d12 = " ; ".join(f"(a{i}, b{i})" for i in range(12))
    cf = simplify_clausal(clausify(parse_formula(f"ex(y, p(y)), ({d12})")))
    assert len(cf.clauses) == 4097
    t0 = time.perf_counter()
    unskolemize(cf)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Pipelines

def test_pipeline_c6_gives_universal_cnf_like_form():
    f = parse_formula("~(p -> q)")
    g = pipeline_c6(f)
    assert fo_equivalent(f, g)
    assert print_text(g) == "p, ~q"


def test_pipeline_c6_first_order():
    f = parse_formula("all(x, (q(x) -> r(x))), ex(y, q(y))")
    g = pipeline_c6(f)
    assert fo_equivalent(f, g)


def test_pipeline_c6_text_reads_back():
    # the constant x must not be captured by the quantifier of the result
    g = pipeline_c6(parse_formula("p(x) ; all(x, q(x))"))
    assert parse_formula(print_text(g)) == g


def test_pipeline_d6_dualizes():
    f = parse_formula("~(p, q)")
    g = pipeline_d6(f)
    assert fo_equivalent(f, g)


@given(st.sampled_from(prop_corpus(300)))
@settings(deadline=None)
def test_pipeline_c6_propositional_property(f):
    g = pipeline_c6(f)
    atoms = sorted(set(prop_atoms(f)) | set(prop_atoms(g)))
    assert truth_table(f, atoms) == truth_table(g, atoms)
