"""Formula core: constructors, substitution, NNF, vocabulary."""

import itertools

from hypothesis import given, strategies as st

from pie.formula import (
    And, Atom, Context, Eq, Exists, Exists2, FALSE, Falsity, Fn, ForAll,
    ForAll2, Formula, Iff, Implies, Lambda, LambdaApp, MacroCall, Not, Or,
    PredSpec, TRUE, Truth, Var, children, conj, disj, free_symbols,
    free_vars, is_first_order, map_children, map_term, neg, nnf,
    subformulas, substitute_predicate,
)
from pie.syntax import parse_formula

from oracles import eval_prop, prop_atoms, prop_corpus, truth_table


def occ_map(f):
    return {(o.name, o.kind, o.arity): o.polarity for o in free_symbols(f)}


# ---------------------------------------------------------------------------
# Smart constructors

def test_conj_flattens_and_absorbs():
    p, q, r = (Atom(x, ()) for x in "pqr")
    assert conj([p, conj([q, r])]) == And((p, q, r))
    assert conj([]) == TRUE
    assert conj([p]) == p
    assert conj([p, FALSE, q]) == FALSE
    assert disj([]) == FALSE
    assert disj([p, TRUE]) == TRUE


def test_neg_is_involutive_on_literals():
    p = Atom("p", (Var("x"),))
    assert neg(neg(p)) == p
    assert neg(TRUE) == FALSE
    assert neg(FALSE) == TRUE


# ---------------------------------------------------------------------------
# NNF (oracle: truth-table equality on the propositional corpus)

def test_nnf_preserves_truth_tables():
    corpus = prop_corpus(300)[:300]
    for f in corpus:
        g = nnf(f)
        atoms = sorted(set(prop_atoms(f)) | set(prop_atoms(g)))
        assert truth_table(f, atoms) == truth_table(g, atoms), f


def test_nnf_shape():
    f = parse_formula("~(all(x, (p(x) -> q(x))))")
    g = nnf(f)
    assert isinstance(g, Exists)
    assert isinstance(g.body, And)


# ---------------------------------------------------------------------------
# Vocabulary and polarity

def test_free_symbols_polarity():
    f = parse_formula("(p(a) -> q(b)), ~r(c)")
    m = occ_map(f)
    assert m[("p", "predicate", 1)] == "neg"
    assert m[("q", "predicate", 1)] == "pos"
    assert m[("r", "predicate", 1)] == "neg"
    assert m[("a", "function", 0)] == "both"


def test_free_symbols_iff_is_both():
    f = parse_formula("(p <-> q)")
    m = occ_map(f)
    assert m[("p", "predicate", 0)] == "both"
    assert m[("q", "predicate", 0)] == "both"


def test_bound_vars_not_free():
    # names not bound by a quantifier parse as constants, so build the AST
    f = ForAll(("x",), Atom("p", (Var("x"), Var("y"))))
    assert free_vars(f) == {"y"}
    # ... and the parser indeed reads the unbound name as a constant
    g = parse_formula("all(x, p(x, y))")
    assert free_vars(g) == set()
    assert ("y", "function", 0) in {(o.name, o.kind, o.arity)
                                    for o in free_symbols(g)}


# ---------------------------------------------------------------------------
# Predicate substitution (grounds Shannon expansion and Ackermann)

def test_substitute_predicate_with_constants():
    f = parse_formula("(p -> q)")
    g = substitute_predicate(f, PredSpec("p", 0), Lambda((), TRUE))
    assert eval_prop(g, {"q": False}) is False
    assert eval_prop(g, {"q": True}) is True


def test_substitute_predicate_beta_reduces():
    f = parse_formula("all(x, (p(x) -> r(x)))")
    body = Atom("q", (Var("y"),))
    g = substitute_predicate(f, PredSpec("p", 1),
                             Lambda(("y",), body))
    assert g == parse_formula("all(x, (q(x) -> r(x)))")


def test_substitute_predicate_rejects_mixed_arity():
    # one arity per symbol is a global invariant: the parser refuses
    # mixed-arity input and substitution refuses mixed-arity occurrences
    import pytest
    from pie.formula import FormulaError
    from pie.syntax import ParseError
    with pytest.raises(ParseError):
        parse_formula("p(a), p")
    f = And((Atom("p", (Fn("a", ()),)), Atom("p", ())))
    with pytest.raises(FormulaError):
        substitute_predicate(f, PredSpec("p", 0), Lambda((), TRUE))


# ---------------------------------------------------------------------------
# Context

def test_context_fresh_names_avoid_reserved():
    ctx = Context()
    ctx.reserve_formula(parse_formula("q(a), q1(b)"))
    fresh = ctx.fresh_pred("q")
    assert fresh not in ("q", "q1")


def test_is_first_order():
    assert is_first_order(parse_formula("all(x, p(x))"))
    assert not is_first_order(parse_formula("ex2(p, p(a))"))


# ---------------------------------------------------------------------------
# Traversal

def test_traversal_covers_every_node_class():
    a, b = Atom("p", (Var("x"),)), Atom("q", ())
    lam = Lambda(("x",), a)
    examples = {
        Atom: a, Eq: Eq(Var("x"), Fn("c")), Truth: TRUE, Falsity: FALSE,
        Not: Not(a), And: And((a, b)), Or: Or((a, b)),
        Implies: Implies(a, b), Iff: Iff(a, b),
        ForAll: ForAll(("x",), a), Exists: Exists(("x",), a),
        ForAll2: ForAll2((PredSpec("p"),), a),
        Exists2: Exists2((PredSpec("p"),), a),
        Lambda: lam, LambdaApp: LambdaApp(lam, (Fn("c"),)),
        MacroCall: MacroCall("m", (a, Fn("c"), (b,))),
    }
    # a node class added later must be given an example here
    assert set(examples) == set(Formula.__subclasses__())
    for f in examples.values():
        kids = children(f)
        assert all(isinstance(k, Formula) for k in kids)
        assert map_children(f, lambda g: g) == f
        seen = []
        map_children(f, lambda g: seen.append(g) or g)
        assert seen == list(kids)
    f = Implies(And((a, Not(b))), ForAll(("x",), a))
    assert list(subformulas(f)) == [f, f.lhs, a, Not(b), b, f.rhs, a]


def test_map_term_tries_leaf_first():
    c = Fn("c")
    t = Fn("f", (Var("x"), Fn("g", (Var("x"), c))))
    out = map_term(t, lambda s: Fn("d") if s == Var("x") else None)
    assert out == Fn("f", (Fn("d"), Fn("g", (Fn("d"), c))))
    # a replaced subterm is not descended into
    calls = []

    def leaf(s):
        calls.append(s)
        return c if isinstance(s, Fn) and s.functor == "g" else None

    assert map_term(t, leaf) == Fn("f", (Var("x"), c))
    assert calls == [t, Var("x"), t.args[1]]
    assert map_term(c, lambda s: None) is c


# ---------------------------------------------------------------------------
# Property: random propositional formulas, nnf round-trips semantics

_leaves = st.sampled_from([Atom("p", ()), Atom("q", ()), Atom("r", ()),
                           TRUE, FALSE])


def prop_formulas():
    """Random propositional formulas over p, q, r, true and false."""
    return st.recursive(
        _leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(t)),
            st.tuples(kids, kids).map(lambda t: Or(t)),
            st.tuples(kids, kids).map(lambda t: Implies(*t)),
            st.tuples(kids, kids).map(lambda t: Iff(*t)),
        ),
        max_leaves=8)


@given(prop_formulas())
def test_nnf_property(f):
    g = nnf(f)
    atoms = ["p", "q", "r"]
    assert truth_table(f, atoms) == truth_table(g, atoms)
    # NNF result contains no Implies/Iff, negation only on atoms and no
    # true/false below an And/Or
    def check(h):
        assert not isinstance(h, (Implies, Iff))
        if isinstance(h, Not):
            assert isinstance(h.arg, (Atom, Eq))
        elif isinstance(h, (And, Or)):
            for a in h.args:
                assert not isinstance(a, (Truth, Falsity))
                check(a)
    check(g)
