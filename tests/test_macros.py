"""Parameterized formula macros and their builtin expansion steps."""

import pytest

from pie.document import load_document
from pie.formula import (
    And, Atom, Context, Exists2, Fn, Implies, Not, free_symbols,
)
from pie.macros import MacroError, expand
from pie.syntax import parse_formula, print_text

from oracles import fo_equivalent


def table_from(*stmts):
    _, table = load_document("".join(s + ".\n" for s in stmts))
    return table


KB1 = ("def(kb1) :: (sprinkler_was_on -> wet(grass)), "
       "(rained_last_night -> wet(grass)), (wet(grass) -> wet(shoes))")

CIRC = """def(circ(P, F)) ::
F, ~ex2(P_p, (F_p, T1, ~T2)) ::-
 mac_rename_free_predicate(F, P, pn, F_p, P_p),
 mac_get_arity(P, F, A),
 mac_transfer_clauses([P/A-n], p, [P_p], T1),
 mac_transfer_clauses([P/A-n], n, [P_p], T2)"""

EXPL = "def(explanation(Kb, Na, Ob)) :: all2(Na, (Kb -> Ob))"


def test_zero_arg_macro_expansion():
    t = table_from(KB1)
    f = expand(t, parse_formula("kb1"), Context())
    assert f == parse_formula(
        "(sprinkler_was_on -> wet(grass)), "
        "(rained_last_night -> wet(grass)), (wet(grass) -> wet(shoes))")


def test_macro_with_parameters():
    t = table_from(EXPL, KB1)
    f = expand(t, parse_formula("explanation(kb1, [wet], wet(shoes))"),
               Context())
    s = print_text(f)
    assert s.startswith("all2(wet")
    assert "wet(shoes)" in s


def test_nested_expansion():
    t = table_from(KB1, "def(kb1x) :: kb1, extra")
    f = expand(t, parse_formula("kb1x"), Context())
    assert "extra" in print_text(f)
    assert "kb1" not in print_text(f)


def test_circ_expansion_shape():
    t = table_from(CIRC)
    f = expand(t, parse_formula("circ(p, p(a))"), Context())
    assert isinstance(f, And)
    assert f.args[0] == parse_formula("p(a)")
    inner = f.args[1]
    assert isinstance(inner, Not) and isinstance(inner.arg, Exists2)
    # the renamed predicate is fresh: not p itself
    q = inner.arg.preds[0].name
    assert q != "p"
    body = print_text(inner.arg.body)
    # transfer clauses quantify with the canonical variable x
    assert f"all(x, ({q}(x)->p(x)))" in body
    assert f"all(x, (p(x)->{q}(x)))" in body


def test_circ_expansion_is_fresh_per_context():
    t = table_from(CIRC)
    ctx = Context()
    f1 = expand(t, parse_formula("circ(p, p(a))"), ctx)
    f2 = expand(t, parse_formula("circ(p, p(a))"), ctx)
    q1 = f1.args[1].arg.preds[0].name
    q2 = f2.args[1].arg.preds[0].name
    assert q1 != q2


def test_first_matching_head_wins():
    t = table_from("def(m(X)) :: p(X)", "def(m) :: q")
    assert expand(t, parse_formula("m(a)"), Context()) == \
        parse_formula("p(a)")
    assert expand(t, parse_formula("m"), Context()) == parse_formula("q")


def test_redefinition_replaces():
    t = table_from("def(m) :: p", "def(m) :: q")
    assert expand(t, parse_formula("m"), Context()) == parse_formula("q")


def test_unmatched_call_is_ordinary_atom():
    # names are macros only when a head matches; otherwise they are
    # ordinary atoms and pass through unchanged
    t = table_from("def(m(X)) :: p(X)")
    f = parse_formula("m(a, b)")
    assert expand(t, f, Context()) == f


def test_get_arity_requires_occurrence():
    t = table_from(CIRC)
    with pytest.raises(MacroError):
        expand(t, parse_formula("circ(z, p(a))"), Context())


def test_expansion_depth_limit():
    t = table_from("def(loop) :: ~loop")
    with pytest.raises(MacroError):
        expand(t, parse_formula("loop"), Context())


def test_unbound_template_placeholders_are_fresh_bound():
    # a placeholder only on the right side becomes a fresh symbol
    t = table_from("def(m) :: ex2(Q, (Q, p))")
    f = expand(t, parse_formula("m"), Context())
    assert isinstance(f, Exists2)


def test_expansion_preserves_meaning_explanation():
    # the expansion of explanation(kb1,...) is the weakest sufficient
    # condition schema: check the second-order reduction is well formed
    from pie.prover import reduce_so_universal
    t = table_from(EXPL, KB1)
    f = expand(t, parse_formula(
        "explanation(kb1, [wet], wet(shoes))"), Context())
    g = reduce_so_universal(f)
    from pie.formula import is_first_order
    assert is_first_order(g)
    names = {o.name for o in free_symbols(g) if o.kind == "predicate"}
    assert "wet" not in names
