"""Parser, printers, and exchange-format emitters."""

import subprocess

import pytest
from hypothesis import given, strategies as st

from pie.formula import (
    And, Atom, Eq, Exists, Exists2, Fn, ForAll, Iff, Implies, Lambda,
    LambdaApp, MacroCall, Not, Or, Var,
)
from pie.preprocess import clausify
from pie.syntax import (
    EmitError, ParseError, emit_dimacs, emit_qdimacs, emit_tptp,
    parse_formula, print_latex, print_text,
)

from oracles import eval_clauses, eval_prop, prop_atoms, prop_corpus


# ---------------------------------------------------------------------------
# Parsing

def test_operator_precedence():
    f = parse_formula("p ; q , r -> s <-> t")
    # <-> binds loosest, then ->, then ; then ,
    assert isinstance(f, Iff)
    assert isinstance(f.lhs, Implies)
    assert isinstance(f.lhs.lhs, Or)
    assert isinstance(f.lhs.lhs.args[1], And)


def test_implication_right_associative():
    f = parse_formula("p -> q -> r")
    assert isinstance(f, Implies)
    assert isinstance(f.rhs, Implies)
    assert f.lhs == Atom("p", ())


def test_quantifiers_and_lists():
    f = parse_formula("all([x,y], ex(z, p(x,y,z)))")
    assert isinstance(f, ForAll) and f.vars == ("x", "y")
    assert isinstance(f.body, Exists)
    assert f.body.body == Atom("p", (Var("x"), Var("y"), Var("z")))


def test_second_order_quantifier():
    f = parse_formula("ex2(p, p(a))")
    assert isinstance(f, Exists2)
    assert f.preds[0].name == "p"


def test_equality_and_disequality():
    f = parse_formula("a = b, c \\= d")
    assert print_text(f) == "a=b, ~c=d"


def test_quoted_atoms():
    f = parse_formula("'strange atom'(a)")
    assert isinstance(f, Atom)
    # quotes are retained on the symbol so printing stays faithful
    assert f.pred == "'strange atom'"
    assert parse_formula(print_text(f)) == f


def test_parse_errors():
    for bad in ["p ->", "all(, p)", "p((", "", "p) q"]:
        with pytest.raises(ParseError):
            parse_formula(bad)


# ---------------------------------------------------------------------------
# Round trip: print then parse gives the same AST

def test_print_parse_roundtrip_fixed():
    sources = [
        "p, (q ; ~r)",
        "all(x, (p(x) -> ex(y, r(x,y))))",
        "ex2(p, (p(a), all(x, (p(x) -> x=a))))",
        "all([x,y], (e(x,y) -> ~(r(x), r(y))))",
        "(p <-> (q -> r))",
    ]
    for src in sources:
        f = parse_formula(src)
        assert parse_formula(print_text(f)) == f


@given(st.sampled_from(prop_corpus(400)))
def test_print_parse_roundtrip_property(f):
    # parsing flattens nested conjunction/disjunction, so demand semantic
    # equality plus a syntactic fixpoint after one round trip
    from oracles import prop_equivalent
    g = parse_formula(print_text(f))
    assert prop_equivalent(f, g)
    assert parse_formula(print_text(g)) == g


# ---------------------------------------------------------------------------
# LaTeX output

def test_latex_basics():
    f = parse_formula("all(x, (p(x) -> q(x)))")
    s = print_latex(f)
    assert "\\forall" in s and "\\rightarrow" in s
    assert "\\mathit{x}" in s


def test_latex_conjunction_array():
    f = parse_formula("p, q, r")
    s = print_latex(f)
    assert s.startswith("\\begin{array}")
    assert s.count("\\land") == 2


def test_latex_subscripts():
    s = print_latex(parse_formula("kb1"))
    assert "kb_{1}" in s


# one formula of each node kind and each precedence wrap: source, text,
# LaTeX
PRINTED = [
    ("true", "true", r"\top"),
    ("false", "false", r"\bot"),
    ("p", "p", r"\mathsf{p}"),
    ("p(f(a),b1)", "p(f(a),b1)",
     r"\mathsf{p}(\mathsf{f}(\mathsf{a}),\mathsf{b_{1}})"),
    ("kb1_p(x_y)", "kb1_p(x_y)", r"\mathsf{kb_{1}}^{'}(\mathsf{x\_y})"),
    ("a=g(b)", "a=g(b)", r"\mathsf{a}=\mathsf{g}(\mathsf{b})"),
    (r"a \= b", "~a=b", r"\mathsf{a}\neq \mathsf{b}"),
    ("~p", "~p", r"\lnot \mathsf{p}"),
    ("~(p, q)", "~(p, q)", r"\lnot (\mathsf{p} \land \mathsf{q})"),
    ("~(p -> q)", "~(p->q)", r"\lnot (\mathsf{p} \rightarrow \mathsf{q})"),
    ("p, q ; r", "p, q; r", r"\mathsf{p} \land \mathsf{q} \lor \mathsf{r}"),
    ("(p ; q), r", "(p; q), r",
     "\\begin{array}{l}\n(\\mathsf{p} \\lor \\mathsf{q}) \\; \\land \\\\\n"
     "\\mathsf{r}\n\\end{array}"),
    ("p ; (q -> r)", "p; (q->r)",
     r"\mathsf{p} \lor (\mathsf{q} \rightarrow \mathsf{r})"),
    ("(p -> q) -> r", "(p->q)->r",
     r"(\mathsf{p} \rightarrow \mathsf{q}) \rightarrow \mathsf{r}"),
    ("p -> q -> r", "p->q->r",
     r"\mathsf{p} \rightarrow \mathsf{q} \rightarrow \mathsf{r}"),
    ("(p <-> q) <-> r", "(p<->q)<->r",
     r"(\mathsf{p} \leftrightarrow \mathsf{q}) \leftrightarrow \mathsf{r}"),
    ("p <-> q <-> r", "p<->q<->r",
     r"\mathsf{p} \leftrightarrow \mathsf{q} \leftrightarrow \mathsf{r}"),
    ("(p <-> q) -> r", "(p<->q)->r",
     r"(\mathsf{p} \leftrightarrow \mathsf{q}) \rightarrow \mathsf{r}"),
    ("all(x, p(x))", "all(x, p(x))",
     r"\forall \mathit{x} \, \mathsf{p}(\mathit{x})"),
    ("ex([x,y], (p(x) ; q(y)))", "ex([x,y], (p(x); q(y)))",
     r"\exists \mathit{x} \exists \mathit{y} \, "
     r"(\mathsf{p}(\mathit{x}) \lor \mathsf{q}(\mathit{y}))"),
    ("(all(x, p(x)) -> q)", "all(x, p(x))->q",
     r"\forall \mathit{x} \, \mathsf{p}(\mathit{x}) \rightarrow \mathsf{q}"),
    ("all2(p, ~p(a))", "all2(p, ~p(a))",
     r"\forall \mathit{p} \, \lnot \mathsf{p}(\mathsf{a})"),
    ("ex2([p,q], (p, q))", "ex2([p,q], (p, q))",
     r"\exists \mathit{p} \exists \mathit{q} \, (\mathsf{p} \land \mathsf{q})"),
    ("lambda([x], p(x))", "lambda([x], p(x))",
     r"\lambda (\mathit{x}).\mathsf{p}(\mathit{x})"),
    ("m(a, X, (p, q), [b, ~r])", "m(a,X,(p, q),[b,~r])",
     r"\mathit{m}(\mathsf{a},\mathsf{X},(\mathsf{p} \land \mathsf{q}),"
     r"[\mathsf{b},\lnot \mathsf{r}])"),
]


@pytest.mark.parametrize("src,text,latex", PRINTED)
def test_printers_on_each_node_kind(src, text, latex):
    f = parse_formula(src)
    assert print_text(f) == text
    assert print_latex(f) == latex


def test_printers_on_built_nodes():
    x = Var("x")
    app = LambdaApp(Lambda(("x",), Atom("p", (x,))), (Fn("a"),))
    assert (print_text(app), print_latex(app)) == (
        "p(a)", r"\mathsf{p}(\mathsf{a})")
    ne = Not(Eq(x, Fn("a")))
    assert (print_text(ne), print_latex(ne)) == (
        "~x=a", r"\mathit{x}\neq \mathsf{a}")
    call = MacroCall("m", ())
    assert (print_text(call), print_latex(call)) == ("m", r"\mathit{m}")
    with pytest.raises(ValueError, match="cannot print"):
        print_text(Not(x))


def test_nested_lists_in_macro_calls_print():
    # the parser reads lists in lists; the printers raised on them
    f = parse_formula("m([[a], b], (p, q))")
    assert print_text(f) == "m([[a],b],(p, q))"
    assert parse_formula(print_text(f)) == f
    assert print_latex(f) == (r"\mathit{m}([[\mathsf{a}],\mathsf{b}],"
                              r"(\mathsf{p} \land \mathsf{q}))")


# ---------------------------------------------------------------------------
# TPTP

def test_tptp_fof():
    f = parse_formula("all(x, (p(x) -> q(x)))")
    s = emit_tptp("ax1", "axiom", f)
    assert s == "fof(ax1, axiom, (! [X] : (p(X) => q(X)))).\n"


def test_tptp_role_check():
    with pytest.raises(EmitError):
        emit_tptp("f", "banana", parse_formula("p"))


# ---------------------------------------------------------------------------
# DIMACS (oracle: independent CNF evaluation over the corpus)

def test_dimacs_header_and_clauses():
    cf = clausify(parse_formula("(p ; q), (~p ; r)"))
    text, mapping = emit_dimacs(cf)
    lines = text.splitlines()
    assert lines[0] == f"p cnf {len(mapping)} 2"
    assert all(line.endswith(" 0") for line in lines[1:])


def test_dimacs_agrees_with_evaluator():
    import itertools
    for f in prop_corpus(100)[:100]:
        cf = clausify(f)
        text, mapping = emit_dimacs(cf)
        atoms = sorted(set(prop_atoms(f)) | set(mapping))
        for bits in itertools.product([False, True], repeat=len(atoms)):
            env = dict(zip(atoms, bits))
            got = all(
                any(env[name] if n > 0 else not env[name]
                    for n in map(int, line.split()[:-1])
                    for name in [next(k for k, v in mapping.items()
                                      if v == abs(n))])
                for line in text.splitlines()[1:])
            assert got == eval_clauses(cf.clauses, env)


def test_dimacs_rejects_first_order():
    cf = clausify(parse_formula("all(x, p(x))"))
    with pytest.raises(EmitError):
        emit_dimacs(cf)


def test_qdimacs_prefix():
    cf = clausify(parse_formula("(p ; q)"))
    text, mapping = emit_qdimacs([("a", ["p"]), ("e", ["q"])], cf)
    lines = text.splitlines()
    assert lines[1].startswith("a ") and lines[2].startswith("e ")
