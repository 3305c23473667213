"""The contract of the package's record classes: constructors, repr,
equality, hashing and immutability.

repr is pinned byte for byte because _literal_order sorts literals by
it, and the constructor calls are those the benchmark and
tools/outcomes.py make.
"""

import copy
import pickle

import pytest

from pie.document import DirectiveResult
from pie.elimination import EliminationOutcome, EliminationTask
from pie.formula import (
    FALSE, TRUE, And, Atom, Eq, Exists, Exists2, Fn, ForAll, ForAll2, Iff,
    Implies, Lambda, LambdaApp, MacroCall, Not, Occ, Or, PredSpec, Var,
)
from pie.interpolation import Interpolant, InterpolationTask
from pie.macros import MacroTable
from pie.preprocess import Clause
from pie.prover import (
    Model, ProofResult, ProverConfig, TableauNode, ValidationResult,
)

X, A = Var("x"), Fn("a")
T = Fn("f", (X, A))
P = Atom("p", (T,))
P_TEXT = "Atom(pred='p', args=(Fn(f, [Var(x), Fn(a)]),))"

# (value, its repr, its fields in constructor order)
FROZEN = [
    (X, "Var(x)", ("x",)),
    (A, "Fn(a)", ("a", ())),
    (T, "Fn(f, [Var(x), Fn(a)])", ("f", (X, A))),
    (P, P_TEXT, ("p", (T,))),
    (Atom("q"), "Atom(pred='q', args=())", ("q", ())),
    (Eq(X, A), "Eq(lhs=Var(x), rhs=Fn(a))", (X, A)),
    (TRUE, "Truth()", ()),
    (FALSE, "Falsity()", ()),
    (Not(P), f"Not(arg={P_TEXT})", (P,)),
    (And((P, TRUE)), f"And(args=({P_TEXT}, Truth()))", ((P, TRUE),)),
    (Or((P, FALSE)), f"Or(args=({P_TEXT}, Falsity()))", ((P, FALSE),)),
    (Implies(P, FALSE), f"Implies(lhs={P_TEXT}, rhs=Falsity())",
     (P, FALSE)),
    (Iff(P, TRUE), f"Iff(lhs={P_TEXT}, rhs=Truth())", (P, TRUE)),
    (PredSpec("p", 1), "PredSpec(name='p', arity=1)", ("p", 1)),
    (PredSpec("q"), "PredSpec(name='q', arity=None)", ("q", None)),
    (ForAll(("x",), P), f"ForAll(vars=('x',), body={P_TEXT})",
     (("x",), P)),
    (Exists(("x",), P), f"Exists(vars=('x',), body={P_TEXT})",
     (("x",), P)),
    (ForAll2((PredSpec("p", 1),), P),
     f"ForAll2(preds=(PredSpec(name='p', arity=1),), body={P_TEXT})",
     ((PredSpec("p", 1),), P)),
    (Exists2((PredSpec("p"),), P),
     f"Exists2(preds=(PredSpec(name='p', arity=None),), body={P_TEXT})",
     ((PredSpec("p"),), P)),
    (Lambda(("x",), P), f"Lambda(params=('x',), body={P_TEXT})",
     (("x",), P)),
    (MacroCall("m", (P, X, (A,))),
     f"MacroCall(name='m', args=({P_TEXT}, Var(x), (Fn(a),)))",
     ("m", (P, X, (A,)))),
    (LambdaApp(Lambda(("x",), P), (A,)),
     f"LambdaApp(head=Lambda(params=('x',), body={P_TEXT}), "
     f"args=(Fn(a),))", (Lambda(("x",), P), (A,))),
    (Occ("p", "predicate", 1, "pos"),
     "Occ(name='p', kind='predicate', arity=1, polarity='pos')",
     ("p", "predicate", 1, "pos")),
    (Clause(((True, P), (False, Eq(X, A)))),
     f"Clause(literals=((True, {P_TEXT}), "
     f"(False, Eq(lhs=Var(x), rhs=Fn(a)))))",
     (((True, P), (False, Eq(X, A))),)),
]
IDS = [type(v).__name__ + str(i) for i, (v, _, _) in enumerate(FROZEN)]


@pytest.mark.parametrize("value, text, fields", FROZEN, ids=IDS)
def test_frozen_records_repr_hash_and_equality(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    twin = type(value)(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)


@pytest.mark.parametrize("value, text, fields", FROZEN, ids=IDS)
def test_frozen_records_refuse_assignment(value, text, fields):
    with pytest.raises(AttributeError):
        value.name = "y"
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", FROZEN, ids=IDS)
def test_frozen_records_copy_and_pickle(value, text, fields):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_records_of_different_classes_differ():
    assert Atom("p", ()) != Fn("p", ())
    assert Var("x") != Fn("x")
    assert Implies(P, P) != Iff(P, P)
    assert And((P,)) != Or((P,))
    assert P != ("p", (T,))


def test_mutable_records_compare_fields_and_are_unhashable():
    assert ProverConfig(timeout_ms=100) == ProverConfig(100, 30, None)
    assert ProverConfig(timeout_ms=100) != ProverConfig(timeout_ms=200)
    assert MacroTable() == MacroTable({})
    for value in (ProverConfig(), ProofResult(False), MacroTable()):
        with pytest.raises(TypeError):
            hash(value)
    assert repr(ProverConfig()) == \
        "ProverConfig(timeout_ms=5000, max_depth=30, max_inferences=None)"


def test_mutable_defaults_are_not_shared():
    a, b = ProofResult(False), ProofResult(False)
    a.clauses.append(1)
    assert b.clauses == []
    m, n = MacroTable(), MacroTable()
    m.defs[("m", 0)] = []
    assert n.defs == {}


def test_tableau_nodes_are_equal_only_to_themselves():
    root = TableauNode(None, None)
    leaf = TableauNode((True, P), "left", closed_by=root)
    root.children.append(leaf)
    assert root == root and root != TableauNode(None, None, [leaf])
    assert len({root, leaf}) == 2
    assert repr(root) == (
        f"TableauNode(literal=None, side=None, children=[TableauNode("
        f"literal=(True, {P_TEXT}), side='left', children=[], "
        f"closed_by=..., clause_index=None)], closed_by=None, "
        f"clause_index=None)")


def test_constructor_calls_of_the_benchmark_and_tools():
    m = Model(1, {}, {("p", 1): {(1,)}})
    assert (m.size, m.functions, m.predicates) == (1, {}, {("p", 1): {(1,)}})
    v = ValidationResult("invalid", model=m)
    assert (v.status, v.proof, v.model) == ("invalid", None, m)
    assert ValidationResult("valid").model is None
    o = EliminationOutcome("success", result=P)
    assert (o.status, o.result, o.reason) == ("success", P, "")
    i = Interpolant(P)
    assert (i.formula, i.proof, i.model, i.status) == \
        (P, None, None, "interpolant")
    d = DirectiveResult("failed", "", None, "invalid")
    assert (d.status, d.text, d.formula, d.detail) == \
        ("failed", "", None, "invalid")
    c = ProverConfig(timeout_ms=60000)
    assert (c.timeout_ms, c.max_depth, c.max_inferences) == (60000, 30, None)
    e = EliminationTask(P, simp_result="c6")
    assert (e.formula, e.pre, e.simp_result, e.timeout_ms) == \
        (P, None, "c6", 30000)
    t = InterpolationTask(P, Not(P))
    assert (t.left, t.right, t.simp_sides, t.dot_path) == \
        (P, Not(P), True, None)
    r = ProofResult(True, inferences=3)
    assert (r.proved, r.tableau, r.depth, r.inferences, r.elapsed_ms,
            r.reason, r.clauses, r.cached_failures) == \
        (True, None, None, 3, 0.0, "", [], 0)
