"""Acceptance criteria for the workbench.

Each criterion prints one pass/fail line (run with `pytest -s` or `-v`
to see them live).  Result formulas are checked up to logical
equivalence, with both entailment directions proved by the built-in
prover, unless an exact form is required.
"""

import itertools
import os
import re
import time

from pie.document import load_document, process_file
from pie.elimination import EliminationTask, eliminate, eliminate_staged
from pie.formula import (
    Context, Exists2, Implies, Lambda, PredSpec, free_symbols,
    is_first_order, neg,
)
from pie.interpolation import InterpolationTask, interpolate
from pie.macros import expand
from pie.preprocess import clausify
from pie.prover import (
    ProverConfig, check_tableau, find_countermodel, prove,
    prove_implication, reduce_so_universal, validate,
)
from pie.syntax import parse_formula, print_text

from oracles import (
    eval_clauses, eval_prop, exists_table, prop_atoms, prop_corpus,
    prop_entails, truth_table,
)

CFG = ProverConfig(timeout_ms=5000)
FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                       "workbench.pie")

# proof certificates and countermodels collected while running
# criteria 1-8, re-checked independently by criterion 9
CERTIFICATES = []       # ProofResult
COUNTERMODELS = []      # (formula, Model)


def report(n, desc, ok):
    print(f"\ncriterion {n:2d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {desc}"


def equivalent(f, g):
    """Both entailment directions, proved; certificates are collected.
    Syntactic identity short-circuits, being stronger than equivalence."""
    if f == g:
        return True
    r1 = prove_implication(f, g, CFG)
    r2 = prove_implication(g, f, CFG)
    for r in (r1, r2):
        if r.proved:
            CERTIFICATES.append(r)
    return r1.proved and r2.proved


def pred_names(f):
    return {o.name for o in free_symbols(f) if o.kind == "predicate"}


def macro_table():
    _, table = load_document("".join(stmt + ".\n" for stmt in [
        "def(kb1) :: (sprinkler_was_on -> wet(grass)), "
        "(rained_last_night -> wet(grass)), (wet(grass) -> wet(shoes))",
        "def(explanation(Kb, Na, Ob)) :: all2(Na, (Kb -> Ob))",
        """def(circ(P, F)) ::
F, ~ex2(P_p, (F_p, T1, ~T2)) ::-
 mac_rename_free_predicate(F, P, pn, F_p, P_p),
 mac_get_arity(P, F, A),
 mac_transfer_clauses([P/A-n], p, [P_p], T1),
 mac_transfer_clauses([P/A-n], n, [P_p], T2)""",
        "def(kb2) :: all(x, (p(x) -> q(x), s(x))), "
        "all(x, (s(x) -> r(x))), all(x, (q(x), r(x) -> p(x)))",
        "def(definiens(G, F, P)) :: (ex2(P, (F, G)) -> all2(P, (F -> G)))",
    ]))
    return table


# ---------------------------------------------------------------------------

def test_criterion_1_elimination():
    t0 = time.monotonic()
    out = eliminate(EliminationTask(parse_formula(
        "ex2(p, (all(x, (q(x) -> p(x))), all(x, (p(x) -> r(x)))))")))
    elapsed = time.monotonic() - t0
    ok = (out.status == "success"
          and "p" not in pred_names(out.result)
          and equivalent(out.result, parse_formula("all(x, (q(x) -> r(x)))"))
          and elapsed < 1.0)
    report(1, "second-order quantifier elimination", ok)


def test_criterion_2_abduction():
    t0 = time.monotonic()
    f = expand(macro_table(),
               parse_formula("explanation(kb1, [wet], wet(shoes))"),
               Context())
    out = eliminate(EliminationTask(f))
    elapsed = time.monotonic() - t0
    ok = (out.status == "success"
          and "wet" not in pred_names(out.result)
          and equivalent(out.result, parse_formula(
              "rained_last_night ; sprinkler_was_on"))
          and elapsed < 1.0)
    report(2, "abduction via weakest sufficient condition", ok)


def test_criterion_3_validity():
    t0 = time.monotonic()
    f = expand(macro_table(), parse_formula(
        "kb1, (rained_last_night ; sprinkler_was_on) -> wet(shoes)"),
        Context())
    out = validate(f, CFG)
    elapsed = time.monotonic() - t0
    if out.proof is not None and out.proof.proved:
        CERTIFICATES.append(out.proof)
    ok = out.status == "valid" and elapsed < 1.0
    report(3, "validity of the knowledge-base entailment", ok)


def test_criterion_4_circumscription():
    table = macro_table()
    t0 = time.monotonic()
    f1 = expand(table, parse_formula("circ(p, p(a))"), Context())
    out1 = eliminate(EliminationTask(f1, simp_result="c6"))
    e1 = time.monotonic() - t0
    ok1 = (out1.status == "success"
           and equivalent(out1.result, parse_formula(
               "p(a), all(x, (p(x) -> x=a))"))
           and e1 < 5.0)

    t0 = time.monotonic()
    f2 = expand(table, parse_formula("circ(wet, kb1)"), Context())
    out2 = eliminate(EliminationTask(f2, simp_result="c6"))
    e2 = time.monotonic() - t0
    five_conjuncts = parse_formula(
        "(sprinkler_was_on -> wet(grass)), "
        "(rained_last_night -> wet(grass)), "
        "(wet(grass) -> wet(shoes)), "
        "all(x, (wet(x) -> sprinkler_was_on ; rained_last_night)), "
        "all(x, ((wet(grass), wet(shoes), wet(x)) "
        "-> (x=shoes ; x=grass)))")
    ok2 = (out2.status == "success"
           and equivalent(out2.result, five_conjuncts)
           and e2 < 5.0)
    report(4, "circumscription of a fact and of a knowledge base",
           ok1 and ok2)


def test_criterion_5_craig():
    table = macro_table()

    t0 = time.monotonic()
    out1 = interpolate(InterpolationTask(
        parse_formula("p, q"), parse_formula("p ; r")), CFG)
    ok1 = (out1.status == "interpolant"
           and print_text(out1.formula) == "p"     # exact
           and time.monotonic() - t0 < 5.0)
    if out1.proof is not None:
        CERTIFICATES.append(out1.proof)

    t0 = time.monotonic()
    out2 = interpolate(InterpolationTask(
        parse_formula("all(x, p(a, x)), q"),
        parse_formula("ex(x, p(x, b)) ; r")), CFG)
    ok2 = (out2.status == "interpolant"
           and equivalent(out2.formula,
                          parse_formula("ex(x, all(y, p(x, y)))"))
           and {o.name for o in free_symbols(out2.formula)} == {"p"}
           and time.monotonic() - t0 < 5.0)
    if out2.proof is not None:
        CERTIFICATES.append(out2.proof)

    t0 = time.monotonic()
    chain = expand(table, parse_formula("definiens(p(a), kb2, [p,s])"),
                   Context())
    red = reduce_so_universal(chain)
    v = validate(red, CFG)
    if v.proof is not None and v.proof.proved:
        CERTIFICATES.append(v.proof)
    out3 = interpolate(InterpolationTask(chain.lhs, chain.rhs), CFG)
    ok3 = (v.status == "valid"
           and out3.status == "interpolant"
           and equivalent(out3.formula, parse_formula("q(a), r(a)"))
           and time.monotonic() - t0 < 5.0)
    if out3.proof is not None:
        CERTIFICATES.append(out3.proof)

    report(5, "Craig-Lyndon interpolation and definiens synthesis",
           ok1 and ok2 and ok3)


def test_criterion_6_colorability():
    from pie.elimination import _fo_col2
    t0 = time.monotonic()
    out = eliminate(EliminationTask(
        Exists2((PredSpec("g"),), _fo_col2("e"))))
    display = parse_formula(
        "all([x,y], (e(x,y) -> ~(r(y), r(x)), (r(y) ; r(x))))")
    ok1 = out.status == "success" and equivalent(out.result, display)

    two_edges = parse_formula(
        "all([u,v], ((u=1, v=2) ; (u=2, v=3)))")
    lam = Lambda(("u", "v"), two_edges.body)
    _, final = eliminate_staged(lam)
    ok2 = equivalent(final, parse_formula("~(1=2), ~(2=3)"))
    elapsed = time.monotonic() - t0
    report(6, "graph 2-colorability, direct and staged elimination",
           ok1 and ok2 and elapsed < 10.0)


DOT_NODE = re.compile(r'^\s*n\d+ \[[^\]]*\];$')
DOT_EDGE = re.compile(r'^\s*n\d+ -> n\d+( \[[^\]]*\])?;$')
DOT_ATTR = re.compile(r'^\s*node \[[^\]]*\];$')


def dot_well_formed(text):
    lines = text.rstrip("\n").splitlines()
    if lines[0] != "digraph tableau {" or lines[-1] != "}":
        return False
    return all(DOT_NODE.match(ln) or DOT_EDGE.match(ln) or
               DOT_ATTR.match(ln) for ln in lines[1:-1])


def test_criterion_7_tableau_interpolation(tmp_path):
    path = tmp_path / "tableau.dot"
    t0 = time.monotonic()
    out = interpolate(InterpolationTask(
        parse_formula("all(x, p(x)), all(x, (p(x) -> q(x)))"),
        parse_formula("q(c)"),
        simp_sides=False, dot_path=str(path)), CFG)
    elapsed = time.monotonic() - t0
    if out.proof is not None:
        CERTIFICATES.append(out.proof)
    ok = (out.status == "interpolant"
          and equivalent(out.formula, parse_formula("all(x, q(x))"))
          and dot_well_formed(path.read_text())
          and elapsed < 2.0)
    report(7, "interpolant extraction from a side-labeled tableau", ok)


def test_criterion_8_propositional_property_suites():
    t0 = time.monotonic()
    corpus = prop_corpus(1000)
    assert len(corpus) >= 1000

    # suite A: DLS elimination agrees with Shannon expansion
    shannon_checked = 0
    for f in corpus:
        atoms = prop_atoms(f)
        if "p" not in atoms:
            continue
        rest = [a for a in atoms if a != "p"]
        out = eliminate(EliminationTask(Exists2((PredSpec("p", 0),), f)))
        assert out.status == "success", print_text(f)
        assert truth_table(out.result, rest) == exists_table("p", f, rest), \
            print_text(f)
        shannon_checked += 1

    # suite B: clausification preserves truth tables
    for f in corpus:
        cf = clausify(f)
        atoms = prop_atoms(f)
        for bits in itertools.product([False, True], repeat=len(atoms)):
            env = dict(zip(atoms, bits))
            assert eval_clauses(cf.clauses, env) == eval_prop(f, env), \
                print_text(f)

    # suite C: Craig-Lyndon conditions on every entailing pair sampled
    def pols(g):
        return {(o.name, o.arity): o.polarity
                for o in free_symbols(g) if o.kind == "predicate"}

    ipol_checked = 0
    for left, right in itertools.islice(zip(corpus, reversed(corpus)), 400):
        if not prop_entails(left, right):
            continue
        out = interpolate(InterpolationTask(left, right), CFG)
        assert out.status == "interpolant", (print_text(left),
                                             print_text(right))
        if out.proof is not None:
            CERTIFICATES.append(out.proof)
        h = out.formula
        assert prop_entails(left, h) and prop_entails(h, right)
        lp, rp = pols(left), pols(right)
        for key, pol in pols(h).items():
            assert key in lp and key in rp
            need = {pol} if pol != "both" else {"pos", "neg"}
            for p in need:
                assert lp[key] in (p, "both") and rp[key] in (p, "both"), \
                    (print_text(left), print_text(right), print_text(h))
        ipol_checked += 1

    elapsed = time.monotonic() - t0
    ok = (len(corpus) >= 1000 and shannon_checked >= 500
          and ipol_checked >= 20 and elapsed < 60.0)
    report(8, f"propositional oracles over {len(corpus)} formulas "
              f"({shannon_checked} eliminations, {ipol_checked} "
              f"interpolations)", ok)


def test_criterion_9_certificates():
    # tableaux collected from criteria 1-8 plus a fresh set of proofs
    for src in ["p ; ~p", "all(x, p(x)) -> p(a)",
                "(a=b, p(a)) -> p(b)",
                "ex(x, all(y, r(x, y))) -> all(y, ex(x, r(x, y)))"]:
        r = prove(parse_formula(src), CFG)
        assert r.proved
        CERTIFICATES.append(r)
    assert len(CERTIFICATES) >= 10
    for r in CERTIFICATES:
        assert check_tableau(r.tableau, r.clauses)

    # countermodels: every model returned must falsify its formula
    for src in ["p -> q", "ex(x, p(x)) -> all(x, p(x))",
                "a=b", "(p ; q) -> p",
                "all(y, ex(x, r(x, y))) -> ex(x, all(y, r(x, y)))"]:
        f = parse_formula(src)
        m = find_countermodel(f)
        assert m is not None, src
        COUNTERMODELS.append((f, m))
    for f, m in COUNTERMODELS:
        assert m.eval(neg(f)) is True
    report(9, f"{len(CERTIFICATES)} tableaux re-checked, "
              f"{len(COUNTERMODELS)} countermodels re-evaluated", True)


def test_criterion_10_document_determinism():
    out1 = process_file(FIXTURE)
    out2 = process_file(FIXTURE)
    displays = [
        # criterion 1: elimination result
        "\\forall \\mathit{x} \\, (\\mathsf{q}(\\mathit{x}) "
        "\\rightarrow \\mathsf{r}(\\mathit{x}))",
        # criterion 2: abduction result
        "\\mathsf{sprinkler\\_was\\_on} \\lor \\mathsf{rained\\_last\\_night}",
        # criterion 3: validity verdict
        "is valid",
        # criterion 4: both circumscription results
        "\\mathit{x}=\\mathsf{a}",
        "\\mathit{x}=\\mathsf{shoes} \\lor \\mathit{x}=\\mathsf{grass}",
        # criterion 5: the three interpolation results
        "Result of interpolation:\n\\[\n\\mathsf{p}\n\\]",
        "\\exists \\mathit{x} \\, \\forall \\mathit{y} \\, "
        "\\mathsf{p}(\\mathit{x},\\mathit{y})",
        "\\mathsf{q}(\\mathsf{a}) \\; \\land \\\\\n\\mathsf{r}(\\mathsf{a})",
    ]
    ok = out1 == out2 and all(d in out1 for d in displays)
    report(10, "document processing is deterministic with all displays", ok)
