"""The four workloads: seeded inputs, the timed operations, their checks.

Each workload is split in three steps so that set-up can be timed apart
from input generation:

* `inputs(seed)` generates the input strings (the benchmark's own work,
  not timed as set-up);
* `prepare(records)` parses them with the package and returns the
  operations (timed as set-up, together with interpreter start and
  `import pie`);
* an operation's `run` is the timed call, and `judge` checks its outcome
  against the oracles of `oracles.py` and against properties the method
  must have.  `judge` returns (kind, reason): kind "ok", "failed" (the
  call raised or did not reach the known verdict) or "wrong" (a definite
  answer that contradicts an oracle).

Operations call the package through module attributes (`prover.prove`,
not a name imported here), so that the traced mode sees them.
"""

from __future__ import annotations

import os
import random

import pie.document as document
import pie.elimination as elimination
import pie.interpolation as interpolation
import pie.macros as macros
import pie.prover as prover
import pie.syntax as syntax
from pie.formula import Context, Implies, Lambda

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "fixtures", "workbench.pie")

# Budgets given to the package.  Every operation ends far inside them; the
# README lists the margins.
THEOREM_CONFIG = prover.ProverConfig(timeout_ms=60000)
VALIDATE_CONFIG = prover.ProverConfig(timeout_ms=5000)  # model search: 1 s


# Operations that take most of a pass.  A pass runs the other operations
# before, between and after these, so that each small operation is timed
# at several moments of the pass, not only in one stretch of it.
LARGE_OPS = {"fixture", "pelletier-26", "pelletier-46", "dnf-4",
             "circ-3-link-c6"}


class Op:
    def __init__(self, name, run, judge, signature, known_fault=None):
        self.name = name
        self.large = name in LARGE_OPS
        self.run = run
        self.judge = judge
        # outcome -> a value that equals the first pass's value exactly
        # when the outcome is the same, so the full judge need not rerun;
        # None judges every pass in full
        self.signature = signature
        self.known_fault = known_fault


def _parse(src):
    return syntax.parse_formula(src)


def _reason(reason):
    """Judgement from an oracle's answer: None, or why the result is wrong."""
    return ("ok", "") if reason is None else ("wrong", reason)


# ---------------------------------------------------------------------------
# Name pools for seeded inputs (disjoint, so no symbol gets two arities)

UNARY = ["bird", "fish", "tall", "red", "odd", "warm", "dark", "soft",
         "loud", "fast", "old", "rich", "calm", "wild", "blue", "kind"]
BINARY = ["knows", "likes", "owns", "sees", "near", "above", "feeds",
          "meets", "helps", "trusts"]
PROPS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta",
         "iota", "kappa", "lam", "mu", "nu", "xi", "omi", "pi", "rho",
         "sigma", "tau", "ups", "phi", "chi", "psi", "omega"]
CONSTS = ["ann", "bob", "cal", "dee", "eve", "fay", "gus", "hal"]
FUNCS = ["mother", "next", "succ", "left", "right", "up"]


def _names(rng, pool, k):
    """k distinct names in sorted order.  The model search enumerates
    symbols in sorted order, so keeping each template role at the same
    rank makes an operation's cost independent of the seed."""
    return sorted(rng.sample(pool, k))


def _prop_shape(rng, atoms, depth):
    """A full binary formula tree of the given depth over atom slots
    {0}, {1}, ... with random connectives and literals.  Shapes come from
    a fixed generator and the seed only names the atoms, so the seed does
    not change an operation's cost."""
    if depth == 0:
        a = "{%d}" % rng.randrange(atoms)
        return a if rng.random() < 0.6 else f"~{a}"
    op = rng.choice([",", ";", "->"])
    lhs = _prop_shape(rng, atoms, depth - 1)
    rhs = _prop_shape(rng, atoms, depth - 1)
    return f"({lhs} {op} {rhs})"


def _chain_text(atoms):
    """a0 -> a1 -> ... -> an (right-associated)."""
    return " -> ".join(atoms)


# ---------------------------------------------------------------------------
# theorems: prove() on known-valid first-order problems

# Pelletier (1986), "Seventy-five problems for testing automatic theorem
# provers".  Left out: 29 and 49 (no proof within 8 s), 34 (no proof
# within 30 s), 38 and 47 (larger than this workload's budget).
PELLETIER = {
    17: "((p, (q -> r)) -> s) <-> ((~p ; q ; s), (~p ; ~r ; s))",
    18: "ex(y, all(x, (f(y) -> f(x))))",
    19: "ex(x, all([y,z], ((p(y) -> q(z)) -> (p(x) -> q(x)))))",
    20: "all([x,y], ex(z, all(w, ((p(x), q(y)) -> (r(z), s(w)))))) -> "
        "(ex([x,y], (p(x), q(y))) -> ex(z, r(z)))",
    21: "(ex(x, (p -> f(x))), ex(x, (f(x) -> p))) -> ex(x, (p <-> f(x)))",
    22: "all(x, (p <-> f(x))) -> (p <-> all(x, f(x)))",
    23: "all(x, (p ; f(x))) <-> (p ; all(x, f(x)))",
    24: "(~ex(x, (s(x), q(x))), all(x, (p(x) -> (q(x) ; r(x)))), "
        "(~ex(x, p(x)) -> ex(x, q(x))), all(x, ((q(x) ; r(x)) -> s(x)))) "
        "-> ex(x, (p(x), r(x)))",
    25: "(ex(x, p(x)), all(x, (u(x) -> (~g(x), r(x)))), "
        "all(x, (p(x) -> (g(x), u(x)))), "
        "(all(x, (p(x) -> q(x))) ; ex(x, (q(x), r(x))))) "
        "-> ex(x, (q(x), p(x)))",
    26: "((ex(x, p(x)) <-> ex(x, q(x))), "
        "all([x,y], ((p(x), q(y)) -> (r(x) <-> s(y))))) -> "
        "(all(x, (p(x) -> r(x))) <-> all(x, (q(x) -> s(x))))",
    27: "(ex(x, (f(x), ~g(x))), all(x, (f(x) -> h(x))), "
        "all(x, ((j(x), i(x)) -> f(x))), "
        "(ex(x, (h(x), ~g(x))) -> all(x, (i(x) -> ~h(x))))) "
        "-> all(x, (j(x) -> ~i(x)))",
    28: "(all(x, (p(x) -> all(y, q(y)))), "
        "(all(x, (q(x) ; r(x))) -> ex(x, (q(x), s(x)))), "
        "(ex(x, s(x)) -> all(x, (f(x) -> g(x))))) "
        "-> all(x, ((p(x), f(x)) -> g(x)))",
    30: "(all(x, ((f(x) ; g(x)) -> ~h(x))), "
        "all(x, ((g(x) -> ~i(x)) -> (f(x), h(x))))) -> all(x, i(x))",
    31: "(~ex(x, (f(x), (g(x) ; h(x)))), ex(x, (i(x), f(x))), "
        "all(x, (~h(x) -> j(x)))) -> ex(x, (i(x), j(x)))",
    32: "(all(x, ((f(x), (g(x) ; h(x))) -> i(x))), "
        "all(x, ((i(x), h(x)) -> j(x))), all(x, (k(x) -> h(x)))) "
        "-> all(x, ((f(x), k(x)) -> j(x)))",
    33: "all(x, ((p(a), (p(x) -> p(b))) -> p(c))) <-> "
        "all(x, ((~p(a) ; p(x) ; p(c)), (~p(a) ; ~p(b) ; p(c))))",
    35: "ex([x,y], (p(x,y) -> all([u,v], p(u,v))))",
    36: "(all(x, ex(y, f(x,y))), all(x, ex(y, g(x,y))), "
        "all([x,y], ((f(x,y) ; g(x,y)) -> "
        "all(z, ((f(y,z) ; g(y,z)) -> h(x,z)))))) -> all(x, ex(y, h(x,y)))",
    37: "(all(z, ex(w, all([x,y], ((p(x,z) -> p(y,w)), p(y,z), "
        "(p(y,w) -> ex(u, q(u,w))))))), "
        "all([x,z], (~p(x,z) -> ex(y, q(y,z)))), "
        "(ex([x,y], q(x,y)) -> all(x, r(x,x)))) -> all(x, ex(y, r(x,y)))",
    39: "~ex(x, all(y, (f(y,x) <-> ~f(y,y))))",
    40: "ex(y, all(x, (f(x,y) <-> f(x,x)))) -> "
        "~all(x, ex(y, all(z, (f(z,y) <-> ~f(z,x)))))",
    41: "all(z, ex(y, all(x, (f(x,y) <-> (f(x,z), ~f(x,x)))))) -> "
        "~ex(z, all(x, f(x,z)))",
    42: "~ex(y, all(x, (f(x,y) <-> ~ex(z, (f(x,z), f(z,x))))))",
    43: "all([x,y], (q(x,y) <-> all(z, (f(z,x) <-> f(z,y))))) -> "
        "all([x,y], (q(x,y) <-> q(y,x)))",
    44: "(all(x, (f(x) -> (ex(y, (g(y), h(x,y))), "
        "ex(y, (g(y), ~h(x,y)))))), "
        "ex(x, (j(x), all(y, (g(y) -> h(x,y)))))) -> ex(x, (j(x), ~f(x)))",
    45: "(all(x, ((f(x), all(y, ((g(y), h(x,y)) -> j(x,y)))) -> "
        "all(y, ((g(y), h(x,y)) -> k(y))))), ~ex(y, (l(y), k(y))), "
        "ex(x, (f(x), all(y, (h(x,y) -> l(y))), "
        "all(y, ((g(y), h(x,y)) -> j(x,y)))))) -> "
        "ex(x, (f(x), ~ex(y, (g(y), h(x,y)))))",
    46: "(all(x, ((f(x), all(y, ((f(y), h(y,x)) -> g(y)))) -> g(x))), "
        "(ex(x, (f(x), ~g(x))) -> "
        "ex(x, (f(x), ~g(x), all(y, ((f(y), ~g(y)) -> j(x,y)))))), "
        "all([x,y], ((f(x), f(y), h(x,y)) -> ~j(y,x)))) -> "
        "all(x, (f(x) -> g(x)))",
    48: "(a=b ; c=d), (a=c ; b=d) -> (a=d ; b=c)",
    50: "all(x, (f(a,x) ; all(y, f(x,y)))) -> ex(x, all(y, f(x,y)))",
}


def _dnf_family(atoms, swap=False):
    """(a0,b0 ; ... ; an,bn) -> (the same, conjuncts swapped if swap)."""
    pairs = [(atoms[2 * i], atoms[2 * i + 1]) for i in range(len(atoms) // 2)]
    lhs = " ; ".join(f"({a}, {b})" for a, b in pairs)
    rhs = " ; ".join(f"({b}, {a})" if swap else f"({a}, {b})"
                     for a, b in pairs)
    return f"({lhs}) -> ({rhs})"


def theorems_inputs(seed):
    rng = random.Random(f"theorems:{seed}")
    recs = [(f"pelletier-{k}", src) for k, src in PELLETIER.items()]
    for n in (2, 3, 4):
        recs.append((f"dnf-{n}", _dnf_family(
            [f"{c}{i}" for i in range(n) for c in "ab"])))
    # seeded valid families
    for n in (2, 3):
        recs.append((f"dnf-swapped-{n}",
                     _dnf_family(_names(rng, PROPS, 2 * n), swap=True)))
    for k in (3, 5, 7):
        ps = _names(rng, UNARY, k + 1)
        c = rng.choice(CONSTS)
        steps = ", ".join(f"all(x, ({a}(x) -> {b}(x)))"
                          for a, b in zip(ps, ps[1:]))
        recs.append((f"syllogism-{k}", f"({steps}, {ps[0]}({c})) -> "
                                       f"{ps[-1]}({c})"))
    r1, r2 = rng.sample(BINARY, 2)
    recs.append(("swap-ex-all", f"ex(x, all(y, {r1}(x,y))) -> "
                                f"all(y, ex(x, {r1}(x,y)))"))
    recs.append(("swap-all-all", f"all(x, all(y, {r2}(x,y))) -> "
                                 f"all(y, all(x, {r2}(x,y)))"))
    shapes = random.Random("theorems shapes")
    for i in range(3):
        atoms = _names(rng, PROPS, 3)
        f = _prop_shape(shapes, 3, 2).format(*atoms)
        g = _prop_shape(shapes, 3, 2).format(*atoms)
        recs.append((f"modus-ponens-{i}", f"({f}, ({f} -> {g})) -> {g}"))
    a, b, c = _names(rng, CONSTS, 3)
    p, fn = rng.choice(UNARY), rng.choice(FUNCS)
    recs.append(("eq-subst", f"({a} = {b}, {p}({a})) -> {p}({b})"))
    recs.append(("eq-congruence",
                 f"({fn}({a}) = {b}, {a} = {c}) -> {fn}({c}) = {b}"))
    return recs


def _theorem_op(name, f):
    def judge(r):
        if not r.proved:
            return "failed", f"not proved: {r.reason}"
        if not prover.check_tableau(r.tableau, r.clauses):
            return "wrong", "tableau fails check_tableau"
        return _reason(oracles.check_verdict(f, "valid"))

    return Op(name, lambda: prover.prove(f, THEOREM_CONFIG), judge,
              lambda r: (r.proved, r.inferences, r.depth))


def theorems_prepare(recs):
    return [_theorem_op(name, _parse(src)) for name, src in recs]


# ---------------------------------------------------------------------------
# countermodels: validate() on known-invalid formulas, with a few valid ones

# A fault of the package, kept as an operation that fails every time:
# 2^22 interpretations exceed MODEL_SEARCH_CAP, so the model search gives
# up at once, the prover exhausts its depth bound, and validate answers
# 'unknown' for a formula with a one-element countermodel.
LONG_CHAIN = _chain_text([f"p{i}" for i in range(22)])

INVALID_TEMPLATES = [
    ("swap", "all(y, ex(x, {R}(x,y))) -> ex(x, all(y, {R}(x,y)))"),
    ("some-all", "ex(x, {P}(x)) -> all(x, {P}(x))"),
    ("symmetry-ground", "{R}({a},{b}) -> {R}({b},{a})"),
    ("symmetry", "all([x,y], ({R}(x,y) -> {R}(y,x)))"),
    ("transitivity-ground", "({R}({a},{b}), {R}({b},{c})) -> {R}({a},{c})"),
    ("transitivity", "all([x,y,z], (({R}(x,y), {R}(y,z)) -> {R}(x,z)))"),
    ("image", "{P}({a}) -> {P}({F}({a}))"),
    ("involution", "{F}({F}({a})) = {a}"),
    ("disjunction", "({A} ; {B}) -> {A}"),
    ("converse", "all(x, ({P}(x) -> {Q}(x))) -> all(x, ({Q}(x) -> {P}(x)))"),
]
VALID_TEMPLATES = [
    ("instance", "all(x, {P}(x)) -> {P}({a})"),
    ("swap-valid", "ex(x, all(y, {R}(x,y))) -> all(y, ex(x, {R}(x,y)))"),
    ("modus-ponens", "({A}, ({A} -> {B})) -> {B}"),
    ("excluded-middle", "{A} ; ~{A}"),
]
INSTANCES_PER_INVALID = 4
INSTANCES_PER_VALID = 2
CHAIN_ATOMS = range(2, 13)


def _fill(rng, template):
    p, q = _names(rng, UNARY, 2)
    a, b, c = _names(rng, CONSTS, 3)
    x, y = _names(rng, PROPS, 2)
    return template.format(R=rng.choice(BINARY), P=p, Q=q, a=a, b=b, c=c,
                           F=rng.choice(FUNCS), A=x, B=y)


def countermodels_inputs(seed):
    rng = random.Random(f"countermodels:{seed}")
    recs = []
    for name, tpl in INVALID_TEMPLATES:
        for i in range(INSTANCES_PER_INVALID):
            recs.append((f"{name}-{i}", _fill(rng, tpl), "invalid"))
    for n in CHAIN_ATOMS:
        recs.append((f"chain-{n}", _chain_text(_names(rng, PROPS, n)),
                     "invalid"))
    for name, tpl in VALID_TEMPLATES:
        for i in range(INSTANCES_PER_VALID):
            recs.append((f"{name}-{i}", _fill(rng, tpl), "valid"))
    recs.append(("chain-22", LONG_CHAIN, "invalid"))
    return recs


def _countermodel_op(name, f, known):
    def judge(v):
        if v.status != known:
            kind = "failed" if v.status == "unknown" else "wrong"
            return kind, f"'{v.status}', known '{known}'"
        if known == "invalid":
            return _reason(oracles.check_countermodel(f, v.model))
        if not prover.check_tableau(v.proof.tableau, v.proof.clauses):
            return "wrong", "tableau fails check_tableau"
        return _reason(oracles.check_verdict(f, "valid"))

    def signature(v):
        return (v.status, v.model, v.proof and v.proof.inferences)

    fault = ("validate answers 'unknown': 2^22 interpretations exceed "
             "MODEL_SEARCH_CAP" if name == "chain-22" else None)
    return Op(name, lambda: prover.validate(f, VALIDATE_CONFIG), judge,
              signature, fault)


def countermodels_prepare(recs):
    return [_countermodel_op(name, _parse(src), known)
            for name, src, known in recs]


# ---------------------------------------------------------------------------
# The paper's macros, shared by so-services and the seeded documents

PAPER_MACROS = """
def(explanation(Kb, Na, Ob)) ::
all2(Na, (Kb -> Ob)).

def(circ(P, F)) ::
F, ~ex2(P_p, (F_p, T1, ~T2)) ::-
\tmac_rename_free_predicate(F, P, pn, F_p, P_p),
\tmac_get_arity(P, F, A),
\tmac_transfer_clauses([P/A-n], p, [P_p], T1),
\tmac_transfer_clauses([P/A-n], n, [P_p], T2).
"""


def kb_chain(pred, causes, consts):
    """Knowledge base: each cause makes pred(c0), pred(ci) -> pred(ci+1)."""
    parts = [f"({c} -> {pred}({consts[0]}))" for c in causes]
    parts += [f"({pred}({a}) -> {pred}({b}))"
              for a, b in zip(consts, consts[1:])]
    return ", ".join(parts)


def explanation_meaning(pred, kb, goal):
    return f"all2([{pred}], (({kb}) -> {goal}))"


def circ_meaning(pred, kb_of, fresh):
    """Circumscription of unary pred in kb_of(pred), written out:
    KB and no model of KB with a strictly smaller extension of pred."""
    return (f"({kb_of(pred)}), ~ex2([{fresh}], (({kb_of(fresh)}), "
            f"all(x, ({fresh}(x) -> {pred}(x))), "
            f"~all(x, ({pred}(x) -> {fresh}(x)))))")


# ---------------------------------------------------------------------------
# so-services: eliminate / interpolate on formulas built through expand

COL2 = ("all(x, (r(x) ; g(x))), all([x,y], ({E} -> "
        "(~((r(x), r(y))), ~((g(x), g(y))))))")
FAULT_PATH = ("1", "2", "3", "4")


def _terms(funcs, depth):
    """Every term over x built from unary funcs, nesting at most depth,
    shallowest first."""
    out, layer = ["x"], ["x"]
    for _ in range(depth):
        layer = [f"{f}({t})" for f in funcs for t in layer]
        out += layer
    return out


def _edges(path, x, y):
    return " ; ".join(f"({x}={a}, {y}={b})" for a, b in zip(path, path[1:]))


def _col2_meaning(path):
    """Two-colorability of the path graph, with the colors quantified."""
    return f"ex2([r,g], ({COL2.format(E='(' + _edges(path, 'x', 'y') + ')')}))"


def so_services_inputs(seed):
    """Records: (name, kind, macro definitions, formula, meaning, extra)."""
    rng = random.Random(f"so-services:{seed}")
    recs = []
    for n in range(2, 17):
        p, q, r = rng.sample(UNARY, 3)
        ts = _terms(rng.sample(FUNCS, 2), 4)[:n]
        if n % 2 == 0:
            defs = [f"all(x, ({q}({t}) -> {p}(x)))" for t in ts]
            use = f"all(x, ({p}(x) -> {r}(x)))"
        else:
            defs = [f"all(x, ({p}(x) -> {q}({t})))" for t in ts]
            use = f"all(x, ({r}(x) -> {p}(x)))"
        body = ", ".join(defs)
        recs.append((f"ackermann-{n}", "elim", f"def(defs) :: {body}.",
                     f"ex2([{p}], (defs, {use}))",
                     f"ex2([{p}], ({body}, {use}))", {"elim": [p]}))
    for i, (ncause, links) in enumerate([(1, 1), (2, 1), (1, 2)]):
        pred = rng.choice(UNARY)
        causes = _names(rng, PROPS, ncause)
        consts = _names(rng, CONSTS, links + 1)
        kb = kb_chain(pred, causes, consts)
        goal = f"{pred}({consts[-1]})"
        recs.append((f"explanation-{i}", "elim", f"def(kb) :: {kb}.",
                     f"explanation(kb, [{pred}], {goal})",
                     explanation_meaning(pred, kb, goal), {"elim": [pred]}))
    for links, simp in [(2, None), (2, "c6"), (3, "c6")]:
        pred = rng.choice(UNARY)
        cause = rng.choice(PROPS)
        consts = _names(rng, CONSTS, links + 1)

        def kb_of(p, cause=cause, consts=consts):
            return kb_chain(p, [cause], consts)
        recs.append((f"circ-{links}-link{'-' + simp if simp else ''}",
                     "elim", f"def(kb) :: {kb_of(pred)}.",
                     f"circ({pred}, kb)", circ_meaning(pred, kb_of, "minp"),
                     {"elim": [], "simp": simp}))
    paths = [[str(v) for v in sorted(rng.sample(range(1, 10), edges + 1))]
             for edges in (1, 2)] + [FAULT_PATH]
    for path in paths:
        recs.append((f"colorability-{len(path) - 1}", "staged", "",
                     _edges(path, "u", "v"), _col2_meaning(path),
                     {"elim": ["r", "g"]}))
    shapes = random.Random("so-services shapes")
    for i in range(12):
        p, a, b, c = _names(rng, PROPS, 4)
        f = _prop_shape(shapes, 4, 3).format(p, a, b, c)
        recs.append((f"propositional-{i}", "elim", "", f"ex2([{p}], {f})",
                     f"ex2([{p}], {f})", {"elim": [p]}))
    for n in range(2, 9):
        atoms = _names(rng, PROPS, n + 2)
        left = ", ".join([atoms[0]] + [f"({a} -> {b})" for a, b in
                                       zip(atoms, atoms[1:n + 1])])
        right = f"{atoms[n]} ; {atoms[n + 1]}"
        recs.append((f"ipol-chain-{n}", "ipol", f"def(chain) :: {left}.",
                     f"(chain -> ({right}))", f"({left}) -> ({right})", {}))
    for i in range(6):
        a, b, p, q = _names(rng, PROPS, 4)
        m = _prop_shape(shapes, 2, 2).format(a, b)
        left = f"({m}, {_prop_shape(shapes, 3, 2).format(a, b, p)})"
        right = f"({m} ; {_prop_shape(shapes, 3, 2).format(a, b, q)})"
        recs.append((f"ipol-pair-{i}", "ipol", "", f"({left} -> {right})",
                     f"({left} -> {right})", {}))
    for i in range(2):
        p, q, s = rng.sample(UNARY, 3)
        c, d = rng.sample(CONSTS, 2)
        left = f"all(x, ({p}(x) -> {q}(x))), {p}({c}), {s}({d})"
        right = f"ex(x, {q}(x)) ; ~{s}({d})"
        recs.append((f"ipol-fo-{i}", "ipol", "",
                     f"(({left}) -> ({right}))", f"(({left}) -> ({right}))",
                     {}))
    return recs


def _macro_table(defs):
    _, table = document.load_document(PAPER_MACROS + defs)
    return table


def _elim_op(name, table, f, meaning, extra):
    task = dict(simp_result=extra.get("simp"))

    def run():
        g = macros.expand(table, f, Context())
        return elimination.eliminate(elimination.EliminationTask(g, **task))

    def judge(out):
        if out.status != "success":
            return "failed", f"{out.status}: {out.reason}"
        return _reason(oracles.check_elimination(meaning, out.result,
                                                 extra["elim"]))

    return Op(name, run, judge, lambda out: (out.status, out.result))


def _staged_op(name, edges, meaning, extra):
    lam = Lambda(("u", "v"), _parse(f"all([u,v], ({edges}))").body)

    def judge(result):
        return _reason(oracles.check_elimination(meaning, result[1],
                                                 extra["elim"]))

    fault = ("_split_cases makes one branch per blocker literal and exceeds "
             "the branch bound on a bipartite path"
             if name == "colorability-3" else None)
    return Op(name, lambda: elimination.eliminate_staged(lam), judge,
              lambda result: result[1], fault)


def _ipol_op(name, table, f, meaning):
    def run():
        g = macros.expand(table, f, Context())
        return interpolation.interpolate(
            interpolation.InterpolationTask(g.lhs, g.rhs), VALIDATE_CONFIG)

    def judge(out):
        if out.status != "interpolant":
            return "failed", out.status
        return _reason(oracles.check_interpolant(meaning.lhs, meaning.rhs,
                                                 out.formula))

    return Op(name, run, judge, lambda out: (out.status, out.formula))


def so_services_prepare(recs):
    ops = []
    tables = {}
    for name, kind, defs, src, meaning_src, extra in recs:
        if defs not in tables:
            tables[defs] = _macro_table(defs)
        meaning = _parse(meaning_src)
        if kind == "elim":
            ops.append(_elim_op(name, tables[defs], _parse(src), meaning,
                                extra))
        elif kind == "staged":
            ops.append(_staged_op(name, src, meaning, extra))
        else:
            if not isinstance(meaning, Implies):
                raise ValueError(f"{name}: interpolation needs F -> G")
            ops.append(_ipol_op(name, tables[defs], _parse(src), meaning))
    return ops


# ---------------------------------------------------------------------------
# documents: load_document + process_document, as `pie process` does

# Expected meaning of each directive of fixtures/workbench.pie, written out
# without macros: (kind, meaning, extra).  For 'valid' the extra is the
# known verdict, for 'elim' the eliminated predicates.
KB1 = ("(sprinkler_was_on -> wet(grass)), (rained_last_night -> wet(grass)), "
       "(wet(grass) -> wet(shoes))")
KB2 = ("all(x, (p(x) -> q(x), s(x))), all(x, (s(x) -> r(x))), "
       "all(x, (q(x), r(x) -> p(x)))")
FIXTURE_EXPECTED = [
    ("elim", "ex2([p], (all(x, (q(x) -> p(x))), all(x, (p(x) -> r(x)))))",
     ["p"]),
    ("elim", explanation_meaning("wet", KB1, "wet(shoes)"), ["wet"]),
    ("valid", f"({KB1}), (rained_last_night ; sprinkler_was_on) -> "
              "wet(shoes)", "valid"),
    ("elim", circ_meaning("p", lambda p: f"{p}(a)", "minp"), []),
    ("elim", circ_meaning("wet", lambda p: KB1.replace("wet", p), "minp"),
     []),
    ("ipol", "(p, q) -> (p ; r)", None),
    ("ipol", "(all(x, p(a,x)), q) -> (ex(x, p(x,b)) ; r)", None),
    ("valid", f"ex2([p,s], ({KB2}, p(a))) -> all2([p,s], (({KB2}) -> p(a)))",
     "valid"),
    ("ipol", f"ex2([p,s], ({KB2}, p(a))) -> all2([p,s], (({KB2}) -> p(a)))",
     None),
]

DOC_SHAPES = [(1, 1), (2, 1), (1, 2), (1, 1), (2, 1), (1, 2)]


def seeded_document(rng, index, ncause, links):
    """A document in the paper's style, with the meaning of each
    directive in order."""
    pred = rng.choice(UNARY)
    causes = _names(rng, PROPS, ncause + 1)
    other = causes.pop()
    consts = _names(rng, CONSTS, links + 1)
    p, q, r = rng.sample([u for u in UNARY if u != pred], 3)

    def kb_of(x):
        return kb_chain(x, causes, consts)

    kb = kb_of(pred)
    goal = f"{pred}({consts[-1]})"
    name = f"kb{index}"
    src = f"""/*
\\section{{Knowledge base {name}}}

How does {goal.replace('_', ' ')} come about?  The knowledge base names
{len(causes)} cause(s) and a chain of {links} link(s).
*/

:- ppl_default(timeout_ms=5000).

def({name}) ::
{kb}.
{PAPER_MACROS}
/*
\\subsection{{Abduction}}
*/

:- ppl_printtime(ppl_form(explanation({name}, [{pred}], {goal}))).

:- ppl_printtime(ppl_elim(explanation({name}, [{pred}], {goal}))).

/*
\\subsection{{Validity}}
*/

:- ppl_printtime(ppl_valid(({name}, {causes[0]} -> {goal}))).

:- ppl_printtime(ppl_valid(({name} -> {goal}))).

:- ppl_printtime(ppl_ipol(({name}, {causes[0]} -> ({goal} ; {other})))).

/*
\\subsection{{Circumscription and elimination}}
*/

:- ppl_printtime(ppl_elim(circ({pred}, {name}), [simp_result=[c6]])).

:- ppl_printtime(ppl_elim(ex2({p}, (all(x, ({q}(x) -> {p}(x))),
                                   all(x, ({p}(x) -> {r}(x))))))).
"""
    expected = [
        ("form", explanation_meaning(pred, kb, goal), None),
        ("elim", explanation_meaning(pred, kb, goal), [pred]),
        ("valid", f"({kb}), {causes[0]} -> {goal}", "valid"),
        ("valid", f"({kb}) -> {goal}", "invalid"),
        ("ipol", f"(({kb}), {causes[0]}) -> ({goal} ; {other})", None),
        ("elim", circ_meaning(pred, kb_of, "minp"), []),
        ("elim", f"ex2([{p}], (all(x, ({q}(x) -> {p}(x))), "
                 f"all(x, ({p}(x) -> {r}(x)))))", [p]),
    ]
    return src, expected


def documents_inputs(seed):
    rng = random.Random(f"documents:{seed}")
    with open(FIXTURE, encoding="utf-8") as fh:
        recs = [("fixture", fh.read(), FIXTURE_EXPECTED)]
    for i, (ncause, links) in enumerate(DOC_SHAPES):
        src, expected = seeded_document(rng, i, ncause, links)
        recs.append((f"generated-{i}", src, expected))
    return recs


FAILURE_MARKS = ("failed", "Traceback")
VERDICT_TEXT = {"valid": "is valid.", "invalid": "is not valid."}


def check_directive(kind, meaning, extra, result):
    """Check one DirectiveResult against the directive's meaning."""
    if kind == "valid":
        if result.detail != extra:
            outcome = "failed" if result.detail == "unknown" else "wrong"
            return outcome, f"'{result.detail}', known '{extra}'"
        return _reason(oracles.check_verdict(meaning, extra))
    if result.status != "ok":
        return "failed", result.detail
    if kind == "form":
        return _reason(None if oracles.equivalent(meaning, result.formula)
                       else "expansion differs from its meaning")
    if kind == "elim":
        return _reason(oracles.check_elimination(meaning, result.formula,
                                                 extra))
    return _reason(oracles.check_interpolant(meaning.lhs, meaning.rhs,
                                             result.formula))


def check_document(src, expected):
    """Run each directive once through run_directive, as process_document
    would, and check every result.  Returns (kind, reason, verdicts)."""
    doc, table = document.load_document(src)
    pctx = document.ProcessingContext(table)
    results = []
    for item in doc.items:
        if isinstance(item, document.ConfigDefault):
            pctx.defaults[item.key] = item.value
        elif isinstance(item, document.Directive):
            results.append(document.run_directive(item, pctx))
    if len(results) != len(expected):
        return "wrong", f"{len(results)} directives, expected " \
                        f"{len(expected)}", []
    for i, ((kind, meaning, extra), res) in enumerate(zip(expected,
                                                          results)):
        outcome, reason = check_directive(kind, _parse(meaning), extra, res)
        if outcome != "ok":
            return outcome, f"directive {i + 1} ({kind}): {reason}", []
    return "ok", "", [VERDICT_TEXT[x] for k, _, x in expected
                      if k == "valid"]


def _document_op(name, src, expected):
    state = {}

    def run():
        doc, table = document.load_document(src)
        return document.process_document(doc, table=table)

    def judge(latex):
        if "directives" not in state:
            state["directives"] = check_document(src, expected)
            state["first"] = latex
        kind, reason, verdicts = state["directives"]
        if kind != "ok":
            return kind, reason
        if any(mark in latex for mark in FAILURE_MARKS):
            return "failed", "LaTeX contains a failure line"
        if latex != state["first"]:
            return "wrong", "LaTeX differs from the run's first rendering"
        missing = [v for v in verdicts if v not in latex]
        if missing:
            return "wrong", f"LaTeX lacks the verdict {missing[0]!r}"
        return "ok", ""

    # the LaTeX is compared byte for byte on every pass, so no pass reuses
    # the first pass's judgement
    return Op(name, run, judge, None)


def documents_prepare(recs):
    return [_document_op(name, src, expected) for name, src, expected in recs]


WORKLOADS = {
    "documents": (documents_inputs, documents_prepare),
    "theorems": (theorems_inputs, theorems_prepare),
    "countermodels": (countermodels_inputs, countermodels_prepare),
    "so-services": (so_services_inputs, so_services_prepare),
}
