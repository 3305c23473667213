"""Second-order quantifier elimination by the DLS method.

Predicate quantifiers are eliminated innermost-first: the body is
clausified, clauses that block Ackermann form are split case-wise
(ground clauses only), the lower or upper bound for the predicate is
assembled, and Ackermann's lemma is applied.  Universal predicate
quantifiers are handled through the dual ∀p F = ¬∃p ¬F.
"""

from __future__ import annotations

import time

from .formula import (
    And, Atom, Context, Eq, Exists, Exists2, FALSE, Falsity, ForAll, ForAll2,
    Formula, FormulaError, Iff, Implies, Lambda, LambdaApp, MacroCall, Not,
    Or, PredSpec, Record, TRUE, Truth, Var, all_names, beta_reduce, conj,
    disj, exists, forall, free_symbols, free_vars, map_children, neg, nnf,
    predicate_arities, subst_in_term, subst_vars, substitute_predicate,
)
from .preprocess import (
    Clause, DeadlineExceeded, PIPELINES, check_deadline, clause_subst,
    clause_to_formula, clause_vars, clausify, simplify_clausal, unskolemize,
    UnskolemizeError,
)


class EliminationError(Exception):
    pass


class _Nonreducible(EliminationError):
    pass


# the most case-split branches of one elimination step
BRANCH_BOUND = 64


class EliminationTask(Record):
    __slots__ = ("formula", "pre", "simp_result", "timeout_ms")

    def __init__(self, formula: Formula, pre: str | None = None,
                 simp_result: str | None = None, timeout_ms: int = 30000):
        self.formula = formula
        self.pre = pre                    # None | 'c6' | 'd6'
        self.simp_result = simp_result    # None | 'c6'
        self.timeout_ms = timeout_ms


class EliminationOutcome(Record):
    __slots__ = ("status", "result", "reason")

    def __init__(self, status: str, result: Formula | None = None,
                 reason: str = ""):
        self.status = status    # 'success' | 'nonreducible' | 'resources'
        self.result = result
        self.reason = reason


# ---------------------------------------------------------------------------
# Truth-constant simplification

def truth_simplify(f: Formula) -> Formula:
    """Absorb Truth/Falsity (through neg, conj and disj), drop vacuous
    quantifiers, fold t=t; atoms, lambdas and macro calls stay as is."""
    t = type(f)
    if t is Eq:
        return TRUE if f.lhs == f.rhs else f
    if t is Not:
        return neg(truth_simplify(f.arg))
    if t is And or t is Or:
        return (conj if t is And else disj)(map(truth_simplify, f.args))
    if t is Implies or t is Iff:
        lhs, rhs = truth_simplify(f.lhs), truth_simplify(f.rhs)
        lt, rt = type(lhs), type(rhs)
        # true->B is B, false->B and A->true are true, A->false is ~A;
        # true<->B is B, A<->true is A, false<->B is ~B, A<->false is ~A
        if lt is Truth:
            return rhs
        if t is Iff and rt is Truth:
            return lhs
        if lt is Falsity:
            return TRUE if t is Implies else truth_simplify(Not(rhs))
        if rt is Truth:
            return TRUE
        if rt is Falsity:
            return truth_simplify(Not(lhs))
        return t(lhs, rhs)
    if t is ForAll or t is Exists or t is ForAll2 or t is Exists2:
        body = truth_simplify(f.body)
        if type(body) is Truth or type(body) is Falsity:
            return body
        if t is ForAll2 or t is Exists2:
            return t(f.preds, body)
        fv = free_vars(body)
        vs = tuple(v for v in f.vars if v in fv)
        return t(vs, body) if vs else body
    return f


# ---------------------------------------------------------------------------
# Ackermann's lemma

def _match_definition(g, p):
    """Recognize ∀x̄(A → p(x̄)) / p(x̄) / the dual ∀x̄(p(x̄) → A).

    Returns (polarity, params, bound formula) or None; polarity 'pos'
    means the definitional occurrence of p is positive (lower bound)."""
    vars_ = ()
    body = g
    if isinstance(body, ForAll):
        vars_ = body.vars
        body = body.body
    def param_atom(a):
        return (isinstance(a, Atom) and a.pred == p
                and all(isinstance(t, Var) for t in a.args)
                and len({t.name for t in a.args}) == len(a.args)
                and set(vars_) == {t.name for t in a.args})
    if isinstance(body, Implies):
        if param_atom(body.rhs):
            return ("pos", tuple(t.name for t in body.rhs.args), body.lhs)
        if param_atom(body.lhs):
            return ("neg", tuple(t.name for t in body.lhs.args), body.rhs)
    if param_atom(body):
        return ("pos", tuple(t.name for t in body.args), TRUE)
    return None


def _polarity_of(f, p):
    occ = {o.polarity for o in free_symbols(f)
           if o.kind == "predicate" and o.name == p}
    if not occ:
        return "none"
    if occ == {"pos"}:
        return "pos"
    if occ == {"neg"}:
        return "neg"
    return "both"


def ackermann_rewrite(p: PredSpec, f: Formula) -> Formula:
    """Apply Ackermann's lemma to a formula in Ackermann form.

    f must be a conjunction with exactly one definitional conjunct
    ∀x̄(A → p(x̄)) where p does not occur in A and occurs only
    negatively in the remaining conjuncts B (or the dual form with the
    polarities swapped); the result B[p ↦ λx̄.A] is equivalent to
    ∃p f."""
    parts = list(f.args) if isinstance(f, And) else [f]
    for i, g in enumerate(parts):
        m = _match_definition(g, p.name)
        if m is None:
            continue
        pol, params, bound = m
        if _polarity_of(bound, p.name) != "none":
            continue
        rest = conj(parts[:i] + parts[i + 1:])
        rest_pol = _polarity_of(rest, p.name)
        want = "neg" if pol == "pos" else "pos"
        if rest_pol in (want, "none"):
            arity = len(params)
            lam = Lambda(params, bound)
            out = substitute_predicate(rest, PredSpec(p.name, arity), lam)
            return truth_simplify(out)
    raise EliminationError(f"formula is not in Ackermann form for {p.name}")


# ---------------------------------------------------------------------------
# Case analysis over clause sets

def _p_lits(c: Clause, p):
    pos = [i for i, (s, a) in enumerate(c.literals)
           if s and isinstance(a, Atom) and a.pred == p]
    negs = [i for i, (s, a) in enumerate(c.literals)
            if not s and isinstance(a, Atom) and a.pred == p]
    return pos, negs


def _split_cases(clauses, p, def_sign, deadline):
    """Case lists in which every clause has at most one literal of the
    definitional sign of p and no such literal together with one of the
    opposite sign; non-ground blockers make the split unsound."""
    fine, blockers = [], []
    for c in clauses:
        pos, negs = _p_lits(c, p)
        d, o = (pos, negs) if def_sign else (negs, pos)
        if len(d) >= 2 or (d and o):
            blockers.append(c)
        else:
            fine.append(c)
    cases = [list(fine)]
    for c in blockers:
        if clause_vars(c):
            raise _Nonreducible(
                f"clause with mixed/multiple {p} literals is not ground")
        new = []
        for case in cases:
            for lit in c.literals:
                new.append(case + [Clause((lit,))])
        cases = new
        if len(cases) > BRANCH_BOUND:
            raise _Nonreducible("case-split branch bound exceeded")
        check_deadline(deadline, "elimination")
    return cases


def _bound_part(c: Clause, i, params, def_sign):
    """One disjunct (lower bound) or conjunct (upper bound) of the
    Ackermann bound from definitional clause c with p-literal at i."""
    collide = clause_vars(c) & set(params)
    if collide:
        taken = clause_vars(c) | set(params)
        ren = {}
        k = 1
        for v in sorted(collide):
            while f"z{k}" in taken:
                k += 1
            ren[v] = Var(f"z{k}")
            taken.add(f"z{k}")
        c = clause_subst(c, ren)
    _, patom = c.literals[i]
    rest = [l for j, l in enumerate(c.literals) if j != i]
    mapping = {}
    eqs = []
    for x, t in zip(params, patom.args):
        if isinstance(t, Var) and t.name not in mapping:
            mapping[t.name] = Var(x)
        else:
            eqs.append((x, t))
    def lit_f(sign, a):
        g = a if sign else Not(a)
        return subst_vars(g, mapping)
    eq_forms = [Eq(Var(x), subst_in_term(t, mapping)) for x, t in eqs]
    leftover = sorted(clause_vars(c) - set(mapping) - set(params))
    if def_sign:
        # clause  p(t̄) ∨ R  reads  ∀(∧¬R → p(t̄)):
        # disjunct  ∃z̄ (x̄=t̄ ∧ ∧¬R)
        body = conj(eq_forms + [lit_f(not s, a) for s, a in rest])
        return exists(leftover, body)
    # clause  ¬p(t̄) ∨ R  reads  ∀(p(t̄) → ∨R):
    # conjunct  ∀z̄ (x̄=t̄ → ∨R)
    concl = disj(lit_f(s, a) for s, a in rest) if rest else FALSE
    prem = conj(eq_forms)
    return forall(leftover, truth_simplify(Implies(prem, concl)))


def _ackermann_case(p, arity, clauses, def_sign, ctx):
    """Eliminate ∃p from one case's clause set via Ackermann's lemma."""
    defs, others = [], []
    for c in clauses:
        pos, negs = _p_lits(c, p)
        d = pos if def_sign else negs
        if d:
            defs.append((c, d[0]))
        else:
            others.append(c)
    b = conj(clause_to_formula(c) for c in others) if others else TRUE
    if _polarity_of(b, p) == "none":
        # p is pure in the remaining clauses; the defs are satisfiable
        # by the extreme interpretation of p
        return truth_simplify(b)
    params = tuple(f"x{i+1}" if arity > 1 else "x" for i in range(arity))
    parts = [_bound_part(c, i, params, def_sign) for c, i in defs]
    if def_sign:
        bound = disj(parts) if parts else FALSE
        head = Implies(bound, Atom(p, tuple(Var(x) for x in params)))
    else:
        bound = conj(parts) if parts else TRUE
        head = Implies(Atom(p, tuple(Var(x) for x in params)), bound)
    head = forall(params, head)
    return ackermann_rewrite(PredSpec(p, arity), conj([head, b]))


def _eliminate_pred(p, body, ctx, task, deadline):
    """∃p body with first-order body; returns an equivalent first-order
    formula or raises."""
    check_deadline(deadline, "elimination")
    arities = predicate_arities(body).get(p, set())
    if not arities:
        return body
    if len(arities) > 1:
        raise _Nonreducible(f"predicate {p} used with multiple arities")
    arity = next(iter(arities))
    g = body
    if task.pre:
        # the pipeline names its variables from a Context of its own
        g = PIPELINES[task.pre](g, deadline)
    ctx.reserve_formula(g)
    cf = simplify_clausal(clausify(g, ctx, deadline), deadline)
    reasons = []
    for def_sign in (True, False):
        try:
            cases = _split_cases(cf.clauses, p, def_sign, deadline)
            results = [_ackermann_case(p, arity, case, def_sign, ctx)
                       for case in cases]
            out = truth_simplify(disj(results))
            return _restore_quantifiers(out, cf.skolems, ctx, deadline)
        except EliminationError as e:
            reasons.append(f"def_sign={def_sign}: {e}")
    raise _Nonreducible("; ".join(reasons))


def _restore_quantifiers(f, skolems, ctx, deadline):
    """Un-Skolemize the symbols of the skolems record (name -> arity)
    introduced during the elimination step."""
    if not skolems:
        return f
    names = all_names(f)
    if names.isdisjoint(skolems):
        return f
    ctx.reserve(names)   # f has the Ackermann step's bound variables
    cf = simplify_clausal(clausify(f, ctx, deadline), deadline)
    # ctx made both records' Skolems fresh, so their names differ
    cf.skolems.update(skolems)
    try:
        return unskolemize(cf, ctx, deadline)
    except UnskolemizeError as e:
        raise _Nonreducible(f"cannot un-Skolemize result: {e}")


# ---------------------------------------------------------------------------
# Driver

def eliminate(task: EliminationTask) -> EliminationOutcome:
    """Eliminate all predicate quantifiers from task.formula within
    task.timeout_ms, the pre and simp_result pipelines included; past it
    the outcome is 'resources'."""
    deadline = time.monotonic() + task.timeout_ms / 1000.0
    f = task.formula
    ctx = Context()
    ctx.reserve_formula(f)
    try:
        out = truth_simplify(_elim(f, ctx, task, deadline))
        if task.simp_result:
            out = PIPELINES[task.simp_result](out, deadline)
    except DeadlineExceeded as e:
        return EliminationOutcome("resources", reason=str(e))
    except EliminationError as e:
        return EliminationOutcome("nonreducible", reason=str(e))
    return EliminationOutcome("success", result=out)


def _elim(f, ctx, task, deadline):
    if isinstance(f, Exists2):
        body = _elim(f.body, ctx, task, deadline)
        for p in f.preds:
            body = truth_simplify(
                _eliminate_pred(p.name, body, ctx, task, deadline))
        return body
    if isinstance(f, ForAll2):
        try:
            dual = Exists2(f.preds, nnf(neg(f.body)))
        except FormulaError as e:   # a lambda or a macro call in the body
            raise EliminationError(str(e))
        out = _elim(dual, ctx, task, deadline)
        return nnf(neg(out))
    if isinstance(f, LambdaApp):
        return _elim(beta_reduce(f), ctx, task, deadline)
    if isinstance(f, (Lambda, MacroCall)):
        raise EliminationError(f"cannot eliminate inside {f!r}")
    return map_children(f, lambda g: _elim(g, ctx, task, deadline))


# ---------------------------------------------------------------------------
# Staged driver for the 2-colorability example

FO_COL2_SRC = ("all(x, (r(x) ; g(x))), "
               "all([x,y], (E(x,y) -> (~((r(x), r(y))), ~((g(x), g(y))))))")


def _fo_col2(espec) -> Formula:
    from .syntax import parse_formula
    f = parse_formula(FO_COL2_SRC)
    if isinstance(espec, str):
        return substitute_predicate(f, PredSpec("E", 2), espec)
    if isinstance(espec, Lambda):
        return truth_simplify(
            substitute_predicate(f, PredSpec("E", 2), espec))
    raise EliminationError("e-spec must be a predicate symbol or lambda")


def eliminate_staged(espec, timeout_ms=30000):
    """Two-step elimination of the 2-colorability predicate pair: g with
    CNF preprocessing, then r from the intermediate with DNF
    preprocessing.  Returns (instantiated input, final formula)."""
    f0 = _fo_col2(espec)
    step1 = eliminate(EliminationTask(
        Exists2((PredSpec("g"),), f0), pre="c6", timeout_ms=timeout_ms))
    if step1.status != "success":
        raise EliminationError(f"stage 1 failed: {step1.reason}")
    step2 = eliminate(EliminationTask(
        Exists2((PredSpec("r"),), step1.result), pre="d6",
        simp_result="c6", timeout_ms=timeout_ms))
    if step2.status != "success":
        raise EliminationError(f"stage 2 failed: {step2.reason}")
    return espec, step2.result
