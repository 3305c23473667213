"""Model-elimination prover, finite model search, and validation.

The prover searches for closed clausal tableaux by iterative deepening
over tableau depth with regularity pruning and leftmost goal selection.
It starts only from all-negative clauses: every unsatisfiable clause set
has a minimally unsatisfiable subset, that subset has an all-negative
clause (or making every atom true would satisfy it), and a connection
tableau for it can start from any of its clauses (Loveland 1978; Letz
et al. 1992).  A connection index, built once per search, lists for each
sign and predicate the input literals a goal can connect to; an
extension tries a clause only when its literal has the goal's predicate
and unifies with the goal.  The search shares structure (Boyer & Moore
1972): a clause is compiled once, when first used, with its variables
numbered, and an instance of it is the compiled clause read at a fresh
integer base, so an extension allocates one small search node per
literal and no terms.  The tableau is built once, for the proof found,
and grounded as it is built.  Reduction and regularity look only at
ancestors with the goal's predicate.
A failure cache, which lives for one search, cuts goals whose subtree
already failed (Astrachan & Stickel 1992).  A goal with at least two
levels of depth left is keyed on its literal and then its path's, read
under the current bindings with their variables numbered jointly by
first occurrence (a path literal that is ground when pushed is read only
then).  When the subtree closes in no way, the cache records the
remaining depth, and a later goal with the same key and no more depth
left fails at once.  Whether a subtree can close depends only on its
goal and path up to renaming, and a failure at some depth holds at every
smaller one; so only subtrees that would yield nothing are cut, and the
search finds the same first proof with fewer inferences.
Clauses carry a side label (left/right) that the interpolation module
reads off the closed tableau.  Equality is handled by adding the
standard axioms when '=' occurs in the input.

The countermodel search runs depth first over the cells of the tables
(function cells, then predicate cells, in sorted (name, arity) and key
order; values in domain order, False before True) and evaluates the
formula at each node in three-valued logic, an unset cell unknown.  A
branch on which it is already true is cut (Zhang & Zhang 1995); where
it is already false, the unset cells take the least values (1, False).
A function cell takes only the values 1..top+1, top the largest element
that its key and the cells before it name: SEM's least number
heuristic.  A larger value gives an interpretation isomorphic to one
tried before, and the first countermodel in the cells' order never has
one (swapping its value with top+1 would give an earlier countermodel),
so the bound changes the time, not the model found.
"""

from __future__ import annotations

import itertools
import math
import time

from .formula import (
    And, Atom, Context, Eq, Exists, Exists2, Falsity, Fn, ForAll, ForAll2,
    Formula, Iff, Implies, Lambda, LambdaApp, MacroCall, Not, Or, PredSpec,
    Record, Truth, Var, atom_terms, free_symbols, free_vars, is_first_order,
    map_children, neg, predicate_arities,
    substitute_predicate,
)
from .preprocess import (
    Clause, DeadlineExceeded, clause_terms, clausify,
    match_lit, pred_key, simplify_clausal,
)


class ProverError(Exception):
    pass


class _LimitHit(Exception):
    """The search hit a resource limit; args[0] names it."""


class ProverConfig(Record):
    __slots__ = ("timeout_ms", "max_depth", "max_inferences")

    def __init__(self, timeout_ms: int = 5000, max_depth: int = 30,
                 max_inferences: int | None = None):
        self.timeout_ms = timeout_ms
        self.max_depth = max_depth
        self.max_inferences = max_inferences

    def with_timeout(self, timeout_ms: int) -> ProverConfig:
        """This configuration with timeout_ms in place of its own."""
        return ProverConfig(timeout_ms, self.max_depth, self.max_inferences)


class TableauNode(Record):
    """A node of a (closed) clausal tableau.

    The root carries no literal; inner structure: each non-leaf node's
    children are the literals of one instance of an input clause.
    Nodes are equal only to themselves."""
    __slots__ = ("literal", "side", "children", "closed_by", "clause_index")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, literal: tuple | None, side: str | None,
                 children: list | None = None, closed_by: object = None,
                 clause_index: int | None = None):
        self.literal = literal    # (sign, Atom|Eq) or None for the root
        self.side = side          # 'left' | 'right' | None (root)
        self.children = [] if children is None else children
        self.closed_by = closed_by  # TableauNode ancestor, or None for inner
        self.clause_index = clause_index  # input clause used to expand here

    def leaves(self):
        if not self.children:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()

    def nodes(self):
        yield self
        for c in self.children:
            yield from c.nodes()


class ProofResult(Record):
    __slots__ = ("proved", "tableau", "depth", "inferences", "elapsed_ms",
                 "reason", "clauses", "cached_failures")

    def __init__(self, proved: bool, tableau: TableauNode | None = None,
                 depth: int | None = None, inferences: int = 0,
                 elapsed_ms: float = 0.0, reason: str = "",
                 clauses: list | None = None, cached_failures: int = 0):
        self.proved = proved
        self.tableau = tableau
        self.depth = depth
        # goals, plus extensions with the goal's predicate
        self.inferences = inferences
        self.elapsed_ms = elapsed_ms
        self.reason = reason
        # (Clause, side) inputs
        self.clauses = [] if clauses is None else clauses
        self.cached_failures = cached_failures  # goals the failure cache cut


# ---------------------------------------------------------------------------
# Compiled clauses and unification by structure sharing
#
# A compiled term is an int, the number of a variable within its clause,
# or a tuple (functor, arg, ...).  An instance of a compiled clause is
# the clause read at an int base: its variable v is the search variable
# v + base.  A binding maps a search variable to a (term, base) pair, so
# renaming a clause costs nothing (Boyer & Moore 1972).

def _compile_term(t, num):
    if isinstance(t, Var):
        return num.setdefault(t.name, len(num))
    return (t.functor, *(_compile_term(a, num) for a in t.args))


def _compile(cl: Clause):
    """cl as (number of variables, [(sign, predicate key, args)])."""
    num = {}
    lits = [(s, pred_key(a),
             tuple(_compile_term(t, num) for t in atom_terms(a)))
            for s, a in cl.literals]
    return len(num), lits


def _deref(t, b, env):
    """What t read at base b stands for under env: a (term, base) pair,
    or (search variable, 0) for an unbound variable."""
    while type(t) is int:
        v = t + b
        if v not in env:
            return v, 0
        t, b = env[v]
    return t, b


def _occurs(v, t, b, env):
    t, b = _deref(t, b, env)
    if type(t) is int:
        return t == v
    return any(_occurs(v, a, b, env) for a in t[1:])


def _unify(a, ab, b, bb, env, trail):
    a, ab = _deref(a, ab, env)
    b, bb = _deref(b, bb, env)
    if type(a) is int:
        if a == b and type(b) is int:
            return True
        if _occurs(a, b, bb, env):
            return False
        env[a] = (b, bb)
        trail.append(a)
        return True
    if type(b) is int:
        return _unify(b, bb, a, ab, env, trail)
    if a[0] != b[0] or len(a) != len(b):
        return False
    return _unify_args(a[1:], ab, b[1:], bb, env, trail)


def _unify_args(xs, xb, ys, yb, env, trail):
    for x, y in zip(xs, ys):
        if not _unify(x, xb, y, yb, env, trail):
            return False
    return True


def _read(args, b, env, num):
    """The terms args at base b under env as a list, their unbound
    variables numbered by num in the order they first occur."""
    out = []
    for t in args:
        t, c = _deref(t, b, env)
        if type(t) is int:
            t = num.setdefault(t, len(num))
        elif len(t) > 1:
            t = (t[0], *_read(t[1:], c, env, num))
        out.append(t)
    return out


def _read_lit(n, env, num):
    """The literal of search node n under env, read as by _read."""
    sign, key, args = n.lit
    return (sign, key, *_read(args, n.base, env, num))


def _equal(xs, xb, ys, yb, env):
    """Whether the argument tuples xs at xb and ys at yb are equal under
    env, unbound variables only to themselves."""
    for x, y in zip(xs, ys):
        x, b = _deref(x, xb, env)
        y, c = _deref(y, yb, env)
        if type(x) is int or type(y) is int:
            if x != y:
                return False
        elif x[0] != y[0] or len(x) != len(y) \
                or not _equal(x[1:], b, y[1:], c, env):
            return False
    return True


# ---------------------------------------------------------------------------
# Equality axioms

def equality_axioms(clauses):
    """Reflexivity, symmetry, transitivity, and congruence clauses for
    the symbols occurring in the clause list."""
    if not any(isinstance(a, Eq) for c, _side in clauses
               for _, a in c.literals):
        return []
    preds = {}
    funs = {}
    for c, _side in clauses:
        for _, a in c.literals:
            if not isinstance(a, Eq):
                preds.setdefault(a.pred, len(a.args))
        for t in clause_terms(c):
            if isinstance(t, Fn) and t.args:
                funs.setdefault(t.functor, len(t.args))
    x, y, z = Var("x"), Var("y"), Var("z")
    out = [
        Clause(((True, Eq(x, x)),)),
        Clause(((False, Eq(x, y)), (True, Eq(y, x)))),
        Clause(((False, Eq(x, y)), (False, Eq(y, z)), (True, Eq(x, z)))),
    ]
    for p, n in sorted(preds.items()):
        if n == 0:
            continue
        xs = tuple(Var(f"x{i}") for i in range(n))
        ys = tuple(Var(f"y{i}") for i in range(n))
        lits = [(False, Atom(p, xs))]
        lits += [(False, Eq(a, b)) for a, b in zip(xs, ys)]
        lits.append((True, Atom(p, ys)))
        out.append(Clause(tuple(lits)))
    for f, n in sorted(funs.items()):
        xs = tuple(Var(f"x{i}") for i in range(n))
        ys = tuple(Var(f"y{i}") for i in range(n))
        lits = [(False, Eq(a, b)) for a, b in zip(xs, ys)]
        lits.append((True, Eq(Fn(f, xs), Fn(f, ys))))
        out.append(Clause(tuple(lits)))
    return out



# ---------------------------------------------------------------------------
# Tableau search

GROUND_PREFIX = "c_"


class _Node:
    """A literal of a clause instance in the search: its compiled
    (sign, predicate key, args), its base, its input clause, and, once it
    is closed, its children or the ancestor that closes it.  On the path,
    key is its literal as read in a failure-cache key, if that is
    ground."""
    __slots__ = ("lit", "base", "idx", "children", "closed_by", "key")

    def __init__(self, lit, base, idx):
        self.lit = lit
        self.base = base
        self.idx = idx
        self.children = ()
        self.closed_by = None
        self.key = None


class _Search:
    def __init__(self, clauses, config):
        self.clauses = clauses          # list of (Clause, side)
        self.config = config
        self.env = {}
        self.trail = []
        self.top = 0                    # the next instance's base
        self.inferences = 0
        # failure cache: the key of a goal and its path -> the largest
        # remaining depth at which that goal's subtree yielded nothing
        self.failed = {}
        self.cached_failures = 0
        self.deadline = time.monotonic() + config.timeout_ms / 1000.0
        # clause index -> _compile of the clause, made when a goal first
        # tries the clause: most clauses of a large input never are
        self.compiled = {}
        # (sign, predicate key) -> [(clause index, literal index)], in
        # clause order: the only input literals a goal can connect to
        self.index = {}
        for idx, (cl, _side) in enumerate(clauses):
            for i, (s, a) in enumerate(cl.literals):
                self.index.setdefault((s, pred_key(a)), []).append((idx, i))

    def _tick(self):
        self.inferences += 1
        if self.inferences % 64 == 0 and time.monotonic() > self.deadline:
            raise _LimitHit("timeout")
        if self.config.max_inferences is not None \
                and self.inferences > self.config.max_inferences:
            raise _LimitHit("inference limit")

    def _undo(self, mark):
        while len(self.trail) > mark:
            del self.env[self.trail.pop()]

    def clause(self, idx):
        c = self.compiled.get(idx)
        if c is None:
            c = self.compiled[idx] = _compile(self.clauses[idx][0])
        return c

    def instance(self, idx):
        """Search nodes for the literals of a fresh instance of input
        clause idx: the clause read at the base self.top."""
        nvars, lits = self.clause(idx)
        base = self.top
        self.top += nvars
        return [_Node(lit, base, idx) for lit in lits]

    def solve(self, node, path, depth):
        """Yield once for every way to close the subtree at node."""
        self._tick()
        env, trail = self.env, self.trail
        sign, key, args = node.lit
        base = node.base
        # regularity: an open goal equal to an ancestor literal is pruned
        for anc in path:
            s, k, a = anc.lit
            if k == key and s == sign and _equal(a, anc.base, args, base,
                                                 env):
                return
        # failure cache (see the module docstring): the key is the goal
        # and its path, read with their variables numbered jointly
        cache_key = ground = None
        closed = False
        if depth >= 2:
            num = {}
            goal = (sign, key, *_read(args, base, env, num))
            ground = None if num else goal
            cache_key = (goal, *[n.key or _read_lit(n, env, num)
                                 for n in path])
            if self.failed.get(cache_key, -1) >= depth:
                self.cached_failures += 1
                return
        # reduction against the complement of an ancestor
        for anc in path:
            s, k, a = anc.lit
            if k == key and s != sign:
                mark = len(trail)
                if _unify_args(a, anc.base, args, base, env, trail):
                    node.closed_by = anc
                    node.children = ()
                    closed = True
                    yield True
                    node.closed_by = None
                self._undo(mark)
        if depth <= 0:
            return
        # extension with an input clause whose literal can connect
        for idx, i in self.index.get((not sign, key), ()):
            self._tick()
            mark = len(trail)
            lit = self.clause(idx)[1][i]
            if _unify_args(lit[2], self.top, args, base, env, trail):
                children = self.instance(idx)
                children[i].closed_by = node
                node.children = children
                if depth > 2:   # else no goal below reads node.key
                    num = {}
                    read = ground or _read_lit(node, env, num)
                    node.key = None if num else read
                for _ in self.solve_all(children[:i] + children[i + 1:],
                                        path + [node], depth - 1):
                    closed = True
                    yield True
                node.children = ()
            self._undo(mark)
        if cache_key is not None and not closed:
            self.failed[cache_key] = depth

    def solve_all(self, goals, path, depth):
        if not goals:
            yield True
            return
        first, rest = goals[0], goals[1:]
        for _ in self.solve(first, path, depth):
            yield from self.solve_all(rest, path, depth)

    def tableau(self, idx, children):
        """The closed tableau from start clause idx with the search nodes
        children, instantiated with the final bindings; search variables
        left unbound become fresh constants c_1, c_2, ... in pre-order."""
        ground = {}
        made = {}

        def term(t, b):
            t, b = _deref(t, b, self.env)
            if type(t) is int:
                if t not in ground:
                    ground[t] = Fn(f"{GROUND_PREFIX}{len(ground) + 1}")
                return ground[t]
            return Fn(t[0], tuple(term(a, b) for a in t[1:]))

        def build(n):
            sign, key, args = n.lit
            ts = tuple(term(t, n.base) for t in args)
            atom = Eq(*ts) if key == "=" else Atom(key[0], ts)
            out = made[n] = TableauNode((sign, atom), self.clauses[n.idx][1],
                                        clause_index=n.idx)
            if n.closed_by is not None:
                out.closed_by = made[n.closed_by]
            out.children = [build(c) for c in n.children]
            return out

        root = TableauNode(None, None, clause_index=idx)
        root.children = [build(c) for c in children]
        return root


def _start_order(clauses):
    """The start clauses: the all-negative clauses, right-side ones (from
    the negated goal) first, then in input order.

    This is complete: every minimally unsatisfiable subset of the input
    contains an all-negative clause (otherwise making every atom true
    would satisfy it), and a connection tableau for such a subset can
    start from any of its clauses.  An input without an all-negative
    clause is satisfiable and gets no start clause."""
    starts = [(side != "right", idx)
              for idx, (cl, side) in enumerate(clauses)
              if not any(s for s, _ in cl.literals)]
    return [idx for _, idx in sorted(starts)]


def prove_clausal(clauses, config: ProverConfig | None = None
                  ) -> ProofResult:
    """Search for a closed tableau refuting the labeled clause list."""
    if config is None:
        config = ProverConfig()
    t0 = time.monotonic()
    clauses = list(clauses)
    if any(len(c) == 0 for c, _ in clauses):
        # the empty clause is already a refutation
        root = TableauNode(None, None)
        return ProofResult(True, root, 0, 0, 0.0, "empty clause", clauses)
    search = _Search(clauses, config)
    order = _start_order(clauses)
    try:
        for depth in range(1, config.max_depth + 1):
            for idx in order:
                children = search.instance(idx)
                try:
                    next(search.solve_all(children, [], depth))
                except StopIteration:
                    continue
                root = search.tableau(idx, children)
                ms = (time.monotonic() - t0) * 1000
                return ProofResult(True, root, depth, search.inferences,
                                   ms, "proved", clauses,
                                   search.cached_failures)
    except _LimitHit as hit:
        ms = (time.monotonic() - t0) * 1000
        return ProofResult(False, None, None, search.inferences, ms,
                           hit.args[0], clauses, search.cached_failures)
    ms = (time.monotonic() - t0) * 1000
    return ProofResult(False, None, None, search.inferences, ms,
                       "depth bound exhausted", clauses, search.cached_failures)


def check_tableau(root: TableauNode, clauses) -> bool:
    """Independent structural soundness check of a closed tableau:
    every inner node's children instantiate an input clause and every
    leaf is closed against a complementary ancestor."""

    def check(node, ancestors):
        if node.children:
            idx = node.children[0].clause_index
            if idx is None or not 0 <= idx < len(clauses):
                return False
            cl, side = clauses[idx]
            if len(cl.literals) != len(node.children):
                return False
            theta = {}
            for pat, child in zip(cl.literals, node.children):
                if child.side != side:
                    return False
                if not match_lit(pat, child.literal, theta):
                    return False
            nxt = ancestors if node.literal is None else ancestors + [node]
            return all(check(c, nxt) for c in node.children)
        if node.literal is None:
            # childless root: sound exactly when an input clause is empty
            return not ancestors and any(not c.literals for c, _ in clauses)
        anc = node.closed_by
        if anc is None or not any(anc is x for x in ancestors):
            return False
        s, a = node.literal
        ts, ta = anc.literal
        return ts != s and ta == a

    return check(root, [])


# ---------------------------------------------------------------------------
# Formula-level proving

def reduce_so_universal(f: Formula) -> Formula:
    """Eliminate second-order quantifiers that do not affect validity:
    positive universal and negative existential predicate quantifiers
    are dropped after renaming the bound predicates fresh.  Any other
    second-order quantifier, a lambda (applied or not) or a macro call
    raises ProverError."""
    ctx = Context()
    ctx.reserve_formula(f)

    def walk(g, pol):
        t = type(g)
        if t is Not:
            return Not(walk(g.arg, -pol))
        if t is Implies:
            return Implies(walk(g.lhs, -pol), walk(g.rhs, pol))
        if t is Iff:
            return Iff(walk(g.lhs, 0), walk(g.rhs, 0))
        if t is ForAll2 or t is Exists2:
            if pol != (1 if t is ForAll2 else -1):
                raise ProverError(
                    "irreducible second-order quantifier for validity")
            body = g.body
            arities = predicate_arities(body)
            for p in g.preds:
                fresh = ctx.fresh_pred()
                arity = p.arity
                if arity is None:
                    az = arities.get(p.name, set())
                    arity = next(iter(az)) if len(az) == 1 else None
                body = substitute_predicate(body, PredSpec(p.name, arity),
                                            fresh)
            return walk(body, pol)
        if t is Lambda or t is LambdaApp or t is MacroCall:
            raise ProverError(f"cannot reduce {g!r}")
        return map_children(g, lambda h: walk(h, pol))

    return walk(f, 1)


def side_clauses(left, right) -> list:
    """The (Clause, side) input of an interpolating refutation: left's
    clauses labeled 'left', right's 'right', and the equality axioms on
    the left when '=' occurs there, otherwise on the right."""
    clauses = [(c, "left") for c in left] + [(c, "right") for c in right]
    eqax = equality_axioms(clauses)
    if eqax:
        left_eq = any(isinstance(a, Eq) for c in left for _, a in c.literals)
        clauses += [(c, "left" if left_eq else "right") for c in eqax]
    return clauses


def _refute(left, right, config: ProverConfig, simplified=False):
    """Refute the left and right formulas together, all within
    config.timeout_ms: clausify each of them (and simplify its clauses if
    simplified) under one Context, then search the side-labeled clauses
    with the time left.  Returns the ProofResult and the clause lists of
    the two sides, or the failed result and None, None when
    clausification runs out of time."""
    t0 = time.monotonic()
    deadline = t0 + config.timeout_ms / 1000.0
    ctx = Context()
    for f in left + right:
        ctx.reserve_formula(f)

    def clauses(f):
        cf = clausify(f, ctx, deadline)
        return (simplify_clausal(cf, deadline) if simplified else cf).clauses

    try:
        sides = [[c for f in fs for c in clauses(f)] for fs in (left, right)]
    except DeadlineExceeded as e:
        return ProofResult(False, elapsed_ms=(time.monotonic() - t0) * 1000,
                           reason=str(e)), None, None
    ms = max(0, int((deadline - time.monotonic()) * 1000))
    return (prove_clausal(side_clauses(*sides),
                          config.with_timeout(ms)), *sides)


def prove(f: Formula, config: ProverConfig | None = None) -> ProofResult:
    """Attempt to prove that f is valid by refuting its negation, all
    within config.timeout_ms.  Second-order quantifiers are first reduced
    by reduce_so_universal; the clauses are labeled 'left'."""
    if config is None:
        config = ProverConfig()
    if not is_first_order(f):
        f = reduce_so_universal(f)
    return _refute([neg(f)], [], config)[0]


def prove_implication(left: Formula, right: Formula,
                      config: ProverConfig | None = None) -> ProofResult:
    """Refute left ∧ ¬right with side labels for interpolation, all
    within config.timeout_ms."""
    if config is None:
        config = ProverConfig()
    return _refute([left], [neg(right)], config)[0]


def model_share(timeout_ms: int) -> int:
    """The part of a timeout_ms budget that goes to the countermodel
    search of validate and interpolate: half, at most 1 s."""
    return min(timeout_ms // 2, 1000)


# ---------------------------------------------------------------------------
# Finite model search

class Model(Record):
    __slots__ = ("size", "functions", "predicates")

    def __init__(self, size: int, functions: dict, predicates: dict):
        self.size = size
        self.functions = functions    # (name, arity) -> {args tuple: element}
        self.predicates = predicates  # (name, arity) -> set of args tuples

    def eval_term(self, t, env):
        if isinstance(t, Var):
            return env[t.name]
        args = tuple(self.eval_term(a, env) for a in t.args)
        return self.functions[(t.functor, len(t.args))][args]

    def eval(self, f, env=None):
        env = {} if env is None else env
        return self._ev(f, env)

    def _ev(self, f, env):
        if isinstance(f, Truth):
            return True
        if isinstance(f, Falsity):
            return False
        if isinstance(f, Atom):
            args = tuple(self.eval_term(a, env) for a in f.args)
            return args in self.predicates[(f.pred, len(f.args))]
        if isinstance(f, Eq):
            return self.eval_term(f.lhs, env) == self.eval_term(f.rhs, env)
        if isinstance(f, Not):
            return not self._ev(f.arg, env)
        if isinstance(f, And):
            return all(self._ev(a, env) for a in f.args)
        if isinstance(f, Or):
            return any(self._ev(a, env) for a in f.args)
        if isinstance(f, Implies):
            return (not self._ev(f.lhs, env)) or self._ev(f.rhs, env)
        if isinstance(f, Iff):
            return self._ev(f.lhs, env) == self._ev(f.rhs, env)
        if isinstance(f, (ForAll, Exists)):
            dom = range(1, self.size + 1)
            combos = itertools.product(dom, repeat=len(f.vars))
            test = all if isinstance(f, ForAll) else any
            return test(
                self._ev(f.body, {**env, **dict(zip(f.vars, vals))})
                for vals in combos)
        raise ProverError(f"cannot evaluate {f!r} in a finite model")

    def describe(self):
        lines = [f"domain size {self.size}"]
        for (name, ar), tbl in sorted(self.functions.items()):
            if ar == 0:
                lines.append(f"  {name} = {tbl[()]}")
            else:
                ent = ", ".join(f"{name}({','.join(map(str, k))})={v}"
                                for k, v in sorted(tbl.items()))
                lines.append(f"  {ent}")
        for (name, ar), rel in sorted(self.predicates.items()):
            if ar == 0:
                lines.append(f"  {name} = {'true' if () in rel else 'false'}")
            else:
                ent = sorted(rel)
                lines.append(f"  {name} = {{"
                             + ", ".join(f"({','.join(map(str, k))})"
                                         for k in ent) + "}")
        return "\n".join(lines)


def _fold3(vals, s):
    """Conjunction (s = 0) or disjunction (s = 1), stopping at an s."""
    out = 1 - s
    for v in vals:
        if v == s:
            return s
        if v == 0.5:
            out = 0.5
    return out


def _eval3(f, funs, preds, dom, env):
    """f under partial tables, an unset cell unknown, in Kleene's strong
    three-valued logic: 0 false, 1 true, 0.5 unknown, "not" is 1 - v.
    A term's value is its element, or None when unknown."""
    t = type(f)
    if t is Atom or t is Eq:
        args = tuple([env[a.name] if type(a) is Var
                      else _eval3(a, funs, preds, dom, env)
                      for a in (f.args if t is Atom else (f.lhs, f.rhs))])
        if None in args:
            return 0.5
        if t is Eq:
            return int(args[0] == args[1])
        return preds[(f.pred, len(args))].get(args, 0.5)
    if t is And or t is Or:
        return _fold3((_eval3(g, funs, preds, dom, env) for g in f.args),
                      int(t is Or))
    if t is Implies:
        a = _eval3(f.lhs, funs, preds, dom, env)
        return 1 if not a else max(1 - a, _eval3(f.rhs, funs, preds, dom, env))
    if t is ForAll or t is Exists:
        return _fold3((_eval3(f.body, funs, preds, dom,
                              {**env, **dict(zip(f.vars, vs))})
                       for vs in itertools.product(dom, repeat=len(f.vars))),
                      int(t is Exists))
    if t is Not:
        return 1 - _eval3(f.arg, funs, preds, dom, env)
    if t is Iff:
        a, b = (_eval3(g, funs, preds, dom, env) for g in (f.lhs, f.rhs))
        return min(max(1 - a, b), max(1 - b, a))
    if t is Truth or t is Falsity:
        return int(t is Truth)
    if t is Var:
        return env[f.name]
    if t is Fn:
        args = tuple(_eval3(a, funs, preds, dom, env) for a in f.args)
        return None if None in args else funs[(f.functor, len(args))].get(args)
    raise ProverError(f"cannot evaluate {f!r} in a finite model")


MODEL_SEARCH_CAP = 2_000_000


def find_countermodel(f: Formula, max_size: int = 4,
                      timeout_ms: int = 5000) -> Model | None:
    """Search small finite interpretations falsifying f (free variables
    are read universally), by domain size 1..max_size, depth first over
    the table cells as the module docstring describes.  A function cell
    tries only the elements 1..top+1, top the largest element its key
    and the earlier cells name; the model is still the first falsifying
    one in the cells' lexicographic order, which never exceeds that
    bound.  None at timeout_ms, or at a size with more than
    MODEL_SEARCH_CAP interpretations, counted in full, without the
    bound."""
    if not is_first_order(f):
        f = reduce_so_universal(f)
    fv = tuple(sorted(free_vars(f)))
    g = ForAll(fv, f) if fv else f
    syms = sorted({(o.kind == "predicate", o.name, o.arity)
                   for o in free_symbols(g)})
    deadline = time.monotonic() + timeout_ms / 1000.0
    for n in range(1, max_size + 1):
        dom = range(1, n + 1)
        funs, preds, cells = {}, {}, []
        for is_pred, name, ar in syms:
            table = (preds if is_pred else funs)[(name, ar)] = {}
            for k in itertools.product(dom, repeat=ar):
                if is_pred or n > 1:
                    cells.append((table, k, (False, True) if is_pred else dom))
                else:
                    table[k] = 1    # a function's one value at size 1
        if math.prod(len(c[2]) for c in cells) > MODEL_SEARCH_CAP:
            return None

        def search(i, top):
            """Whether cells i.. can falsify g; None at the deadline.
            top is the largest element the cells before i name."""
            if time.monotonic() > deadline:
                return None
            v = _eval3(g, funs, preds, dom, {})
            if v != 0.5:
                return not v
            table, key, values = cells[i]
            if values is dom:       # a function cell
                top = max((top, *key))
                values = dom[:top + 1]
            for x in values:
                table[key] = x
                if (found := search(i + 1, max(top, x))) is not False:
                    return found
            del table[key]
            return False

        found = search(0, 0)
        if found is None:
            return None
        if found:
            for table, key, values in cells:
                table.setdefault(key, values[0])
            return Model(n, funs, {k: {a for a, v in t.items() if v}
                                   for k, t in preds.items()})
    return None


class ValidationResult(Record):
    __slots__ = ("status", "proof", "model")

    def __init__(self, status: str, proof: ProofResult | None = None,
                 model: Model | None = None):
        self.status = status    # 'valid' | 'invalid' | 'unknown'
        self.proof = proof
        self.model = model


def validate(f: Formula, config: ProverConfig | None = None,
             model_size: int = 3) -> ValidationResult:
    """Three-valued validity check: quick countermodel search within
    model_share of config.timeout_ms, then proof search within the rest.
    Second-order quantifiers are first reduced by reduce_so_universal;
    input it cannot reduce is 'unknown', with the reason in the proof."""
    if config is None:
        config = ProverConfig()
    if not is_first_order(f):
        try:
            f = reduce_so_universal(f)
        except ProverError as e:
            r = ProofResult(False, reason=str(e))
            return ValidationResult("unknown", proof=r)
    share = model_share(config.timeout_ms)
    m = find_countermodel(f, max_size=model_size, timeout_ms=share)
    if m is not None:
        return ValidationResult("invalid", model=m)
    r = prove(f, config.with_timeout(config.timeout_ms - share))
    if r.proved:
        return ValidationResult("valid", proof=r)
    return ValidationResult("unknown", proof=r)
