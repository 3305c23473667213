"""Normal forms and predicate-respecting simplifications.

Clausal forms keep Skolem bookkeeping so that quantified formulas can be
reconstructed by un-Skolemization after clause-level simplification.
The named pipelines c6 (CNF-based) and d6 (its DNF dual) convert to
clausal form, simplify, and convert back; both preserve equivalence.
"""

from __future__ import annotations

import math
import re
import time
from itertools import repeat

from .formula import (
    And, Atom, Context, Eq, Exists, FALSE, Falsity, Fn, ForAll, Formula,
    Frozen, Implies, Not, Or, Record, Truth, Var, atom_terms, conj, disj,
    exists, forall, free_symbols, free_vars, free_vars_term, fresh_name,
    is_first_order, map_atom, neg, nnf, subst_vars, subterms,
)


class PreprocessError(Exception):
    pass


class UnskolemizeError(PreprocessError):
    pass


class DeadlineExceeded(PreprocessError):
    pass


def check_deadline(deadline, layer):
    """Raise DeadlineExceeded, naming layer, past the time.monotonic()
    deadline."""
    if time.monotonic() > deadline:
        raise DeadlineExceeded(f"{layer} timeout")


def _checked(items, deadline, layer):
    """The items, with check_deadline(deadline, layer) before each."""
    for x in items:
        check_deadline(deadline, layer)
        yield x


Literal = tuple  # (sign: bool, Atom | Eq)


class Clause(Frozen):
    __slots__ = ("literals",)

    def __init__(self, literals: tuple):
        object.__setattr__(self, "literals", literals)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.literals == other.literals
        return NotImplemented

    def __hash__(self):
        return hash((self.literals,))

    def __iter__(self):
        return iter(self.literals)

    def __len__(self):
        return len(self.literals)


class ClausalForm(Record):
    __slots__ = ("clauses", "skolems")

    def __init__(self, clauses: list, skolems: dict | None = None):
        self.clauses = clauses
        self.skolems = {} if skolems is None else skolems  # name -> arity


def clause_terms(c: Clause):
    """Every subterm of every literal of c, in pre-order."""
    return subterms(*(t for _, a in c.literals for t in atom_terms(a)))


def clause_vars(c: Clause) -> set:
    return {t.name for t in clause_terms(c) if isinstance(t, Var)}


def lit_subst(lit, mapping):
    return (lit[0], subst_vars(lit[1], mapping))


def clause_subst(c: Clause, mapping) -> Clause:
    return Clause(tuple(lit_subst(l, mapping) for l in c.literals))


def lit_complement(lit):
    return (not lit[0], lit[1])


# ---------------------------------------------------------------------------
# Miniscoping

def miniscope(f: Formula) -> Formula:
    """Push quantifiers inward to reduce Skolem arity (NNF input)."""
    t = type(f)
    if t is And or t is Or:
        return (conj if t is And else disj)(map(miniscope, f.args))
    if t is ForAll or t is Exists:
        out = miniscope(f.body)
        for v in reversed(f.vars):
            out = _push_one(t, v, out)
        return out
    return f


def _push_one(q, v, body):
    if v not in free_vars(body):
        return body
    if isinstance(body, (And, Or)):
        join = conj if isinstance(body, And) else disj
        inside, outside = [], []
        for a in body.args:
            (inside if v in free_vars(a) else outside).append(a)
        # all distributes over a conjunction, ex over a disjunction
        if (q is ForAll) == isinstance(body, And):
            return join([_push_one(q, v, a) for a in inside] + outside)
        if outside:
            return join([_push_one(q, v, join(inside))] + outside)
        return q((v,), body)
    if isinstance(body, q) and q in (ForAll, Exists):
        return q((v,) + body.vars, body.body)
    return q((v,), body)


# ---------------------------------------------------------------------------
# Clausification

def clausify(f: Formula, ctx: Context | None = None,
             deadline=math.inf) -> ClausalForm:
    """Convert a first-order, macro-free formula to clausal form: the
    CNF of its Skolemized matrix, without the product clauses that an
    earlier one implies (see _cnf).

    The universal closure of f is put in NNF and miniscoped; _skolemize
    names each variable v as it drops v's quantifier: v itself, or, if
    that is a free symbol of f or a variable that can share a clause
    with v, the first free one of v1, v2, ...  The Skolem symbols are
    recorded so that unskolemize can invert the Skolemization.  Fresh
    Skolem names avoid every name of f only when ctx is None; a caller
    that passes a ctx reserves the names of f in it first.  Tautologies,
    repeated literals and clauses that repeat an earlier one up to
    variable names are left out.  Past the time.monotonic() deadline it
    raises DeadlineExceeded."""
    if not is_first_order(f):
        raise PreprocessError("clausify requires a first-order formula")
    if ctx is None:
        ctx = Context()
        ctx.reserve_formula(f)
    g = miniscope(nnf(forall(sorted(free_vars(f)), f)))
    check_deadline(deadline, "clausification")
    cf = ClausalForm([])
    taken = frozenset(o.name for o in free_symbols(g))
    matrix, _ = _skolemize(g, {}, (), cf, ctx, taken)
    cf.clauses = _distinct(map(Clause, _cnf(matrix, deadline)), deadline)
    return cf


def _distinct(clauses, deadline):
    """The clauses without those that repeat an earlier one up to
    variable names; just the empty clause if there is one.  Literals are
    ordered by their repr less the variable names, so no name matters."""
    seen = set()
    out = []
    reprs = {}      # id(literal) -> (literal, key), the literal kept alive

    def order(lit):     # clauses share their literal objects
        r = reprs.get(id(lit))
        if r is None:
            r = reprs[id(lit)] = (lit, _literal_order(lit))
        return r[1]

    for c in clauses:
        check_deadline(deadline, "clausification")
        ren = {}    # variables named by first use
        lits = sorted(c.literals, key=order) if len(c) > 1 else c.literals
        key = tuple((s, _canon(a, ren)) for s, a in lits)
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
    if any(len(c) == 0 for c in out):
        return [Clause(())]
    return out


def pred_key(a):
    """The predicate of an atom: (name, arity), or "=" for an equality."""
    return "=" if isinstance(a, Eq) else (a.pred, len(a.args))


def _skolemize(g, env, univ, cf, ctx, taken):
    """The Skolemized matrix of the miniscoped NNF formula g, and taken
    with the variable names it used.

    Each quantified variable v, an existential too, is named by
    fresh_name(v, taken).  env maps a universal to the Var of its name,
    an existential to a fresh Skolem term (recorded in cf) over the
    universals of univ that occur in its body through env.  The
    arguments of an Or take names one after the other, but every
    conjunct of an And starts from the same taken: no clause mixes
    literals of two conjuncts, and the copies of one quantifier that
    miniscope makes get one name, so _Products.keep sees them alike."""
    t = type(g)
    if t is ForAll or t is Exists:
        env = dict(env)
        if t is Exists:
            deps = set().union(*(free_vars_term(env[v]) for v in free_vars(g)))
            args = tuple(Var(u) for u in univ if u in deps)
        for v in g.vars:
            name = fresh_name(v, taken)
            taken = taken | {name}
            if t is ForAll:
                univ += (name,)
                env[v] = Var(name)
            else:
                sk = ctx.fresh_skolem()
                cf.skolems[sk] = len(args)
                env[v] = Fn(sk, args)
        return _skolemize(g.body, env, univ, cf, ctx, taken)
    if t is And:
        parts = [_skolemize(a, env, univ, cf, ctx, taken) for a in g.args]
        return (conj(p for p, _ in parts),
                taken.union(*(names for _, names in parts)))
    if t is Or:
        parts = []
        for a in g.args:
            p, taken = _skolemize(a, env, univ, cf, ctx, taken)
            parts.append(p)
        return disj(parts), taken
    return subst_vars(g, env), taken


def _cnf(g, deadline=math.inf):
    """Distribute a quantifier-free NNF matrix into a list of literal
    tuples.

    An Or is multiplied out one argument at a time.  A product clause
    that holds t=t or a complementary pair is dropped as soon as it is
    made, and so is one whose literals include all the literals of an
    earlier kept clause with the same x!=t literals (see _Products.keep);
    a repeated literal and t!=t are left out of it.  A kept clause
    implies each dropped one, so the clauses stay equivalent to g.  Past
    the time.monotonic() deadline it raises DeadlineExceeded."""
    run = _Products(deadline)
    lit = run.lits.__getitem__
    return [tuple(map(lit, ids)) for ids, _ in run.cnf(g)]


class _Products:
    """One _cnf run.  The j-th distinct atom gives the literal ids 2j
    (negative) and 2j+1 (positive), and a clause is a pair (tuple of
    literal ids, int mask with bit i set for each id i)."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.atoms = {}      # atom -> j
        self.lits = []       # id -> literal
        self.same = []       # id -> bits of it and its mirror image a=b/b=a
        self.veqs = 0        # bits of x!=t literals with a variable side

    def _atom(self, a):
        j = self.atoms.get(a)
        if j is None:
            j = self.atoms[a] = len(self.lits) // 2
            self.lits += [(False, a), (True, a)]
            self.same += [1 << 2 * j, 1 << 2 * j + 1]
        return j

    def literal(self, s, a):
        if type(a) is Eq:
            if a.lhs == a.rhs:
                return [] if s else [((), 0)]    # t=t is true, t!=t false
            if a not in self.atoms:
                j, k = self._atom(a), self._atom(Eq(a.rhs, a.lhs))
                for b in (0, 1):
                    self.same[2 * j + b] = self.same[2 * k + b] = \
                        (1 << 2 * j + b) | (1 << 2 * k + b)
                if isinstance(a.lhs, Var) or isinstance(a.rhs, Var):
                    self.veqs |= (1 << 2 * j) | (1 << 2 * k)
        i = 2 * self._atom(a) + s
        return [((i,), 1 << i)]

    def join(self, c1, c2):
        """c1 followed by the literals of c2 it lacks, or None if the
        result holds a complementary pair."""
        ids, m = c1
        same = self.same
        for i in c2[0]:
            if m & same[i]:
                continue
            if m & same[i ^ 1]:
                return None
            m |= 1 << i
            ids += (i,)
        return ids, m

    def cnf(self, g):
        """The clauses of g."""
        t = type(g)
        if t is Or:
            out = [((), 0)]
            for a in g.args:
                part = self.cnf(a)
                if len(out) == 1 and len(part) == 1:
                    check_deadline(self.deadline, "clausification")
                    c = self.join(out[0], part[0])
                    out = [c] if c else []
                else:
                    out = self.keep(self.join(c1, c2)
                                    for c1 in out for c2 in part)
            return out
        if t is And:
            return self.keep([c for a in g.args for c in self.cnf(a)])
        if t is Not:
            return self.literal(False, g.arg)
        if t is Atom or t is Eq:
            return self.literal(True, g)
        if t is Truth:
            return []
        if t is Falsity:
            return [((), 0)]
        raise PreprocessError(f"unexpected node in CNF matrix: {g!r}")

    def keep(self, clauses):
        """The clauses, in order, without None and without each clause D
        whose literals include all the literals of an earlier kept clause
        C with the same x!=t literals with a variable side.

        C implies D, and every clause an enclosing Or makes from D has
        one made from C with a subset of its literals (if that one is a
        tautology, so is D's), so the final clauses stay equivalent.  The
        x!=t condition keeps a clause that equality resolution could make
        stronger than C: p(x) ; p(a) ; x!=a becomes p(a), which implies
        p(x) ; p(a).  Each kept clause is filed under its sorted literal
        ids in the set-trie of its x!=t literals, which D then queries."""
        out, tries = [], {}     # x!=t bits -> set-trie
        deadline, veqs = self.deadline, self.veqs
        for c in filter(None, clauses):
            check_deadline(deadline, "clausification")
            ids, trie = sorted(c[0]), tries.setdefault(c[1] & veqs, {})
            if not any(_subsets(trie, ids)):
                _stored(trie, ids).append(c)
                out.append(c)
        return out


def _stored(trie, xs):
    """The list filed under the sorted ints xs, made empty if new, in a
    set-trie: dicts nested by each int in turn, a node's list at None."""
    for x in xs:
        trie = trie.setdefault(x, {})
    return trie.setdefault(None, [])


def _subsets(trie, xs):
    """The lists that the set-trie files under subsets of the sorted ints
    xs, in lexicographic order (Savnik 2013)."""
    stack = [(trie, 0)]     # a node, and where its keys start in xs
    while stack:
        node, i = stack.pop()
        if None in node:
            yield node[None]
        for k in range(len(xs) - 1, i - 1, -1):     # smallest on top
            if xs[k] in node:
                stack.append((node[xs[k]], k + 1))


def _mk_clause(lits):
    out = []
    seen = set()
    for s, a in lits:
        if isinstance(a, Eq) and s and a.lhs == a.rhs:
            return None  # t=t makes the clause true
        if isinstance(a, Eq) and not s and a.lhs == a.rhs:
            continue     # t!=t is false, drop the literal
        if isinstance(a, Eq):
            sides = frozenset((a.lhs, a.rhs))
            key, ckey = (s, sides), (not s, sides)
        else:
            key, ckey = (s, a), (not s, a)
        if ckey in seen:
            return None  # tautology
        if key in seen:
            continue
        seen.add(key)
        out.append((s, a))
    return Clause(tuple(out))


def _literal_order(lit) -> str:
    """The repr of lit with its variable names left out."""
    return re.sub(r"Var\(\w+\)", "V", repr(lit))


def _canon(a, ren):
    def t(x):
        if isinstance(x, Var):
            if x.name not in ren:
                ren[x.name] = f"_v{len(ren)}"
            return ren[x.name]
        return (x.functor,) + tuple(t(y) for y in x.args)
    if isinstance(a, Eq):
        return ("=", t(a.lhs), t(a.rhs))
    return (a.pred,) + tuple(t(x) for x in a.args)


# ---------------------------------------------------------------------------
# Matching / subsumption

def match_term(pat, tgt, theta):
    if isinstance(pat, Var):
        if pat.name in theta:
            return theta[pat.name] == tgt
        theta[pat.name] = tgt
        return True
    if isinstance(tgt, Fn) and tgt.functor == pat.functor \
            and len(tgt.args) == len(pat.args):
        return all(match_term(p, t, theta)
                   for p, t in zip(pat.args, tgt.args))
    return False


def _sides(a):
    """The argument tuples of atom or equation a, whose matching maps a
    onto an atom or equation of its predicate: an equation has two."""
    return ((a.lhs, a.rhs), (a.rhs, a.lhs)) if isinstance(a, Eq) else (a.args,)


def _bindings(pats, targets):
    """The substitutions that map the terms pats onto a tuple of targets,
    one for each tuple that matches."""
    out = []
    for args in targets:
        theta = {}
        if all(map(match_term, pats, args, repeat(theta))):
            out.append(theta)
    return out


def match_lit(pat, tgt, theta):
    """Extend theta so that it maps literal pat onto tgt, by the first
    orientation of an equation that matches."""
    if pat[0] != tgt[0] or pred_key(pat[1]) != pred_key(tgt[1]):
        return False
    for ext in _bindings(_sides(pat[1])[0], _sides(tgt[1])):
        if all(theta.get(v, t) == t for v, t in ext.items()):
            theta.update(ext)
            return True
    return False


def subsumes(c: Clause, d: Clause, deadline=math.inf) -> bool:
    """True if some substitution maps every literal of c onto a literal
    of d (θ-subsumption; two literals of c may map onto the same one)
    and c has no more literals than d.  Each literal of c gets the list
    of its bindings onto d, and _agree picks one of each that agree (θ-
    subsumption as constraint satisfaction, Maloberti & Sebag 2004).
    Past the time.monotonic() deadline it raises DeadlineExceeded."""
    if len(c) > len(d):
        return False
    targets = {}    # sign and predicate -> argument tuples of d
    for s, b in d.literals:
        targets.setdefault((s, pred_key(b)), []).extend(_sides(b))
    lists = []
    for s, a in c.literals:
        pats = _sides(a)[0]
        lists.append(_bindings(pats, targets.get((s, pred_key(a)), ())))
        if not lists[-1]:
            return False
    return _agree(lists, deadline)


def _agree(lists, deadline) -> bool:
    """True if some binding of each list agrees with those of the others.
    Arc consistency drops each binding that gives a variable a value some
    other list does not allow, until nothing changes; then the search
    splits on the variable of two or more lists with the fewest values
    left, the first seen of those.  check_deadline runs every round."""
    while True:
        check_deadline(deadline, "clausal simplification")
        doms, uses = {}, {}    # variable -> values allowed, lists using it
        shrunk = False         # whether some list allows a value doms lacks
        for bs in lists:
            if not bs:
                return False
            for v in bs[0]:     # the bindings of a list bind one set
                ts = dict.fromkeys(b[v] for b in bs)
                if v in doms:
                    both = {t: None for t in doms[v] if t in ts}
                    shrunk |= len(both) < len(ts) or len(both) < len(doms[v])
                    doms[v], uses[v] = both, uses[v] + 1
                else:
                    doms[v], uses[v] = ts, 1
        if not shrunk:
            break
        lists = [[b for b in bs if all(t in doms[v] for v, t in b.items())]
                 for bs in lists]
    split = [v for v in doms if uses[v] > 1 and len(doms[v]) > 1]
    if not split:
        return True
    v = min(split, key=lambda v: len(doms[v]))
    return any(_agree([[b for b in bs if b.get(v, t) == t] for bs in lists],
                      deadline) for t in doms[v])


# ---------------------------------------------------------------------------
# Clausal simplification

def simplify_clausal(cf: ClausalForm, deadline=math.inf) -> ClausalForm:
    """Fixpoint of tautology/duplicate/subsumption deletion, equality
    resolution and unit subsumption resolution; every step preserves
    equivalence.  Past the time.monotonic() deadline it raises
    DeadlineExceeded.

    Each clause is normalised once, first (_simplify_clause): deleting
    literals from a normalised clause leaves it normalised, so the later
    rounds only resolve away literals and drop subsumed clauses."""
    layer = "clausal simplification"
    clauses = [c for c in map(_simplify_clause,
                              _checked(cf.clauses, deadline, layer))
               if c is not None]
    changed = True
    while changed:
        changed = False
        if any(len(c) == 0 for c in clauses):
            clauses = [Clause(())]
            break
        # unit subsumption resolution
        units = [c.literals[0] for c in clauses if len(c) == 1]
        out = []
        for c in _checked(clauses, deadline, layer):
            kept = tuple(lit for lit in c.literals if len(c) == 1 or not any(
                match_lit(u, lit_complement(lit), {}) for u in units))
            if len(kept) != len(c):
                changed = True
                c = Clause(kept)
            out.append(c)
        clauses = out
        # subsumption (incl. duplicates)
        kept = _drop_subsumed(clauses, deadline)
        changed |= len(kept) != len(clauses)
        clauses = kept
    return ClausalForm(clauses, dict(cf.skolems))


def _features(c: Clause) -> frozenset:
    """The features of c: (sign, pred_key) of each literal, and every
    function symbol, constants included.  A clause that subsumes c has no
    feature that c lacks: matching maps each literal onto one of the same
    sign and predicate and each pattern functor onto the same functor."""
    fs = {(s, pred_key(a)) for s, a in c.literals}
    fs.update(t.functor for t in clause_terms(c) if isinstance(t, Fn))
    return frozenset(fs)


def _drop_subsumed(clauses, deadline=math.inf):
    """The clauses that no other clause subsumes, in order; of clauses
    that subsume each other only the first is kept.

    Given-clause order: by length, then feature count, then index.  A
    clause that a kept clause subsumes is dropped; else it is kept and
    drops the kept clauses it subsumes (subsumes is transitive, so kept
    ones suffice).  subsumes(d, c) needs len(d) <= len(c) and _features(d)
    <= _features(c): c meets the kept clauses a set-trie files under
    subsets of its features.  A kept clause that c subsumes, but not c
    it, came earlier: it is as long as c, has no more features and all
    of c's, so c drops only clauses filed under its own feature set."""
    ids = {}    # feature -> int
    feats = [sorted(ids.setdefault(f, len(ids)) for f in _features(c))
             for c in clauses]
    trie, filed = {}, []    # the lists of the trie
    for i in sorted(range(len(clauses)),
                    key=lambda i: (len(clauses[i]), len(feats[i]))):
        check_deadline(deadline, "clausal simplification")
        c = clauses[i]
        if any(subsumes(clauses[j], c, deadline)
               for js in _subsets(trie, feats[i]) for j in js):
            continue
        same = _stored(trie, feats[i])
        if not same:
            filed.append(same)
        same[:] = [j for j in same if len(clauses[j]) < len(c)
                   or not subsumes(c, clauses[j], deadline)]
        same.append(i)
    return [clauses[i] for i in sorted(j for js in filed for j in js)]


def _simplify_clause(c: Clause):
    lits = list(c.literals)
    # equality resolution: x != t eliminates x
    changed = True
    while changed:
        changed = False
        for i, (s, a) in enumerate(lits):
            if s or not isinstance(a, Eq):
                continue
            for x, t in ((a.lhs, a.rhs), (a.rhs, a.lhs)):
                if isinstance(x, Var) and x.name not in free_vars_term(t):
                    mapping = {x.name: t}
                    lits = [lit_subst(l, mapping)
                            for j, l in enumerate(lits) if j != i]
                    changed = True
                    break
            if changed:
                break
    return _mk_clause(lits)


# ---------------------------------------------------------------------------
# Clause reformation (clauses back to connective form)

_NICE_VARS = ("x", "y", "z", "u", "v", "w")


def _nice_renaming(vs, taken):
    ren = {}
    pool = list(_NICE_VARS) + [f"x{i}" for i in range(1, 50)]
    pool = [p for p in pool if p not in taken]
    for i, v in enumerate(sorted(vs)):
        ren[v] = Var(pool[i]) if i < len(pool) else Var(v)
    return ren


def clause_to_formula(c: Clause, taken=(),
                      exclude=frozenset()) -> Formula:
    """Render a clause as an implication between positive parts,
    universally closed over its variables outside exclude."""
    negs = [a for s, a in c.literals if not s]
    poss = [a for s, a in c.literals if s]
    if negs and poss:
        f = Implies(conj(negs), disj(poss))
    elif poss:
        f = disj(poss)
    elif negs:
        f = neg(conj(negs))
    else:
        f = FALSE
    vs = clause_vars(c) - set(exclude)
    # the clause's own function symbols are taken too, so that the
    # quantifier cannot capture a constant when the text is read back
    functors = {t.functor for t in clause_terms(c) if isinstance(t, Fn)}
    ren = _nice_renaming(vs, set(taken) | set(exclude) | functors)
    f = subst_vars(f, ren)
    return forall(sorted({t.name for t in ren.values()},
                         key=lambda n: (_NICE_VARS.index(n)
                                        if n in _NICE_VARS else 99, n)), f)


# ---------------------------------------------------------------------------
# Un-Skolemization

def unskolemize(cf: ClausalForm, ctx: Context | None = None,
                deadline=math.inf) -> Formula:
    """Reconstruct a quantified formula without the Skolem symbols that
    cf.skolems records; other function symbols stay as they are.  The
    fresh variables avoid the names in ctx and every variable and
    function symbol of the clauses.

    The clauses that share Skolem symbols form a group, rebuilt under
    one prefix: ex over the group's Skolem constants, then all over the
    arguments of its one Skolem function f, then ex over f.  Raises
    UnskolemizeError when a group has two Skolem functions, or when a
    clause has f-terms other than one f(X1, ..., Xn) over distinct
    variables, and DeadlineExceeded past the time.monotonic()
    deadline."""
    if ctx is None:
        ctx = Context()
    ctx.reserve(t.name if isinstance(t, Var) else t.functor
                for c in cf.clauses for t in clause_terms(c))
    if any(len(c) == 0 for c in cf.clauses):
        return FALSE
    return conj(_unskolemize_group(cs, syms, cf.skolems, ctx, deadline)
                for syms, cs in _skolem_groups(cf.clauses, cf.skolems,
                                               deadline))


def _skolem_groups(clauses, skolems, deadline):
    """(Skolem symbols, clauses) for each group of clauses connected
    through shared Skolem symbols; a clause without one is a group of
    its own.  The groups come in the order of the last clause that
    joined each, and in a group the clause that joined comes before the
    groups it merged, in their order."""
    groups = {}   # index of the last clause that joined -> (syms, clauses)
    owner = {}    # Skolem symbol -> the key of its group
    for i, c in enumerate(_checked(clauses, deadline, "un-Skolemization")):
        syms = {t.functor for t in clause_terms(c)
                if isinstance(t, Fn) and t.functor in skolems}
        merged = [c]
        for k in sorted({owner[s] for s in syms if s in owner}):
            g_syms, g_clauses = groups.pop(k)
            syms |= g_syms
            merged += g_clauses
        groups[i] = (syms, merged)
        owner.update(dict.fromkeys(syms, i))
    return groups.values()


def _unskolemize_group(cs, syms, skolems, ctx, deadline):
    """ex ys all xs ex y cs, where ys stand for the Skolem constants of
    syms and y for f(xs), f its one Skolem function."""
    funs = [s for s in syms if skolems[s]]
    if len(funs) > 1:
        raise UnskolemizeError("two Skolem functions in one clause group")
    xs = [ctx.fresh_var("x") for s in funs for _ in range(skolems[s])]
    ys = {s: ctx.fresh_var("y") for s in sorted(syms)}
    bound = set(xs) | set(ys.values())
    consts = {Fn(s, ()): Var(y) for s, y in ys.items() if s not in funs}
    parts = []
    for c in _checked(cs, deadline, "un-Skolemization"):
        uses = {t for t in clause_terms(c)
                if isinstance(t, Fn) and t.functor in funs}
        if len(uses) > 1:
            raise UnskolemizeError(f"two argument lists of {funs[0]} in {c}")
        sub = dict(consts)
        for t in uses:
            if len({a for a in t.args if isinstance(a, Var)}) < len(xs):
                raise UnskolemizeError(f"{t} is not over distinct variables")
            sub[t] = Var(ys[t.functor])
            sub.update(zip(t.args, map(Var, xs)))
        c = Clause(tuple((s, map_atom(a, sub.get)) for s, a in c.literals))
        parts.append(clause_to_formula(c, taken=bound, exclude=bound))
    matrix = conj(parts)
    if funs:
        matrix = ForAll(tuple(xs), Exists((ys.pop(funs[0]),), matrix))
    return exists(ys.values(), matrix)


# ---------------------------------------------------------------------------
# Named pipelines

def pipeline_c6(f: Formula, deadline=math.inf) -> Formula:
    """CNF, clausal simplification, back to a quantified formula; falls
    back to the input if un-Skolemization is not invertible.  Past the
    time.monotonic() deadline it raises DeadlineExceeded."""
    if not is_first_order(f):
        raise PreprocessError("pipeline c6 requires a first-order formula")
    try:
        cf = simplify_clausal(clausify(f, None, deadline), deadline)
        return unskolemize(cf, None, deadline)
    except UnskolemizeError:
        return f


def pipeline_d6(f: Formula, deadline=math.inf) -> Formula:
    """DNF dual of c6 via simplification of the negation."""
    g = pipeline_c6(nnf(neg(f)), deadline)
    return nnf(neg(g))


PIPELINES = {"c6": pipeline_c6, "d6": pipeline_d6}
