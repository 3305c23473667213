"""Core term/formula data model and pure structural operations.

Formulas and terms are immutable; every operation returns a new value.
Fresh-symbol generation goes through an explicit Context object so that
concurrent jobs can each own their own counter.
"""

from __future__ import annotations

from reprlib import recursive_repr


class FormulaError(Exception):
    pass


# ---------------------------------------------------------------------------
# Records

class Record:
    """Base of the package's record classes.

    A record's fields are the names in its class's __slots__, in
    constructor order, and its own __init__ sets them.  It prints as
    Name(field=value, ...), equals a record of its own class with equal
    fields, and is unhashable.  Terms, atoms, equations, symbol
    occurrences and clauses, hashed and compared on every hot path,
    write out their own __eq__ and __hash__: on a nested atom, these
    loops over the fields take 4 to 7 times as long.  Atoms and
    equations, which _literal_order sorts by repr, also write out their
    own __repr__."""
    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields cannot be assigned or deleted once its
    __init__ has set them with object.__setattr__.  It hashes as the
    tuple of its fields."""
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


_set = object.__setattr__


# ---------------------------------------------------------------------------
# Terms

class Term(Frozen):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"Var({self.name})"


class Fn(Term):
    """Compound term; constants are zero-arity compounds."""
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple = ()):
        if not functor:
            raise FormulaError("empty functor name")
        _set(self, "functor", functor)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.functor, self.args) == (other.functor, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.functor, self.args))

    def __repr__(self):
        if not self.args:
            return f"Fn({self.functor})"
        return f"Fn({self.functor}, {list(self.args)})"


# ---------------------------------------------------------------------------
# Formulas

class Formula(Frozen):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()):
        _set(self, "pred", pred)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.pred, self.args) == (other.pred, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.pred, self.args))

    def __repr__(self):
        return f"Atom(pred={self.pred!r}, args={self.args!r})"


class Eq(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lhs, self.rhs) == (other.lhs, other.rhs)
        return NotImplemented

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __repr__(self):
        return f"Eq(lhs={self.lhs!r}, rhs={self.rhs!r})"


class Truth(Formula):
    __slots__ = ()


class Falsity(Formula):
    __slots__ = ()


TRUE = Truth()
FALSE = Falsity()


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        _set(self, "arg", arg)


class And(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        _set(self, "args", args)


class Or(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        _set(self, "args", args)


class Implies(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class Iff(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class PredSpec(Frozen):
    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int | None = None):
        _set(self, "name", name)
        _set(self, "arity", arity)


class ForAll(Formula):
    __slots__ = ("vars", "body")

    def __init__(self, vars: tuple, body: Formula):
        _set(self, "vars", vars)  # of str
        _set(self, "body", body)


class Exists(Formula):
    __slots__ = ("vars", "body")

    def __init__(self, vars: tuple, body: Formula):
        _set(self, "vars", vars)
        _set(self, "body", body)


class ForAll2(Formula):
    __slots__ = ("preds", "body")

    def __init__(self, preds: tuple, body: Formula):
        _set(self, "preds", preds)  # of PredSpec
        _set(self, "body", body)


class Exists2(Formula):
    __slots__ = ("preds", "body")

    def __init__(self, preds: tuple, body: Formula):
        _set(self, "preds", preds)
        _set(self, "body", body)


class Lambda(Formula):
    __slots__ = ("params", "body")

    def __init__(self, params: tuple, body: Formula):
        _set(self, "params", params)  # of str
        _set(self, "body", body)


class MacroCall(Formula):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        _set(self, "name", name)
        _set(self, "args", args)  # of Formula | Term | tuple


class LambdaApp(Formula):
    __slots__ = ("head", "args")

    def __init__(self, head: Formula, args: tuple):
        _set(self, "head", head)  # Lambda
        _set(self, "args", args)  # of Term


def conj(items) -> Formula:
    """N-ary conjunction, flattened, with truth-constant absorption."""
    out = []
    for f in items:
        if isinstance(f, And):
            out.extend(f.args)
        elif isinstance(f, Falsity):
            return FALSE
        elif isinstance(f, Truth):
            continue
        else:
            out.append(f)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def disj(items) -> Formula:
    out = []
    for f in items:
        if isinstance(f, Or):
            out.extend(f.args)
        elif isinstance(f, Truth):
            return TRUE
        elif isinstance(f, Falsity):
            continue
        else:
            out.append(f)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


def neg(f: Formula) -> Formula:
    if isinstance(f, Not):
        return f.arg
    if isinstance(f, Truth):
        return FALSE
    if isinstance(f, Falsity):
        return TRUE
    return Not(f)


def forall(vars, body) -> Formula:
    vars = tuple(vars)
    return ForAll(vars, body) if vars else body


def exists(vars, body) -> Formula:
    vars = tuple(vars)
    return Exists(vars, body) if vars else body


# ---------------------------------------------------------------------------
# Traversal

# exact node types, tested by hashing: children and map_children run once
# per node of every walk
_LEAVES = frozenset((Atom, Eq, Truth, Falsity, MacroCall))
_BINDERS = frozenset((ForAll, Exists, ForAll2, Exists2, Lambda))


def children(f: Formula) -> tuple:
    """The formula-valued parts of f in field order.  Terms, lambda
    application arguments and macro-call arguments are not children."""
    t = type(f)
    if t in _LEAVES:
        return ()
    if t is And or t is Or:
        return f.args
    if t in _BINDERS:
        return (f.body,)
    if t is Not:
        return (f.arg,)
    if t is Implies or t is Iff:
        return (f.lhs, f.rhs)
    if t is LambdaApp:
        return (f.head,)
    raise FormulaError(f"unknown formula node {f!r}")


def map_children(f: Formula, fn) -> Formula:
    """f with fn applied to each child (see children); nodes without
    children come back as they are, And/Or are not flattened."""
    t = type(f)
    if t in _LEAVES:
        return f
    if t is And or t is Or:
        return t(tuple(map(fn, f.args)))
    if t is ForAll or t is Exists:
        return t(f.vars, fn(f.body))
    if t is Not:
        return Not(fn(f.arg))
    if t is Implies or t is Iff:
        return t(fn(f.lhs), fn(f.rhs))
    if t is ForAll2 or t is Exists2:
        return t(f.preds, fn(f.body))
    if t is Lambda:
        return Lambda(f.params, fn(f.body))
    if t is LambdaApp:
        return LambdaApp(fn(f.head), f.args)
    raise FormulaError(f"unknown formula node {f!r}")


def subformulas(f: Formula):
    """f and every formula below it (through children), in pre-order."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        kids = children(g)
        if kids:
            stack.extend(reversed(kids))


def subterms(*terms):
    """Each of the terms and every term below it, in pre-order."""
    stack = list(reversed(terms))
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Fn) and s.args:
            stack.extend(reversed(s.args))


def map_term(t: Term, leaf) -> Term:
    """Rebuild t top-down: leaf is tried first on each subterm and
    replaces it unless it returns None.  Variables and constants that
    leaf leaves alone come back unrebuilt."""
    out = leaf(t)
    if out is not None:
        return out
    if isinstance(t, Var) or not t.args:
        return t
    return Fn(t.functor, tuple(map_term(a, leaf) for a in t.args))


def atom_terms(a) -> tuple:
    """The argument terms of an Atom or Eq literal."""
    return (a.lhs, a.rhs) if isinstance(a, Eq) else a.args


def map_atom(a, leaf):
    """An Atom or Eq with map_term(·, leaf) applied to its terms."""
    if isinstance(a, Eq):
        return Eq(map_term(a.lhs, leaf), map_term(a.rhs, leaf))
    return Atom(a.pred, tuple(map_term(t, leaf) for t in a.args))


# ---------------------------------------------------------------------------
# Fresh-symbol context

def fresh_name(base, taken):
    """base, or the first of base1, base2, ... that is not in taken."""
    name, i = base, 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    return name


class Context:
    """Monotone fresh-name source plus the last-result slot.

    Generated names skip anything registered as in use, so fresh symbols
    never collide with the vocabulary of formulas under processing.
    """

    def __init__(self):
        self.used = set()
        self.last_result = None

    def reserve(self, names):
        self.used.update(names)

    def reserve_formula(self, f):
        self.used.update(all_names(f))

    def _fresh(self, base):
        name = fresh_name(base, self.used)
        self.used.add(name)
        return name

    def fresh_pred(self, base="q"):
        return self._fresh(base)

    def fresh_var(self, base="x"):
        return self._fresh(base)

    def fresh_skolem(self):
        i = 1
        while f"sk{i}" in self.used:
            i += 1
        name = f"sk{i}"
        self.used.add(name)
        return name


# ---------------------------------------------------------------------------
# Vocabulary

class Occ(Frozen):
    """A free symbol occurrence summary with merged polarity."""
    __slots__ = ("name", "kind", "arity", "polarity")

    def __init__(self, name: str, kind: str, arity: int, polarity: str):
        _set(self, "name", name)
        _set(self, "kind", kind)            # 'predicate' | 'function'
        _set(self, "arity", arity)
        _set(self, "polarity", polarity)    # 'pos' | 'neg' | 'both'

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.name, self.kind, self.arity, self.polarity)
                    == (other.name, other.kind, other.arity, other.polarity))
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.kind, self.arity, self.polarity))


def _merge_pol(a, b):
    return a if a == b else "both"


def _pol_name(p):
    return "pos" if p > 0 else ("neg" if p < 0 else "both")


def free_symbols(f: Formula) -> frozenset:
    """Every predicate and function/constant symbol not bound by a
    quantifier or lambda in f, with predicate polarity under NNF
    conventions."""
    acc = {}

    def note(name, kind, arity, pol):
        key = (name, kind, arity)
        p = _pol_name(pol) if kind == "predicate" else "both"
        if key in acc:
            acc[key] = _merge_pol(acc[key], p)
        else:
            acc[key] = p

    def walk_term(t, bound_vars):
        if isinstance(t, Var):
            if t.name not in bound_vars:
                note(t.name, "function", 0, 0)
        else:
            if t.functor not in bound_vars or t.args:
                note(t.functor, "function", len(t.args), 0)
            for a in t.args:
                walk_term(a, bound_vars)

    def walk(g, pol, bound_vars, bound_preds):
        t = type(g)
        if t is Atom:
            if g.pred not in bound_preds:
                note(g.pred, "predicate", len(g.args), pol)
            for a in g.args:
                walk_term(a, bound_vars)
        elif t is Eq:
            walk_term(g.lhs, bound_vars)
            walk_term(g.rhs, bound_vars)
        elif t is Not:
            walk(g.arg, -pol, bound_vars, bound_preds)
        elif t is Implies:
            walk(g.lhs, -pol, bound_vars, bound_preds)
            walk(g.rhs, pol, bound_vars, bound_preds)
        elif t is Iff:
            walk(g.lhs, 0, bound_vars, bound_preds)
            walk(g.rhs, 0, bound_vars, bound_preds)
        elif t is ForAll or t is Exists or t is Lambda:
            names = g.params if t is Lambda else g.vars
            walk(g.body, pol, bound_vars | set(names), bound_preds)
        elif t is ForAll2 or t is Exists2:
            walk(g.body, pol, bound_vars,
                 bound_preds | {p.name for p in g.preds})
        elif t is LambdaApp:
            walk(beta_reduce(g), pol, bound_vars, bound_preds)
        elif t is MacroCall:
            raise FormulaError("free_symbols on unexpanded macro call")
        else:   # And, Or, Truth, Falsity
            for a in children(g):
                walk(a, pol, bound_vars, bound_preds)

    walk(f, 1, frozenset(), frozenset())
    return frozenset(Occ(n, k, a, p) for (n, k, a), p in acc.items())


def all_names(f: Formula) -> set:
    """Every symbol name occurring anywhere in f, bound or free."""
    names = set()
    terms = []

    def walk(g):
        t = type(g)
        if t is Atom:
            names.add(g.pred)
            terms.extend(g.args)
        elif t is Eq:
            terms.extend((g.lhs, g.rhs))
        elif t is ForAll or t is Exists:
            names.update(g.vars)
        elif t is ForAll2 or t is Exists2:
            names.update(p.name for p in g.preds)
        elif t is Lambda:
            names.update(g.params)
        elif t is LambdaApp:
            terms.extend(g.args)
        elif t is MacroCall:
            names.add(g.name)
            for a in g.args:
                for x in a if isinstance(a, tuple) else (a,):
                    if isinstance(x, Formula):
                        walk(x)
                    elif isinstance(x, Term):
                        terms.append(x)
        for c in children(g):
            walk(c)

    walk(f)
    names.update(s.name if isinstance(s, Var) else s.functor
                 for s in subterms(*terms))
    return names


def free_vars_term(t: Term) -> set:
    # a direct recursion, not subterms: free_vars calls this on every
    # argument of every atom, and most are single variables or constants
    if isinstance(t, Var):
        return {t.name}
    out = set()
    for a in t.args:
        out |= free_vars_term(a)
    return out


def free_vars(f: Formula) -> set:
    """Names of free first-order variables (Var nodes only)."""
    t = type(f)
    if t is ForAll or t is Exists:
        return free_vars(f.body) - set(f.vars)
    if t is Lambda:
        return free_vars(f.body) - set(f.params)
    if t is MacroCall:
        raise FormulaError(f"unknown formula node {f!r}")
    out = set()
    if t is Atom or t is Eq or t is LambdaApp:
        for a in (f.lhs, f.rhs) if t is Eq else f.args:
            out |= free_vars_term(a)
    for g in children(f):
        out |= free_vars(g)
    return out


# ---------------------------------------------------------------------------
# Substitution

def subst_in_term(t: Term, mapping: dict) -> Term:
    return map_term(
        t, lambda s: mapping.get(s.name) if isinstance(s, Var) else None)


def subst_vars(f: Formula, mapping: dict) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    if not mapping:
        return f
    if isinstance(f, (Atom, Eq)):
        return map_atom(
            f, lambda s: mapping.get(s.name) if isinstance(s, Var) else None)
    if isinstance(f, (ForAll, Exists, Lambda)):
        names = f.params if isinstance(f, Lambda) else f.vars
        inner = {k: v for k, v in mapping.items() if k not in names}
        if not inner:
            return f
        # rename bound variables that would capture free vars of the images
        img_vars = set()
        for v in inner.values():
            img_vars |= free_vars_term(v)
        ren = {}
        new_names = []
        for n in names:
            if n in img_vars:
                fresh = fresh_name(n, img_vars | set(names) | set(inner)
                                   | all_names(f.body))
                ren[n] = Var(fresh)
                new_names.append(fresh)
            else:
                new_names.append(n)
        body = subst_vars(f.body, ren) if ren else f.body
        return type(f)(tuple(new_names), subst_vars(body, inner))
    if isinstance(f, LambdaApp):
        return LambdaApp(subst_vars(f.head, mapping),
                         tuple(subst_in_term(a, mapping) for a in f.args))
    if isinstance(f, MacroCall):
        raise FormulaError(f"cannot substitute in {f!r}")
    return map_children(f, lambda g: subst_vars(g, mapping))


def beta_reduce(app: LambdaApp) -> Formula:
    """Capture-avoiding beta reduction of a lambda application."""
    head = app.head
    if not isinstance(head, Lambda):
        raise FormulaError(f"lambda application head is not a lambda: {head!r}")
    if len(head.params) != len(app.args):
        raise FormulaError(
            f"lambda arity mismatch: {len(head.params)} params, "
            f"{len(app.args)} args")
    return subst_vars(head.body, dict(zip(head.params, app.args)))


def apply_lambda(lam: Lambda, args) -> Formula:
    return beta_reduce(LambdaApp(lam, tuple(args)))


def substitute_predicate(f: Formula, p: PredSpec, replacement) -> Formula:
    """Replace every free occurrence of predicate p.

    replacement is a fresh symbol name (str) or a Lambda of matching
    arity; in the Lambda case each atom p(ts) becomes the beta-reduced
    body.
    """
    if isinstance(replacement, Lambda) and p.arity is not None \
            and len(replacement.params) != p.arity:
        raise FormulaError(
            f"arity mismatch replacing {p.name}/{p.arity} by lambda of "
            f"arity {len(replacement.params)}")

    def walk(g):
        if isinstance(g, Atom) and g.pred == p.name:
            if p.arity is not None and len(g.args) != p.arity:
                raise FormulaError(
                    f"arity mismatch: {p.name} used with {len(g.args)} "
                    f"args, expected {p.arity}")
            if isinstance(replacement, Lambda):
                return apply_lambda(replacement, g.args)
            return Atom(replacement, g.args)
        if isinstance(g, (ForAll2, Exists2)) \
                and any(q.name == p.name for q in g.preds):
            return g
        if isinstance(g, LambdaApp):
            return walk(beta_reduce(g))
        if isinstance(g, MacroCall):
            raise FormulaError(f"cannot substitute predicate in {f!r}")
        return map_children(g, walk)

    return walk(f)


# ---------------------------------------------------------------------------
# Negation normal form

_DUAL = {ForAll: Exists, Exists: ForAll, ForAll2: Exists2, Exists2: ForAll2}


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms and equalities, no
    -> or <->.  And and Or are rebuilt by conj and disj, so they come out
    flattened and without Truth/Falsity arguments.  Lambda applications
    are beta-reduced on the way; a macro call or a bare lambda raises
    FormulaError."""
    return _nnf(f, True)


def _nnf(g, pos):
    """nnf(g) if pos, else nnf(~g)."""
    t = type(g)
    if t is Atom or t is Eq:
        return g if pos else Not(g)
    if t is Not:
        return _nnf(g.arg, not pos)
    if t is And or t is Or:
        join = conj if (t is And) == pos else disj
        return join(_nnf(a, pos) for a in g.args)
    if t in _DUAL:
        head = g.preds if t is ForAll2 or t is Exists2 else g.vars
        return (t if pos else _DUAL[t])(head, _nnf(g.body, pos))
    if t is Implies:
        join = disj if pos else conj
        return join([_nnf(g.lhs, not pos), _nnf(g.rhs, pos)])
    if t is Iff:
        lhs, rhs = g.lhs, g.rhs
        if pos:
            return conj([disj([_nnf(lhs, False), _nnf(rhs, True)]),
                         disj([_nnf(rhs, False), _nnf(lhs, True)])])
        return conj([disj([_nnf(lhs, True), _nnf(rhs, True)]),
                     disj([_nnf(lhs, False), _nnf(rhs, False)])])
    if t is Truth or t is Falsity:
        return g if pos else neg(g)
    if t is LambdaApp:
        return _nnf(beta_reduce(g), pos)
    if t is MacroCall:
        raise FormulaError("nnf on unexpanded macro call")
    raise FormulaError(f"nnf: unexpected node {g!r}")


# ---------------------------------------------------------------------------
# Misc structural helpers

def is_first_order(f: Formula) -> bool:
    if isinstance(f, (ForAll2, Exists2, Lambda, LambdaApp, MacroCall)):
        return False
    return all(map(is_first_order, children(f)))


def predicate_arities(f: Formula) -> dict:
    """Map predicate name -> set of arities used in f (free or bound).
    Macro-call arguments are not searched."""
    out = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            out.setdefault(g.pred, set()).add(len(g.args))
    return out
