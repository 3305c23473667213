"""Finite-model oracles, written apart from the package.

Only the formula classes of `pie.formula` are read here.  No evaluator,
prover, clausifier or model finder of the package is used, so agreement
between a package result and these checks is evidence about the package.

Every first-order check ranges over all interpretations with a domain of
at most `MAX_DOMAIN` elements.  Such a check refutes a wrong result; it
does not prove a right one correct in general.  Nullary predicates make
the domain size irrelevant, so on propositional formulas the checks are
full truth tables, and an existential predicate quantifier over a
nullary predicate is evaluated as its Shannon expansion F[p:=T] | F[p:=F].
"""

from __future__ import annotations

import itertools

from pie.formula import (
    And, Atom, Eq, Exists, Exists2, Falsity, ForAll, ForAll2, Iff,
    Implies, Not, Or, Truth, Var,
)

MAX_DOMAIN = 2
# largest number of interpretations one check may enumerate per domain size
MAX_INTERPRETATIONS = 20_000


class OracleError(Exception):
    """The formula lies outside what the oracles can evaluate."""


# ---------------------------------------------------------------------------
# Vocabulary and polarity

def _term_funs(t, bound, funs):
    if isinstance(t, Var):
        if t.name not in bound:
            raise OracleError(f"free variable {t.name}")
        return
    funs[t.functor] = len(t.args)
    for a in t.args:
        _term_funs(a, bound, funs)


def vocabulary(f):
    """(predicates, functions, polarities) of the free symbols of f:
    name -> arity for the first two, (name, arity) -> set of +1/-1 for
    the predicate occurrences.  Free variables raise OracleError."""
    preds, funs, pols = {}, {}, {}

    def walk(g, pol, bound, bound_preds):
        if isinstance(g, Atom):
            for a in g.args:
                _term_funs(a, bound, funs)
            if g.pred not in bound_preds:
                preds[g.pred] = len(g.args)
                signs = pols.setdefault((g.pred, len(g.args)), set())
                signs.update((1, -1) if pol == 0 else (pol,))
        elif isinstance(g, Eq):
            _term_funs(g.lhs, bound, funs)
            _term_funs(g.rhs, bound, funs)
        elif isinstance(g, (Truth, Falsity)):
            pass
        elif isinstance(g, Not):
            walk(g.arg, -pol, bound, bound_preds)
        elif isinstance(g, (And, Or)):
            for a in g.args:
                walk(a, pol, bound, bound_preds)
        elif isinstance(g, Implies):
            walk(g.lhs, -pol, bound, bound_preds)
            walk(g.rhs, pol, bound, bound_preds)
        elif isinstance(g, Iff):
            walk(g.lhs, 0, bound, bound_preds)
            walk(g.rhs, 0, bound, bound_preds)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, pol, bound | set(g.vars), bound_preds)
        elif isinstance(g, (ForAll2, Exists2)):
            names = {p.name for p in g.preds}
            walk(g.body, pol, bound, bound_preds | names)
        else:
            raise OracleError(f"cannot read {type(g).__name__}")

    walk(f, 1, frozenset(), frozenset())
    return preds, funs, pols


def _arity_in(f, name):
    """Arity with which predicate `name` occurs in f (0 if it does not)."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            if g.pred == name:
                return len(g.args)
        elif isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.extend(g.args)
        elif isinstance(g, (Implies, Iff)):
            stack.extend((g.lhs, g.rhs))
        elif isinstance(g, (ForAll, Exists, ForAll2, Exists2)):
            stack.append(g.body)
    return 0


# ---------------------------------------------------------------------------
# Evaluation: formulas are compiled to closures over (interp, env)

class Interp:
    def __init__(self, dom, preds, funs):
        self.dom = dom
        self.size = len(dom)
        self.preds = preds      # name -> frozenset of argument tuples
        self.funs = funs        # name -> {argument tuple: element}


def _compile_term(t):
    if isinstance(t, Var):
        name = t.name
        return lambda i, env: env[name]
    name = t.functor
    if not t.args:
        return lambda i, env: i.funs[name][()]
    args = [_compile_term(a) for a in t.args]
    return lambda i, env: i.funs[name][tuple(a(i, env) for a in args)]


def _subsets(keys):
    return [frozenset(k for k, bit in zip(keys, bits) if bit)
            for bits in itertools.product((False, True), repeat=len(keys))]


def compile_formula(f):
    """A function (interp, env) -> bool evaluating f."""
    if isinstance(f, Truth):
        return lambda i, env: True
    if isinstance(f, Falsity):
        return lambda i, env: False
    if isinstance(f, Atom):
        name = f.pred
        args = [_compile_term(a) for a in f.args]
        return lambda i, env: tuple(a(i, env) for a in args) in i.preds[name]
    if isinstance(f, Eq):
        lhs, rhs = _compile_term(f.lhs), _compile_term(f.rhs)
        return lambda i, env: lhs(i, env) == rhs(i, env)
    if isinstance(f, Not):
        arg = compile_formula(f.arg)
        return lambda i, env: not arg(i, env)
    if isinstance(f, And):
        parts = [compile_formula(a) for a in f.args]
        return lambda i, env: all(p(i, env) for p in parts)
    if isinstance(f, Or):
        parts = [compile_formula(a) for a in f.args]
        return lambda i, env: any(p(i, env) for p in parts)
    if isinstance(f, Implies):
        lhs, rhs = compile_formula(f.lhs), compile_formula(f.rhs)
        return lambda i, env: (not lhs(i, env)) or rhs(i, env)
    if isinstance(f, Iff):
        lhs, rhs = compile_formula(f.lhs), compile_formula(f.rhs)
        return lambda i, env: lhs(i, env) == rhs(i, env)
    if isinstance(f, (ForAll, Exists)):
        body = compile_formula(f.body)
        names = f.vars
        test = all if isinstance(f, ForAll) else any

        def quant(i, env):
            return test(body(i, {**env, **dict(zip(names, vals))})
                        for vals in itertools.product(i.dom,
                                                      repeat=len(names)))
        return quant
    if isinstance(f, (ForAll2, Exists2)):
        body = compile_formula(f.body)
        specs = [(p.name, p.arity if p.arity is not None
                  else _arity_in(f.body, p.name)) for p in f.preds]
        test = all if isinstance(f, ForAll2) else any

        def quant2(i, env):
            spaces = [_subsets(list(itertools.product(i.dom, repeat=ar)))
                      for _, ar in specs]

            def value(exts):
                preds = dict(i.preds)
                for (name, _), ext in zip(specs, exts):
                    preds[name] = ext
                return body(Interp(i.dom, preds, i.funs), env)
            return test(value(exts) for exts in itertools.product(*spaces))
        return quant2
    raise OracleError(f"cannot evaluate {type(f).__name__}")


def _spaces(preds, funs, dom):
    """Per symbol, the list of its possible interpretations over dom."""
    spaces = []
    for name in sorted(preds):
        spaces.append(_subsets(list(itertools.product(dom,
                                                      repeat=preds[name]))))
    for name in sorted(funs):
        keys = list(itertools.product(dom, repeat=funs[name]))
        spaces.append([dict(zip(keys, vals))
                       for vals in itertools.product(dom, repeat=len(keys))])
    return spaces


def count_interpretations(preds, funs, size):
    n = 1
    for ar in preds.values():
        n *= 2 ** (size ** ar)
    for ar in funs.values():
        n *= size ** (size ** ar)
    return n


def interpretations(preds, funs, size):
    """Every interpretation of the given symbols over {0..size-1}."""
    count = count_interpretations(preds, funs, size)
    if count > MAX_INTERPRETATIONS:
        raise OracleError(f"{count} interpretations of size {size}")
    dom = range(size)
    pnames, fnames = sorted(preds), sorted(funs)
    for choice in itertools.product(*_spaces(preds, funs, dom)):
        yield Interp(dom, dict(zip(pnames, choice)),
                     dict(zip(fnames, choice[len(pnames):])))


def _joint_vocabulary(*fs):
    preds, funs = {}, {}
    for f in fs:
        p, fn, _ = vocabulary(f)
        for name, ar in p.items():
            if preds.setdefault(name, ar) != ar:
                raise OracleError(f"predicate {name} with two arities")
        for name, ar in fn.items():
            if funs.setdefault(name, ar) != ar:
                raise OracleError(f"function {name} with two arities")
    return preds, funs


def find_counterexample(test, *fs, max_size=MAX_DOMAIN, partial=False):
    """First interpretation (size <= max_size) of the joint vocabulary of
    fs on which test(interp, *compiled) is false, or None.  With partial,
    sizes with more than MAX_INTERPRETATIONS interpretations are skipped
    instead of raising OracleError."""
    preds, funs = _joint_vocabulary(*fs)
    compiled = [compile_formula(f) for f in fs]
    for size in range(1, max_size + 1):
        if partial and count_interpretations(preds, funs, size) \
                > MAX_INTERPRETATIONS:
            break
        for interp in interpretations(preds, funs, size):
            if not test(interp, *compiled):
                return interp
    return None


def _valid(i, f):
    return f(i, {})


def _same(i, f, g):
    return f(i, {}) == g(i, {})


def _entailed(i, f, g):
    return (not f(i, {})) or g(i, {})


def countermodel(f, max_size=MAX_DOMAIN, partial=False):
    return find_counterexample(_valid, f, max_size=max_size,
                               partial=partial)


def equivalent(f, g, max_size=MAX_DOMAIN):
    return find_counterexample(_same, f, g, max_size=max_size) is None


def entails(f, g, max_size=MAX_DOMAIN):
    return find_counterexample(_entailed, f, g, max_size=max_size) is None


def has_predicate_quantifier(f):
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (ForAll2, Exists2)):
            return True
        if isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.extend(g.args)
        elif isinstance(g, (Implies, Iff)):
            stack.extend((g.lhs, g.rhs))
        elif isinstance(g, (ForAll, Exists)):
            stack.append(g.body)
    return False


# ---------------------------------------------------------------------------
# Checks of package results.  Each returns None when the result passes,
# else a one-line reason.

def check_countermodel(f, model):
    """model is a pie Model (domain 1..size); it must falsify f."""
    preds, funs, _ = vocabulary(f)
    try:
        interp = Interp(range(1, model.size + 1),
                        {n: frozenset(model.predicates[(n, ar)])
                         for n, ar in preds.items()},
                        {n: model.functions[(n, ar)]
                         for n, ar in funs.items()})
        value = compile_formula(f)(interp, {})
    except (KeyError, TypeError) as e:
        return f"model does not interpret {e}"
    return "model satisfies the formula" if value else None


def check_verdict(f, verdict):
    """A definite validity verdict must agree with the small domains.  A
    'valid' verdict is checked on every domain size whose interpretations
    are few enough to enumerate (always size 1)."""
    cm = countermodel(f, partial=verdict == "valid")
    if verdict == "valid" and cm is not None:
        return f"'valid' but falsified on a domain of size {cm.size}"
    if verdict == "invalid" and cm is None:
        return "'invalid' but no countermodel of size <= 2"
    return None


def check_elimination(original, result, eliminated):
    """result must be free of the eliminated predicates and equivalent
    to the second-order original."""
    if has_predicate_quantifier(result):
        return "result keeps a predicate quantifier"
    left = set(vocabulary(result)[0]) & set(eliminated)
    if left:
        return f"eliminated predicates {sorted(left)} still occur"
    if not equivalent(original, result):
        return "result is not equivalent to the input"
    return None


def check_interpolant(left, right, h):
    """Craig-Lyndon conditions: left |= h |= right, and every predicate of
    h occurs in both sides with each of its polarities in h, and every
    function symbol of h occurs in both sides."""
    lp, lf, lpol = vocabulary(left)
    rp, rf, rpol = vocabulary(right)
    hp, hf, hpol = vocabulary(h)
    for key, signs in hpol.items():
        for s in signs:
            if s not in lpol.get(key, ()) or s not in rpol.get(key, ()):
                sign = "positive" if s > 0 else "negative"
                return f"{sign} {key[0]}/{key[1]} is not shared"
    for name in hf:
        if name not in lf or name not in rf:
            return f"function symbol {name} is not shared"
    if not entails(left, h):
        return "left side does not entail the interpolant"
    if not entails(h, right):
        return "interpolant does not entail the right side"
    return None
