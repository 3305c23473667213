"""Independent oracles used across the test suite.

The propositional evaluator and truth-table machinery here deliberately
avoid the package's own clausifier, prover, and model evaluator so that
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools

from pie.formula import (
    And, Atom, Eq, Falsity, Fn, Iff, Implies, Not, Or, Truth, Var,
)
from pie.prover import ProverConfig, prove_implication
from pie.syntax import parse_formula


# ---------------------------------------------------------------------------
# Propositional truth tables (independent evaluator)

def prop_atoms(f):
    """Nullary atom names of a propositional formula, sorted."""
    out = set()

    def go(g):
        if isinstance(g, Atom):
            if g.args:
                raise ValueError("not propositional")
            out.add(g.pred)
        elif isinstance(g, (Truth, Falsity)):
            pass
        elif isinstance(g, Not):
            go(g.arg)
        elif isinstance(g, (And, Or)):
            for a in g.args:
                go(a)
        elif isinstance(g, Implies):
            go(g.lhs)
            go(g.rhs)
        elif isinstance(g, Iff):
            go(g.lhs)
            go(g.rhs)
        else:
            raise ValueError(f"not propositional: {g!r}")

    go(f)
    return sorted(out)


def eval_prop(f, env):
    if isinstance(f, Atom):
        return env[f.pred]
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsity):
        return False
    if isinstance(f, Not):
        return not eval_prop(f.arg, env)
    if isinstance(f, And):
        return all(eval_prop(a, env) for a in f.args)
    if isinstance(f, Or):
        return any(eval_prop(a, env) for a in f.args)
    if isinstance(f, Implies):
        return (not eval_prop(f.lhs, env)) or eval_prop(f.rhs, env)
    if isinstance(f, Iff):
        return eval_prop(f.lhs, env) == eval_prop(f.rhs, env)
    raise ValueError(f"not propositional: {f!r}")


def truth_table(f, atoms):
    """Tuple of truth values over all assignments to atoms (sorted order)."""
    rows = []
    for bits in itertools.product([False, True], repeat=len(atoms)):
        rows.append(eval_prop(f, dict(zip(atoms, bits))))
    return tuple(rows)


def exists_table(p, f, atoms):
    """Truth table of ∃p f over atoms, which leave out p, by Shannon
    expansion: a row is true if f is true there with p true or false."""
    rows = []
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        rows.append(eval_prop(f, {**env, p: True})
                    or eval_prop(f, {**env, p: False}))
    return tuple(rows)


def prop_equivalent(f, g):
    atoms = sorted(set(prop_atoms(f)) | set(prop_atoms(g)))
    return truth_table(f, atoms) == truth_table(g, atoms)


def prop_entails(f, g):
    atoms = sorted(set(prop_atoms(f)) | set(prop_atoms(g)))
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        if eval_prop(f, env) and not eval_prop(g, env):
            return False
    return True


def eval_clauses(clauses, env):
    """Evaluate a propositional clause list (CNF) under env."""
    for c in clauses:
        if not any(env[a.pred] if s else not env[a.pred]
                   for s, a in c.literals):
            return False
    return True


# ---------------------------------------------------------------------------
# Propositional corpus

def prop_corpus(min_size=1000):
    """Deterministic corpus of propositional formulas over at most three
    nullary atoms, grown breadth-first from small pieces."""
    leaves = [Atom("p", ()), Atom("q", ()), Atom("r", ()),
              Truth(), Falsity()]
    level1 = list(leaves)
    level1 += [Not(a) for a in leaves]
    for a, b in itertools.product(leaves, repeat=2):
        level1 += [And((a, b)), Or((a, b)), Implies(a, b)]
    out = list(level1)
    for a, b in itertools.product(level1, repeat=2):
        out += [And((a, b)), Or((a, b)), Implies(a, b), Iff(a, b)]
        if len(out) >= 4 * min_size:
            break
    return out[:max(min_size, 1200)]


# ---------------------------------------------------------------------------
# θ-subsumption by brute force (independent of pie.preprocess)

def _match(pat, tgt, theta):
    """Extend theta so that the term pat maps onto the term tgt."""
    if isinstance(pat, Var):
        return theta.setdefault(pat.name, tgt) == tgt
    return (isinstance(tgt, Fn) and pat.functor == tgt.functor
            and len(pat.args) == len(tgt.args)
            and all(_match(p, t, theta) for p, t in zip(pat.args, tgt.args)))


def _maps(lit, tgt, flip, theta):
    """Extend theta so that literal lit maps onto literal tgt; flip swaps
    the sides of an equation lit."""
    (s, a), (ts, b) = lit, tgt
    if s != ts or isinstance(a, Eq) != isinstance(b, Eq):
        return False
    if isinstance(a, Eq):
        pats = (a.rhs, a.lhs) if flip else (a.lhs, a.rhs)
        return _match(pats[0], b.lhs, theta) and _match(pats[1], b.rhs, theta)
    return (a.pred == b.pred and len(a.args) == len(b.args)
            and all(_match(p, t, theta) for p, t in zip(a.args, b.args)))


def theta_subsumes(c, d):
    """True if c has no more literals than d and one substitution maps
    every literal of c onto a literal of d.  Tries every map from the
    literals of c to those of d, with each orientation of each equation
    of c."""
    if len(c.literals) > len(d.literals):
        return False
    flips = [(False, True) if isinstance(a, Eq) else (False,)
             for _, a in c.literals]
    for targets in itertools.product(d.literals, repeat=len(c.literals)):
        for flip in itertools.product(*flips):
            theta = {}
            if all(_maps(lit, tgt, f, theta)
                   for lit, tgt, f in zip(c.literals, targets, flip)):
                return True
    return False


# ---------------------------------------------------------------------------
# First-order equivalence via the prover (two entailment directions)

def fo_equivalent(f, g, timeout_ms=5000):
    cfg = ProverConfig(timeout_ms=timeout_ms)
    return (prove_implication(f, g, cfg).proved
            and prove_implication(g, f, cfg).proved)


def fo(src):
    return parse_formula(src)
