"""Craig-Lyndon interpolation over side-labeled clausal tableaux.

Interpolants are extracted bottom-up from a closed tableau whose
clauses carry left/right labels, then ground symbols private to one
side are generalized to quantified variables.
"""

from __future__ import annotations

from .formula import (
    Atom, Context, Eq, Exists, FALSE, Fn, ForAll, Formula, Implies, Not,
    Record, TRUE, Var, atom_terms, conj, disj, free_symbols, is_first_order,
    map_atom, map_children, neg, subformulas, subterms,
)
from .preprocess import budget, clause_terms
from .prover import (
    Model, ProofResult, ProverConfig, ProverError, TableauNode, _refute,
    check_tableau, find_countermodel, model_share, reduce_so_universal,
)


class InterpolationError(Exception):
    pass


class InterpolationTask(Record):
    __slots__ = ("left", "right", "simp_sides", "dot_path")

    def __init__(self, left: Formula, right: Formula, simp_sides: bool = True,
                 dot_path: str | None = None):
        self.left = left
        self.right = right
        self.simp_sides = simp_sides
        self.dot_path = dot_path


class Interpolant(Record):
    __slots__ = ("formula", "proof", "model", "status")

    def __init__(self, formula: Formula, proof: ProofResult | None = None,
                 model: Model | None = None, status: str = "interpolant"):
        self.formula = formula
        self.proof = proof
        self.model = model
        self.status = status  # 'interpolant' | 'not_valid' | 'failed'


# ---------------------------------------------------------------------------
# Extraction

def _lit_formula(lit) -> Formula:
    s, a = lit
    return a if s else Not(a)


def extract_from_tableau(root: TableauNode) -> Formula:
    """Ground interpolant of the clause-level task from a closed,
    side-labeled tableau."""

    def go(node):
        if not node.children:
            anc = node.closed_by
            if anc is None:
                raise InterpolationError("open leaf in tableau")
            ls, ps = node.side, anc.side
            if ls == "left" and ps == "left":
                return FALSE
            if ls == "right" and ps == "right":
                return TRUE
            if ls == "left" and ps == "right":
                return _lit_formula(node.literal)
            return _lit_formula((not node.literal[0], node.literal[1]))
        side = node.children[0].side
        parts = [go(c) for c in node.children]
        return disj(parts) if side == "left" else conj(parts)

    return go(root)


# ---------------------------------------------------------------------------
# Constant generalization

def _constants(f: Formula):
    """Zero-ary function symbols of f in first-occurrence order."""
    out = {}
    for g in subformulas(f):
        if isinstance(g, (Atom, Eq)):
            for t in subterms(*atom_terms(g)):
                if isinstance(t, Fn) and not t.args:
                    out.setdefault(t.functor)
    return list(out)


def _vocab(f: Formula) -> dict:
    """(kind, name, arity) -> polarity, of each free symbol of f."""
    return {(o.kind, o.name, o.arity): o.polarity for o in free_symbols(f)}


def generalize_constants(h: Formula, left_vocab, right_vocab) -> Formula:
    """Replace side-private constants of a ground interpolant by
    quantified variables: left-only constants become existential,
    right-only (including proof-grounding constants private to both
    sides) universal; the existential block is outermost."""
    ctx = Context()
    ctx.reserve_formula(h)
    ex_names, all_names_ = [], []
    for c in _constants(h):
        key = ("function", c, 0)
        in_l = key in left_vocab
        in_r = key in right_vocab
        if in_l and in_r:
            continue
        if in_l:
            ex_names.append(c)
        else:
            # right-only, or private to the proof (grounded variable)
            all_names_.append(c)
    if not ex_names and not all_names_:
        return h
    mapping = {}
    ex_vars, all_vars = [], []
    for c in ex_names:
        v = ctx.fresh_var("x")
        mapping[c] = Var(v)
        ex_vars.append(v)
    for c in all_names_:
        v = ctx.fresh_var("y" if ex_vars else "x")
        mapping[c] = Var(v)
        all_vars.append(v)
    g = _replace_constants(h, mapping)
    if all_vars:
        g = ForAll(tuple(all_vars), g)
    if ex_vars:
        g = Exists(tuple(ex_vars), g)
    return g


def _replace_constants(f, mapping):
    if isinstance(f, (Atom, Eq)):
        return map_atom(f, lambda t: mapping.get(t.functor)
                        if isinstance(t, Fn) and not t.args else None)
    return map_children(f, lambda g: _replace_constants(g, mapping))


# ---------------------------------------------------------------------------
# Driver

def _unshared(h, *sides) -> str:
    """Why h is no Craig-Lyndon interpolant of the two sides, given by
    their _vocab: the first symbol of h that the sides do not both have,
    a predicate with each polarity it has in h; "" if there is none."""
    for o in sorted(free_symbols(h), key=lambda o: (o.kind, o.name, o.arity)):
        # a function symbol's polarity is always "both"
        if any(side.get((o.kind, o.name, o.arity)) not in ("both", o.polarity)
               for side in sides):
            pol = f" ({o.polarity})" if o.kind == "predicate" else ""
            return f"{o.kind} {o.name}/{o.arity}{pol} is not shared"
    return ""


def _clause_functions(clauses):
    """All function symbols (with arity) in a clause list."""
    return {("function", t.functor, len(t.args))
            for c in clauses for t in clause_terms(c) if isinstance(t, Fn)}


def interpolate(task: InterpolationTask,
                config: ProverConfig | None = None) -> Interpolant:
    """Compute a Craig-Lyndon interpolant for task.left -> task.right
    within config.timeout_ms.

    Second-order quantifiers are first reduced by reduce_so_universal;
    input it cannot reduce fails, with the reason in the proof.  The
    proof gets all of the budget but model_share of it; when the proof
    fails, a countermodel search gets that share.  An interpolant with
    an unshared symbol fails, the reason from _unshared in the proof."""
    if config is None:
        config = ProverConfig()
    with budget(config.timeout_ms):
        left, right = task.left, task.right
        if not (is_first_order(left) and is_first_order(right)):
            # validity-preserving second-order reduction of the implication
            try:
                red = reduce_so_universal(Implies(left, right))
            except ProverError as e:
                return Interpolant(FALSE, ProofResult(False, reason=str(e)),
                                   status="failed")
            left, right = red.lhs, red.rhs
        share = model_share(config.timeout_ms)
        with budget(config.timeout_ms - share):
            result, left_cs, right_cs = _refute([left], [neg(right)], config,
                                                task.simp_sides)
        if not result.proved:
            if left_cs is not None:     # not a clausification timeout
                m = find_countermodel(Implies(left, right), max_size=3,
                                      timeout_ms=share)
                if m is not None:
                    return Interpolant(FALSE, model=m, status="not_valid")
            return Interpolant(FALSE, proof=result, status="failed")
    if not check_tableau(result.tableau, result.clauses):
        raise InterpolationError("prover returned an unsound tableau")
    if result.tableau.literal is None and not result.tableau.children:
        # empty input clause: one side is contradictory on its own
        side = next(s for c, s in result.clauses if not c.literals)
        h = FALSE if side == "left" else TRUE
    else:
        h = extract_from_tableau(result.tableau)
    left_vocab, right_vocab = _vocab(left), _vocab(right)
    h = generalize_constants(h, left_vocab.keys() | _clause_functions(left_cs),
                             right_vocab.keys() | _clause_functions(right_cs))
    reason = _unshared(h, left_vocab, right_vocab)
    if reason:
        return Interpolant(FALSE, ProofResult(False, reason=reason),
                           status="failed")
    if task.dot_path:
        with open(task.dot_path, "w") as fh:
            fh.write(emit_tableau_dot(result.tableau))
    return Interpolant(h, proof=result)


def symmetric_interpolate(parts, config: ProverConfig | None = None):
    """Interpolants H1..Hn for a jointly unsatisfiable list of formulas:
    parts[i] entails H[i], the H[i] are jointly unsatisfiable, and each
    H[i] uses only symbols parts[i] shares with the other parts.  All n
    interpolate calls share config.timeout_ms: each gets what is left."""
    if config is None:
        config = ProverConfig()
    parts = list(parts)
    hs = []
    with budget(config.timeout_ms):
        for i, f in enumerate(parts):
            others = hs[:i] + parts[i + 1:]
            rest = conj(others) if others else TRUE
            out = interpolate(InterpolationTask(f, neg(rest)), config)
            if out.status != "interpolant":
                raise InterpolationError(f"symmetric interpolation failed "
                                         f"at part {i}: {out.status}")
            hs.append(out.formula)
    return hs


# ---------------------------------------------------------------------------
# DOT rendering

def emit_tableau_dot(root: TableauNode) -> str:
    """Graphviz source for a tableau: shaded by side, dashed closure
    edges annotated with the partner's side."""
    from .syntax import print_text

    ids = {}
    lines = ["digraph tableau {",
             '  node [shape=box, fontname="monospace"];']
    for i, n in enumerate(root.nodes()):
        ids[id(n)] = f"n{i}"
    for n in root.nodes():
        nid = ids[id(n)]
        if n.literal is None:
            lines.append(f'  {nid} [label="", shape=point];')
            continue
        label = print_text(_lit_formula(n.literal)).replace('"', r'\"')
        fill = "lightgrey" if n.side == "right" else "white"
        lines.append(f'  {nid} [label="{label}", style=filled, '
                     f'fillcolor={fill}];')
    for n in root.nodes():
        for c in n.children:
            lines.append(f"  {ids[id(n)]} -> {ids[id(c)]};")
        if not n.children and n.closed_by is not None:
            partner = n.closed_by
            lines.append(
                f"  {ids[id(n)]} -> {ids[id(partner)]} "
                f'[style=dashed, label="{partner.side}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
