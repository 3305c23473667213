"""Formula macro processor: definitions with parameter patterns,
builtin computation steps, and fresh-symbol binding at expansion.

Placeholders are capitalized names, mirroring how the source syntax
reads them in.  A macro table maps (name, arity) to definitions in
declaration order; the first matching head pattern wins.
"""

from __future__ import annotations

from .formula import (
    And, Atom, Context, Eq, Exists, Exists2, Fn, ForAll, ForAll2, Formula,
    Frozen, Implies, Lambda, LambdaApp, MacroCall, Or, PredSpec, Record,
    Term, Var, apply_lambda, conj, forall, free_symbols, map_children,
    map_term, predicate_arities, subformulas, substitute_predicate, subterms,
)


class MacroError(Exception):
    pass


BUILTINS = {
    "mac_rename_free_predicate": (3, 2),   # (inputs, outputs)
    "mac_get_arity": (2, 1),
    "mac_transfer_clauses": (3, 1),
    "last_ppl_result": (0, 1),
}

# kept well under Python's recursion limit: each nested expansion costs
# several interpreter frames
DEFAULT_DEPTH = 100


def is_placeholder(name) -> bool:
    return isinstance(name, str) and bool(name) and name[0].isupper()


class BuiltinCall(Frozen):
    __slots__ = ("builtin", "inputs", "outputs")

    def __init__(self, builtin: str, inputs: tuple, outputs: tuple):
        object.__setattr__(self, "builtin", builtin)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)  # placeholder names


class MacroDefinition(Frozen):
    __slots__ = ("name", "params", "template", "steps")

    def __init__(self, name: str, params: tuple, template: Formula,
                 steps: tuple = ()):
        object.__setattr__(self, "name", name)
        # pattern values (Term/Formula/tuple)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "steps", steps)  # of BuiltinCall

    @property
    def arity(self):
        return len(self.params)


class MacroTable(Record):
    __slots__ = ("defs",)

    def __init__(self, defs: dict | None = None):
        self.defs = {} if defs is None else defs  # (name, arity) -> [defs]

    def copy(self):
        return MacroTable({k: list(v) for k, v in self.defs.items()})

    def lookup(self, name, arity):
        return self.defs.get((name, arity), ())

    def __contains__(self, key):
        return key in self.defs


def _placeholders_of(value) -> set:
    """Placeholder names in a pattern, template or step input.  Unlike
    all_names this reaches into nested tuples and skips lambda parameters
    and macro names."""
    if isinstance(value, tuple):
        return set().union(*map(_placeholders_of, value))
    if isinstance(value, Term):
        return {n for n in (t.name if isinstance(t, Var) else t.functor
                            for t in subterms(value)) if is_placeholder(n)}
    out = set()
    for g in subformulas(value):
        if isinstance(g, Atom):
            if is_placeholder(g.pred):
                out.add(g.pred)
            out |= _placeholders_of(g.args)
        elif isinstance(g, Eq):
            out |= _placeholders_of((g.lhs, g.rhs))
        elif isinstance(g, (ForAll, Exists)):
            out.update(v for v in g.vars if is_placeholder(v))
        elif isinstance(g, (ForAll2, Exists2)):
            out.update(p.name for p in g.preds if is_placeholder(p.name))
        elif isinstance(g, (LambdaApp, MacroCall)):
            out |= _placeholders_of(g.args)
    return out


def define_macro(table: MacroTable, mdef: MacroDefinition) -> MacroTable:
    """Append (or replace, on identical head pattern) a definition."""
    head_params = _placeholders_of(mdef.params)
    step_outputs = set()
    for step in mdef.steps:
        if step.builtin not in BUILTINS:
            raise MacroError(f"unknown builtin {step.builtin!r}")
        n_in, n_out = BUILTINS[step.builtin]
        if len(step.inputs) != n_in or len(step.outputs) != n_out:
            raise MacroError(f"bad arity for builtin {step.builtin!r}")
        for x in _placeholders_of(step.inputs):
            if x not in head_params and x not in step_outputs:
                raise MacroError(
                    f"step input placeholder {x!r} is unbound")
        step_outputs.update(step.outputs)
    tmpl_ph = _placeholders_of(mdef.template)
    unbound = tmpl_ph - head_params - step_outputs
    # unbound placeholders are legal only in fresh-binding roles: as a
    # quantified predicate/variable name introduced by the template itself
    fresh_ok = _fresh_bindable(mdef.template)
    bad = unbound - fresh_ok
    if bad and not mdef.steps:
        raise MacroError(
            f"template references unbound placeholder(s) {sorted(bad)}")
    new = table.copy()
    key = (mdef.name, mdef.arity)
    lst = new.defs.setdefault(key, [])
    for i, old in enumerate(lst):
        if old.params == mdef.params:
            lst[i] = mdef
            break
    else:
        lst.append(mdef)
    return new


def _fresh_bindable(template) -> set:
    """Placeholders bound by a quantifier inside the template; they may
    be left to fresh-symbol binding at expansion.  Macro-call arguments
    are searched only when they are formulas."""
    out = set()
    for g in subformulas(template):
        if isinstance(g, (ForAll, Exists)):
            out.update(v for v in g.vars if is_placeholder(v))
        elif isinstance(g, (ForAll2, Exists2)):
            out.update(p.name for p in g.preds if is_placeholder(p.name))
        elif isinstance(g, MacroCall):
            for a in g.args:
                if isinstance(a, Formula):
                    out |= _fresh_bindable(a)
    return out


# ---------------------------------------------------------------------------
# Coercions between argument views

def term_to_formula(t: Term) -> Formula:
    if isinstance(t, Var):
        raise MacroError(f"variable {t.name!r} cannot stand for a formula")
    return Atom(t.functor, t.args)


def as_formula(v) -> Formula:
    if isinstance(v, Formula):
        return v
    if isinstance(v, Term):
        return term_to_formula(v)
    raise MacroError(f"cannot use {v!r} as a formula")


def as_symbol(v) -> str:
    if isinstance(v, Fn) and not v.args:
        return v.functor
    if isinstance(v, Atom) and not v.args:
        return v.pred
    if isinstance(v, Var):
        return v.name
    raise MacroError(f"cannot use {v!r} as a symbol")


def as_symbol_list(v):
    if isinstance(v, tuple):
        return [as_symbol(x) for x in v]
    return [as_symbol(v)]


# ---------------------------------------------------------------------------
# Pattern matching

def match(pattern, value, binding) -> bool:
    """First-order structural match; placeholders bind, literal
    structure must agree.  Mutates binding on success path."""
    if isinstance(pattern, (Fn, Var)):
        name = pattern.functor if isinstance(pattern, Fn) else pattern.name
        args = pattern.args if isinstance(pattern, Fn) else ()
        if is_placeholder(name) and not args:
            if name in binding:
                return binding[name] == value
            binding[name] = value
            return True
        if isinstance(value, Fn) and value.functor == name \
                and len(value.args) == len(args):
            return all(match(p, v, binding)
                       for p, v in zip(args, value.args))
        if isinstance(value, Atom) and value.pred == name \
                and len(value.args) == len(args):
            return all(match(p, v, binding)
                       for p, v in zip(args, value.args))
        return False
    if isinstance(pattern, Atom):
        return match(Fn(pattern.pred, pattern.args), value, binding)
    if isinstance(pattern, tuple):
        if not isinstance(value, tuple) or len(value) != len(pattern):
            return False
        return all(match(p, v, binding) for p, v in zip(pattern, value))
    return pattern == value


# ---------------------------------------------------------------------------
# Builtins

def builtin_rename_free_predicate(f: Formula, p: PredSpec, mode: str,
                                  ctx: Context):
    """Rename all free occurrences of p (both polarities) to a fresh
    predicate; returns (renamed formula, fresh predicate spec)."""
    if mode != "pn":
        raise MacroError(f"unsupported rename mode {mode!r}")
    occs = {o.name for o in free_symbols(f) if o.kind == "predicate"}
    if p.name not in occs:
        raise MacroError(f"predicate {p.name!r} does not occur free")
    ctx.reserve_formula(f)
    fresh = ctx.fresh_pred()
    arity = p.arity
    if arity is None:
        arities = predicate_arities(f).get(p.name, set())
        arity = next(iter(arities)) if len(arities) == 1 else None
    out = substitute_predicate(f, PredSpec(p.name, arity), fresh)
    return out, PredSpec(fresh, arity)


def builtin_get_arity(p: str, f: Formula) -> int:
    arities = predicate_arities(f).get(p, set())
    if not arities:
        raise MacroError(f"predicate {p!r} does not occur in the formula")
    if len(arities) > 1:
        raise MacroError(f"predicate {p!r} has ambiguous arity "
                         f"{sorted(arities)}")
    return next(iter(arities))


def builtin_transfer_clauses(specs, direction, primed, ctx: Context):
    """Conjunction of transfer implications between predicate pairs.

    direction 'p': primed -> unprimed; 'n': unprimed -> primed."""
    if direction not in ("p", "n"):
        raise MacroError(f"unsupported transfer direction {direction!r}")
    if len(specs) != len(primed):
        raise MacroError("transfer spec and primed lists differ in length")
    parts = []
    for (pname, arity, tag), qname in zip(specs, primed):
        if tag != "n":
            raise MacroError(f"unsupported transfer tag {tag!r}")
        pool = ["x", "y", "z", "u", "v", "w"]
        vs = [pool[i] if i < len(pool) else f"x{i}" for i in range(arity)]
        args = tuple(Var(v) for v in vs)
        src, dst = (qname, pname) if direction == "p" else (pname, qname)
        impl = Implies(Atom(src, args), Atom(dst, args))
        parts.append(forall(vs, impl))
    return conj(parts)


# ---------------------------------------------------------------------------
# Expansion

def _subst_placeholders(value, binding):
    """Instantiate placeholders in a template by their bound values,
    coercing by position."""

    def sub_term(t):
        if isinstance(t, Var):
            if is_placeholder(t.name) and t.name in binding:
                v = binding[t.name]
                if isinstance(v, Term):
                    return v
                raise MacroError(f"placeholder {t.name!r} bound to a "
                                 f"non-term in term position")
            return t
        if is_placeholder(t.functor) and t.functor in binding:
            head = binding[t.functor]
            if isinstance(head, Fn) and not head.args:
                return Fn(head.functor, tuple(sub_term(a) for a in t.args))
            if not t.args and isinstance(head, Term):
                return head
            raise MacroError(f"placeholder {t.functor!r} bound to "
                             f"{head!r} in functor position")
        return Fn(t.functor, tuple(sub_term(a) for a in t.args))

    def sub_names(names):
        out = []
        for n in names:
            if is_placeholder(n) and n in binding:
                v = binding[n]
                if isinstance(v, tuple):
                    out.extend(as_symbol_list(v))
                else:
                    out.append(as_symbol(v))
            else:
                out.append(n)
        return tuple(out)

    def walk(g):
        if isinstance(g, Atom):
            if is_placeholder(g.pred) and g.pred in binding:
                v = binding[g.pred]
                if isinstance(v, Lambda):
                    return apply_lambda(
                        v, tuple(sub_term(a) for a in g.args))
                if not g.args:
                    return as_formula(v)
                return Atom(as_symbol(v), tuple(sub_term(a) for a in g.args))
            return Atom(g.pred, tuple(sub_term(a) for a in g.args))
        if isinstance(g, Eq):
            return Eq(sub_term(g.lhs), sub_term(g.rhs))
        if isinstance(g, And):
            return conj(walk(a) for a in g.args)
        if isinstance(g, Or):
            out = []
            for a in g.args:
                w = walk(a)
                out.extend(w.args if isinstance(w, Or) else (w,))
            return Or(tuple(out)) if len(out) != 1 else out[0]
        if isinstance(g, (ForAll, Exists)):
            return type(g)(sub_names(g.vars), walk(g.body))
        if isinstance(g, (ForAll2, Exists2)):
            names = sub_names([p.name for p in g.preds])
            return type(g)(tuple(PredSpec(n) for n in names), walk(g.body))
        if isinstance(g, LambdaApp):
            return LambdaApp(walk(g.head), tuple(sub_term(a) for a in g.args))
        if isinstance(g, MacroCall):
            return MacroCall(g.name, tuple(
                tuple(_sub_arg(x) for x in a) if isinstance(a, tuple)
                else _sub_arg(a) for a in g.args))
        return map_children(g, walk)

    def _sub_arg(a):
        if isinstance(a, Term):
            return sub_term(a)
        return walk(a)

    return walk(value)


def _bind_fresh(template, binding, ctx):
    """Bind placeholders still unbound after steps to fresh symbols."""
    for name in sorted(_placeholders_of(template) - set(binding)):
        binding[name] = Fn(ctx.fresh_pred())


class _Expander:
    def __init__(self, table, ctx):
        self.table = table
        self.ctx = ctx

    def expand(self, f, depth=0):
        if depth > DEFAULT_DEPTH:
            raise MacroError("macro expansion depth bound exceeded "
                             "(unbounded recursion?)")
        if isinstance(f, Atom):
            if (f.pred, len(f.args)) in self.table:
                return self.expand_call(f.pred, f.args, depth)
            return f
        if isinstance(f, MacroCall):
            if (f.name, len(f.args)) not in self.table:
                raise MacroError(
                    f"no definition for macro {f.name}/{len(f.args)}")
            return self.expand_call(f.name, f.args, depth)
        if isinstance(f, LambdaApp):
            head = self.expand(f.head, depth)
            if isinstance(head, Lambda):
                return self.expand(apply_lambda(head, f.args), depth)
            return LambdaApp(head, f.args)
        return map_children(f, lambda g: self.expand(g, depth))

    def expand_arg(self, a, depth):
        if isinstance(a, tuple):
            return tuple(self.expand_arg(x, depth) for x in a)
        if isinstance(a, Formula):
            return self.expand(a, depth)
        if isinstance(a, Fn) and (a.functor, len(a.args)) in self.table:
            out = self.expand_call(a.functor, a.args, depth)
            return out
        return a

    def expand_call(self, name, args, depth):
        args = tuple(self.expand_arg(a, depth + 1) for a in args)
        for mdef in self.table.lookup(name, len(args)):
            binding = {}
            if all(match(p, v, binding)
                   for p, v in zip(mdef.params, args)):
                # first matching pattern wins; step failures propagate
                return self.instantiate(mdef, binding, depth)
        raise MacroError(f"no matching definition for {name}/{len(args)}")

    def instantiate(self, mdef, binding, depth):
        for step in mdef.steps:
            self.run_step(step, binding, depth)
        _bind_fresh(mdef.template, binding, self.ctx)
        out = _subst_placeholders(mdef.template, binding)
        return self.expand(out, depth + 1)

    def run_step(self, step, binding, depth):
        ins = [_subst_placeholders_arg(x, binding) for x in step.inputs]
        if step.builtin == "mac_rename_free_predicate":
            f = self.expand(as_formula(ins[0]), depth + 1)
            p = PredSpec(as_symbol(ins[1]))
            mode = as_symbol(ins[2])
            out_f, out_p = builtin_rename_free_predicate(f, p, mode, self.ctx)
            binding[step.outputs[0]] = out_f
            binding[step.outputs[1]] = Fn(out_p.name)
        elif step.builtin == "mac_get_arity":
            p = as_symbol(ins[0])
            f = self.expand(as_formula(ins[1]), depth + 1)
            binding[step.outputs[0]] = Fn(str(builtin_get_arity(p, f)))
        elif step.builtin == "mac_transfer_clauses":
            specs = _transfer_specs(ins[0], binding)
            direction = as_symbol(ins[1])
            primed = as_symbol_list(ins[2])
            binding[step.outputs[0]] = builtin_transfer_clauses(
                specs, direction, primed, self.ctx)
        elif step.builtin == "last_ppl_result":
            if self.ctx.last_result is None:
                raise MacroError("no previous reasoner result available")
            binding[step.outputs[0]] = self.ctx.last_result
        else:
            raise MacroError(f"unknown builtin {step.builtin!r}")


def _subst_placeholders_arg(x, binding):
    if isinstance(x, tuple):
        return tuple(_subst_placeholders_arg(v, binding) for v in x)
    if isinstance(x, Atom) and not x.args and is_placeholder(x.pred) \
            and x.pred in binding:
        return binding[x.pred]
    if isinstance(x, Formula):
        return _subst_placeholders(x, binding)
    if isinstance(x, Term):
        return map_term(x, lambda t: binding.get(t.functor)
                        if isinstance(t, Fn) and not t.args
                        and is_placeholder(t.functor) else None)
    return x


def _transfer_specs(v, binding):
    """Decode a spec list like [P/A-n] into (name, arity, tag) triples."""
    if not isinstance(v, tuple):
        v = (v,)
    out = []
    for item in v:
        if isinstance(item, Fn) and item.functor == "-" \
                and len(item.args) == 2:
            body, tag = item.args
            tagname = as_symbol(tag)
        else:
            raise MacroError(f"bad transfer spec {item!r}")
        if isinstance(body, Fn) and body.functor == "/" \
                and len(body.args) == 2:
            name = as_symbol(body.args[0])
            arity = int(as_symbol(body.args[1]))
        else:
            raise MacroError(f"bad transfer spec {item!r}")
        out.append((name, arity, tagname))
    return out


def expand(table: MacroTable, f: Formula,
           ctx: Context | None = None) -> Formula:
    """Expand every macro call in f; the result is macro-free with
    lambda applications introduced by instantiation beta-reduced."""
    if ctx is None:
        ctx = Context()
    ctx.reserve_formula(f)
    return _Expander(table, ctx).expand(f)
