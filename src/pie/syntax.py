"""Textual formula syntax: parser, formula printer, TPTP and (Q)DIMACS
emitters.

Operator precedences, loosest to tightest: '<->', '->', ';', ',', '~'.
'->' and '<->' are right-associative; ',' and ';' collect into n-ary
And/Or.  Identifiers starting lowercase (or digits) are constants,
functions and predicates; capitalized identifiers are macro parameters.
Names bound by all/ex/lambda become variables within their scope.

One tokenizer serves formulas and whole documents (see document.py).
Besides names, quoted atoms and operators it knows '%' line comments,
which it drops, '/* ... */' block comments, which the parser skips, and
the statement terminator: a '.' before whitespace or the end of the
input.  Token positions, and so parse errors, are line:column in the
whole input.

One precedence walk prints formulas, and macro definition heads, in two
notations: text, which the parser reads back, and LaTeX.  They differ
only in symbols and in how binders and ~(s=t) are written.  TPTP output
is separate: it parenthesizes fully and renames variables.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .formula import (
    And, Atom, Eq, Exists, Exists2, FALSE, Falsity, Fn, ForAll, ForAll2,
    Formula, Frozen, Iff, Implies, Lambda, LambdaApp, MacroCall, Not, Or,
    PredSpec, Record, TRUE, Term, Truth, Var, beta_reduce, predicate_arities,
)


class SourcePosition(Frozen):
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __str__(self):
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message, pos: SourcePosition):
        super().__init__(f"{message} at {pos}")
        self.message = message
        self.pos = pos


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<comment>/\*.*?\*/)
  | (?P<stop>\.(?=\s|\Z))
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_]*|\d+)
  | (?P<quoted>'[^']*')
  | (?P<open>/\*|')
  | (?P<op>::-|::|:-|<->|->|\\=|[()\[\],;~=./\-])
""", re.VERBOSE | re.DOTALL)


class Token(Record):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: SourcePosition):
        # 'name' | 'op' | 'quoted' | 'comment' | 'stop' | 'end'
        self.kind = kind
        self.text = text
        self.pos = pos


def tokenize(src: str):
    """The tokens of src, whitespace and '%' comments left out, then an
    'end' token.  A '/* ... */' block is a 'comment' token, and a '.'
    before whitespace or the end of src a 'stop' token."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r}",
                             SourcePosition(line, col))
        text = m.group(0)
        kind = m.lastgroup
        if kind == "open":
            what = "quoted atom" if text == "'" else "block comment"
            raise ParseError(f"unterminated {what}", SourcePosition(line, col))
        if kind != "ws":
            tokens.append(Token(kind, text, SourcePosition(line, col)))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    tokens.append(Token("end", "", SourcePosition(line, col)))
    return tokens


_BINDERS = {"all": ForAll, "ex": Exists, "all2": ForAll2, "ex2": Exists2,
            "lambda": Lambda}


class Parser:
    """Recursive-descent parser over a token list that ends with an 'end'
    token; comment tokens are skipped."""

    def __init__(self, tokens):
        self.tokens = [t for t in tokens if t.kind != "comment"]
        self.i = 0

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at(self, text) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text

    def accept(self, text) -> bool:
        """Consume the operator text if it comes next."""
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text) -> Token:
        t = self.next()
        if not (t.kind == "op" and t.text == text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def error(self, msg):
        raise ParseError(msg, self.peek().pos)

    def parse_list(self, item, close, *, empty):
        """The items of a ','-separated list, each read by item(), then
        the operator close unless it is None.  The list is empty only if
        empty is set and close comes first."""
        out = [] if empty and self.at(close) else [item()]
        while self.accept(","):
            out.append(item())
        if close is not None:
            self.expect(close)
        return out

    # -- formula grammar

    def parse_formula(self, env=frozenset()) -> Formula:
        return self.parse_iff(env)

    def parse_iff(self, env):
        lhs = self.parse_impl(env)
        if self.accept("<->"):
            return Iff(lhs, self.parse_iff(env))
        return lhs

    def parse_impl(self, env):
        lhs = self.parse_disj(env)
        if self.accept("->"):
            return Implies(lhs, self.parse_impl(env))
        return lhs

    def parse_disj(self, env):
        parts = [self.parse_conj(env)]
        while self.accept(";"):
            parts.append(self.parse_conj(env))
        return _flat(Or, parts)

    def parse_conj(self, env):
        parts = [self.parse_neg(env)]
        while self.accept(","):
            parts.append(self.parse_neg(env))
        return _flat(And, parts)

    def parse_neg(self, env):
        if self.accept("~"):
            return Not(self.parse_neg(env))
        return self.parse_primary(env)

    def parse_primary(self, env) -> Formula:
        if self.accept("("):
            f = self.parse_formula(env)
            self.expect(")")
            return self._eq_tail(_as_term(f), env) or f
        t = self.peek()
        if t.kind != "name" and t.kind != "quoted":
            self.error(f"expected a formula, found {t.text!r}"
                       if t.kind != "end" else "unexpected end of input")
        name = self.next().text
        if name in ("true", "false") and not self.at("("):
            return TRUE if name == "true" else FALSE
        cls = _BINDERS.get(name)
        if cls and self.accept("("):
            names = tuple(self.parse_name_list())
            self.expect(",")
            if cls in (ForAll2, Exists2):
                body = self.parse_formula(env)
                names = tuple(map(PredSpec, names))
            else:
                body = self.parse_formula(env | set(names))
            self.expect(")")
            return cls(names, body)
        # plain atom / term head / macro call
        args = ()
        if self.accept("("):
            args = tuple(self.parse_list(lambda: self.parse_arg(env), ")",
                                         empty=False))
            terms = tuple(map(_as_term, args))
            if None in terms:
                return MacroCall(name, args)
            args = terms
        term = Var(name) if (name in env and not args) else Fn(name, args)
        eq = self._eq_tail(term, env)
        if eq is None and isinstance(term, Var):
            # a bound variable standing alone cannot be an atom
            self.error(f"variable {name!r} used as a formula")
        return eq or Atom(name, args)

    def _eq_tail(self, lhs, env):
        """lhs=rhs, or ~lhs=rhs after '\\=', if an equality sign follows,
        else None.  lhs is None if the left side is no term."""
        t = self.peek()
        if t.kind != "op" or t.text not in ("=", "\\="):
            return None
        if lhs is None:
            self.error("left side of '=' is not a term")
        self.next()
        eq = Eq(lhs, self.parse_term(env))
        return Not(eq) if t.text == "\\=" else eq

    def parse_arg(self, env):
        """One argument of a compound: a bracketed list or a formula at
        argument precedence (no top-level ','/';'/'->').  Infix '/' and
        '-' are accepted for spec terms like p/1-n."""
        if self.accept("["):
            return tuple(self.parse_list(lambda: self.parse_arg(env), "]",
                                         empty=True))
        t = self.peek()
        if t.kind == "name" and t.text in env \
                and self.tokens[self.i + 1].text != "(":
            self.next()
            item = Var(t.text)
            eq = self._eq_tail(item, env)
            if eq is not None:
                return eq
        else:
            item = self.parse_neg(env)
        while self.at("/") or self.at("-"):
            op = self.next().text
            lt, rt = _as_term(item), _as_term(self.parse_neg(env))
            if lt is None or rt is None:
                self.error(f"bad operand for {op!r}")
            item = Fn(op, (lt, rt))
        return item

    def parse_name_list(self):
        if self.accept("["):
            return self.parse_list(self._name, "]", empty=True)
        return [self._name()]

    def _name(self):
        t = self.next()
        if t.kind not in ("name", "quoted"):
            raise ParseError(f"expected a name, found {t.text!r}", t.pos)
        return t.text.strip("'") if t.kind == "quoted" else t.text

    def parse_term(self, env) -> Term:
        if self.accept("("):
            inner = self.parse_term(env)
            self.expect(")")
            return inner
        t = self.peek()
        if t.kind != "name":
            self.error(f"expected a term, found {t.text!r}")
        name = self.next().text
        if self.accept("("):
            return Fn(name, tuple(
                self.parse_list(lambda: self.parse_term(env), ")",
                                empty=False)))
        return Var(name) if name in env else Fn(name)

    def check_end(self):
        t = self.peek()
        if t.kind != "end":
            self.error(f"unexpected {t.text!r} after formula")


def _flat(cls, parts):
    """The one part, or cls over the parts with those of class cls
    spliced in."""
    if len(parts) == 1:
        return parts[0]
    return cls(tuple(a for p in parts
                     for a in (p.args if isinstance(p, cls) else (p,))))


def _as_term(x):
    """x as a term: a term itself, an atom read back as one, else None."""
    if isinstance(x, Term):
        return x
    if isinstance(x, Atom):
        return Fn(x.pred, x.args)
    return None


def parse_formula(src: str) -> Formula:
    p = Parser(tokenize(src))
    f = p.parse_formula()
    p.check_end()
    _check_arities(f)
    return f


def parse_term(src: str) -> Term:
    p = Parser(tokenize(src))
    t = p.parse_term(frozenset())
    p.check_end()
    return t


def _check_arities(f):
    for name, arities in predicate_arities(f).items():
        if len(arities) > 1 and not name[0].isupper():
            raise ParseError(
                f"symbol {name!r} used with several arities "
                f"{sorted(arities)}", SourcePosition(1, 1))


# ---------------------------------------------------------------------------
# Text and LaTeX printing: one precedence walk, two notations

# precedence levels of the connectives, lower binds looser; _P_NEG is
# the level of negated formulas, binder bodies and macro-call arguments
_PREC = {Iff: 0, Implies: 1, Or: 2, And: 3}
_P_NEG = 4


def latex_symbol(name: str, italic=False) -> str:
    """Symbol conversion: trailing digits become subscripts, '_p' suffix
    becomes a prime, inner underscores are escaped."""
    prime = ""
    while name.endswith("_p"):
        prime += r"'"
        name = name[:-2]
    m = re.match(r"^(.*?)(\d+)$", name)
    sub = ""
    if m and m.group(1):
        name, sub = m.group(1), m.group(2)
    name = name.replace("_", r"\_")
    cmd = r"\mathit" if italic else r"\mathsf"
    out = f"{cmd}{{{name}}}"
    if sub:
        out = f"{cmd}{{{name}_{{{sub}}}}}"
    if prime:
        out += f"^{{{prime}}}"
    return out


_BINDER_WORDS = {cls: word for word, cls in _BINDERS.items()}


def _text_binder(f, names, body):
    vs = (names[0] if len(names) == 1 and not isinstance(f, Lambda)
          else f"[{','.join(names)}]")
    return f"{_BINDER_WORDS[type(f)]}({vs}, {body})"


def _latex_binder(f, names, body):
    if isinstance(f, Lambda):
        return r"\lambda (" + ",".join(names) + ")." + body
    q = r"\forall" if isinstance(f, (ForAll, ForAll2)) else r"\exists"
    return " ".join(f"{q} {v}" for v in names) + r" \, " + body


class _Notation(NamedTuple):
    """symbol(name, italic) writes a name (italic: variables, bound names,
    macro-call heads); neq, if set, is the infix of ~(s=t);
    binder(f, bound names, body) writes a quantifier or lambda."""
    symbol: Callable
    true: str
    false: str
    neg: str
    neq: str | None
    infix: dict
    binder: Callable


_TEXT = _Notation(lambda name, italic: name, "true", "false", "~", None,
                  {And: ", ", Or: "; ", Implies: "->", Iff: "<->"},
                  _text_binder)
_LATEX = _Notation(latex_symbol, r"\top", r"\bot", r"\lnot ", r"\neq ",
                   {And: r" \land ", Or: r" \lor ", Implies: r" \rightarrow ",
                    Iff: r" \leftrightarrow "}, _latex_binder)
# a macro definition's parameters: LaTeX with every capitalized name, a
# placeholder, in italics
_LATEX_PARAMS = _LATEX._replace(symbol=lambda name, italic: latex_symbol(
    name, italic or name[:1].isupper()))


def _call(head, args):
    """head applied to the printed args, or head alone if there are none."""
    return f"{head}({','.join(args)})" if args else head


def _term(t: Term, n: _Notation) -> str:
    if isinstance(t, Var):
        return n.symbol(t.name, True)
    return _call(n.symbol(t.functor, False), [_term(a, n) for a in t.args])


def _arg(a, n: _Notation) -> str:
    """A macro-call argument: a term, a list, or a formula that binds at
    least as tightly as a negation."""
    if isinstance(a, Term):
        return _term(a, n)
    if isinstance(a, tuple):
        return "[" + ",".join(_arg(x, n) for x in a) + "]"
    return _print(a, _P_NEG, n)


def _print(f: Formula, level, n: _Notation) -> str:
    """f in notation n, in parentheses if its connective binds looser
    than level."""
    prec = _PREC.get(type(f))
    if prec is not None:
        op = n.infix[type(f)]
        if isinstance(f, (And, Or)):
            s = op.join(_print(a, prec + 1, n) for a in f.args)
        else:   # '->' and '<->' associate to the right
            s = _print(f.lhs, prec + 1, n) + op + _print(f.rhs, prec, n)
        return f"({s})" if prec < level else s
    if isinstance(f, Atom):
        return _term(Fn(f.pred, f.args), n)
    if isinstance(f, Eq):
        return f"{_term(f.lhs, n)}={_term(f.rhs, n)}"
    if isinstance(f, Not):
        if n.neq and isinstance(f.arg, Eq):
            return _term(f.arg.lhs, n) + n.neq + _term(f.arg.rhs, n)
        return n.neg + _print(f.arg, _P_NEG, n)
    if isinstance(f, Truth):
        return n.true
    if isinstance(f, Falsity):
        return n.false
    if isinstance(f, (ForAll, Exists, ForAll2, Exists2, Lambda)):
        names = (f.params if isinstance(f, Lambda) else
                 f.vars if isinstance(f, (ForAll, Exists)) else
                 [p.name for p in f.preds])
        return n.binder(f, [n.symbol(v, True) for v in names],
                        _print(f.body, _P_NEG, n))
    if isinstance(f, LambdaApp):
        return _print(beta_reduce(f), level, n)
    if isinstance(f, MacroCall):
        return _call(n.symbol(f.name, True), [_arg(a, n) for a in f.args])
    raise ValueError(f"cannot print {f!r}")


def latex_definition_head(name: str, params) -> str:
    """The head of a macro definition in LaTeX: name, then its parameters
    (terms, formulas or lists) as print_latex writes the arguments of a
    macro call, but with placeholders in italics."""
    return _call(latex_symbol(name), [_arg(p, _LATEX_PARAMS) for p in params])


def print_text(f: Formula) -> str:
    """Text printing; quantifier bodies are parenthesized when compound,
    matching console output style."""
    return _print(f, 0, _TEXT)


def print_latex(f: Formula) -> str:
    if isinstance(f, And):
        rows = r" \; \land \\" + "\n"
        body = rows.join(_print(a, _P_NEG, _LATEX) for a in f.args)
        return "\\begin{array}{l}\n" + body + "\n\\end{array}"
    return _print(f, 0, _LATEX)


# ---------------------------------------------------------------------------
# TPTP FOF

class EmitError(Exception):
    pass


def emit_tptp(name: str, role: str, f: Formula) -> str:
    """One annotated TPTP FOF formula; variables are upper-cased."""
    if role not in ("axiom", "conjecture"):
        raise EmitError(f"unsupported TPTP role {role!r}")

    used = set()

    def varname(v, env):
        if v in env:
            return env[v]
        base = v[0].upper() + v[1:] if v[0].islower() else "V" + v
        cand, i = base, 0
        while cand in used:
            i += 1
            cand = f"{base}{i}"
        used.add(cand)
        return cand

    def term(t, env):
        if isinstance(t, Var):
            if t.name not in env:
                raise EmitError(f"free variable {t.name!r} in TPTP output")
            return env[t.name]
        if not t.args:
            return t.functor
        return t.functor + "(" + ",".join(term(a, env) for a in t.args) + ")"

    def go(g, env):
        if isinstance(g, Truth):
            return "$true"
        if isinstance(g, Falsity):
            return "$false"
        if isinstance(g, Atom):
            if not g.args:
                return g.pred
            return g.pred + "(" + ",".join(term(a, env) for a in g.args) + ")"
        if isinstance(g, Eq):
            return f"({term(g.lhs, env)} = {term(g.rhs, env)})"
        if isinstance(g, Not):
            return f"~({go(g.arg, env)})"
        if isinstance(g, And):
            return "(" + " & ".join(go(a, env) for a in g.args) + ")"
        if isinstance(g, Or):
            return "(" + " | ".join(go(a, env) for a in g.args) + ")"
        if isinstance(g, Implies):
            return f"({go(g.lhs, env)} => {go(g.rhs, env)})"
        if isinstance(g, Iff):
            return f"({go(g.lhs, env)} <=> {go(g.rhs, env)})"
        if isinstance(g, (ForAll, Exists)):
            q = "!" if isinstance(g, ForAll) else "?"
            env2 = dict(env)
            names = []
            for v in g.vars:
                env2[v] = varname(v, env)
                names.append(env2[v])
            return f"({q} [{','.join(names)}] : {go(g.body, env2)})"
        raise EmitError("second-order content cannot be emitted as TPTP FOF")

    return f"fof({name}, {role}, {go(f, {})}).\n"


# ---------------------------------------------------------------------------
# DIMACS / QDIMACS

def _propositional_atoms(cf):
    """Atom-to-integer map over a propositional clausal form, in first
    occurrence order."""
    mapping = {}
    for clause in cf.clauses:
        for sign, atom in clause.literals:
            if isinstance(atom, Eq) or atom.args:
                raise EmitError(
                    f"non-propositional literal {atom!r} in DIMACS output")
            if atom.pred not in mapping:
                mapping[atom.pred] = len(mapping) + 1
    return mapping


def emit_dimacs(cf):
    """Returns (text, atom-to-integer map)."""
    return emit_qdimacs([], cf)


def emit_qdimacs(prefix, cf):
    """prefix: list of (quantifier, atom-name list) with quantifier in
    {'e', 'a'}.  Returns (text, atom-to-integer map)."""
    mapping = _propositional_atoms(cf)
    for _, atoms in prefix:
        for a in atoms:
            if a not in mapping:
                mapping[a] = len(mapping) + 1
    lines = [f"p cnf {len(mapping)} {len(cf.clauses)}"]
    for q, atoms in prefix:
        if q not in ("e", "a"):
            raise EmitError(f"bad QDIMACS quantifier {q!r}")
        lines.append(f"{q} " + " ".join(str(mapping[a]) for a in atoms)
                     + " 0")
    for clause in cf.clauses:
        nums = [(mapping[a.pred] if s else -mapping[a.pred])
                for s, a in clause.literals]
        lines.append(" ".join(str(x) for x in nums + [0]))
    return "\n".join(lines) + "\n", mapping
