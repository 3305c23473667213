"""Literate document processing: PIE source files interleaving macro
definitions, reasoner directives, and LaTeX prose, rendered to LaTeX.

A document is tokenized once, by syntax.tokenize.  A statement is the
tokens up to a stop token (a `.` before whitespace or the end of the
source), and a Parser reads them.  A block comment `/* ... */` before a
statement's first token passes through as a LaTeX fragment; one inside a
statement is ignored, as are `%` line comments.  Errors in reading a
document give their line and column in it.  Documents are loaded completely
(building the macro table) before any directive runs.
"""

from __future__ import annotations

import os

from .elimination import EliminationTask, eliminate
from .formula import Atom, Context, Fn, Formula, Implies, Record
from .interpolation import InterpolationTask, interpolate
from .macros import (
    BUILTINS, BuiltinCall, MacroDefinition, MacroError, MacroTable,
    as_formula, define_macro, expand, is_placeholder,
)
from .preprocess import PIPELINES
from .prover import ProverConfig, validate
from .syntax import (
    ParseError, Parser, Token, latex_definition_head, print_latex, tokenize,
)


class DocumentError(Exception):
    pass


# ---------------------------------------------------------------------------
# Document items

class MacroDefStatement(Record):
    __slots__ = ("definition", "source")

    def __init__(self, definition: MacroDefinition, source: str):
        self.definition = definition
        self.source = source


class Directive(Record):
    __slots__ = ("kind", "formula", "options", "source")

    def __init__(self, kind: str, formula: Formula, options: dict,
                 source: str):
        self.kind = kind    # 'elim' | 'ipol' | 'valid' | 'form'
        self.formula = formula
        self.options = options
        self.source = source


class LatexFragment(Record):
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class ConfigDefault(Record):
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: object):
        self.key = key
        self.value = value


class PieDocument(Record):
    __slots__ = ("items",)

    def __init__(self, items: list):
        self.items = items


# ---------------------------------------------------------------------------
# Statement parsing

def _parse_def(p: Parser) -> MacroDefinition:
    p.next()    # 'def'
    p.expect("(")
    name = p._name()
    params = []
    if p.accept("("):
        params = p.parse_list(lambda: p.parse_arg(frozenset()), ")",
                              empty=False)
    p.expect(")")
    p.expect("::")
    template = p.parse_formula()
    steps = []
    if p.accept("::-"):
        steps = p.parse_list(lambda: _parse_step(p), None, empty=False)
    p.check_end()
    return MacroDefinition(name, tuple(params), template, tuple(steps))


def _parse_step(p: Parser) -> BuiltinCall:
    t = p.next()
    if t.kind != "name":
        raise ParseError(f"expected a builtin name, found {t.text!r}", t.pos)
    name = t.text
    if name not in BUILTINS:
        raise ParseError(f"unknown builtin {name!r} in macro body", t.pos)
    n_in, n_out = BUILTINS[name]
    args = []
    if p.accept("("):
        args = p.parse_list(lambda: p.parse_arg(frozenset()), ")",
                            empty=True)
    if len(args) != n_in + n_out:
        raise ParseError(
            f"builtin {name!r} takes {n_in + n_out} arguments", t.pos)
    outs = []
    for a in args[n_in:]:
        sym = _placeholder_name(a)
        if sym is None:
            raise ParseError(
                f"output argument of {name!r} must be a placeholder", t.pos)
        outs.append(sym)
    return BuiltinCall(name, tuple(args[:n_in]), tuple(outs))


def _placeholder_name(a):
    if isinstance(a, Fn) and not a.args and is_placeholder(a.functor):
        return a.functor
    if isinstance(a, Atom) and not a.args and is_placeholder(a.pred):
        return a.pred
    return None


_DIRECTIVE_KINDS = {"ppl_elim": "elim", "ppl_ipol": "ipol",
                    "ppl_valid": "valid", "ppl_form": "form"}


def _parse_directive(p: Parser, source: str):
    p.expect(":-")
    t = p.next()
    if t.kind != "name":
        raise ParseError("expected a directive name", t.pos)
    if t.text == "ppl_default":
        p.expect("(")
        key, value = _parse_pair(p)
        p.expect(")")
        p.check_end()
        return ConfigDefault(key, value)
    if t.text != "ppl_printtime":
        raise ParseError(f"unknown directive {t.text!r}", t.pos)
    p.expect("(")
    t2 = p.next()
    if t2.kind != "name" or t2.text not in _DIRECTIVE_KINDS:
        raise ParseError(
            f"unknown print-time call {t2.text!r}; expected one of "
            f"{sorted(_DIRECTIVE_KINDS)}", t2.pos)
    kind = _DIRECTIVE_KINDS[t2.text]
    p.expect("(")
    formula = p.parse_arg(frozenset())
    if not isinstance(formula, Formula):
        formula = as_formula(formula)
    options = {}
    if p.accept(","):
        p.expect("[")
        options = dict(p.parse_list(lambda: _parse_pair(p), "]", empty=True))
    p.expect(")")
    p.expect(")")
    p.check_end()
    return Directive(kind, formula, options, source)


def _parse_pair(p: Parser):
    key = p._name()
    p.expect("=")
    return key, _parse_option_value(p)


def _at_pair(p: Parser) -> bool:
    return p.peek().kind == "name" and p.tokens[p.i + 1].text == "="


def _parse_option_value(p: Parser):
    """A number, true or false, a name, a quoted atom, the argument of a
    wrapper call such as printstyle('/path'), or a bracketed list: of
    values (a list) or of key=value pairs (a dict), not of both."""
    if p.accept("["):
        pairs = _at_pair(p)

        def item():
            if _at_pair(p) != pairs:
                p.error("option list mixes values and key=value pairs")
            return _parse_pair(p) if pairs else _parse_option_value(p)
        items = p.parse_list(item, "]", empty=True)
        return dict(items) if pairs else items
    t = p.next()
    if t.kind == "quoted":
        return t.text.strip("'")
    if t.kind != "name":
        raise ParseError(f"bad option value {t.text!r}", t.pos)
    if t.text == "true":
        return True
    if t.text == "false":
        return False
    if t.text.isdigit():
        return int(t.text)
    if p.accept("("):
        inner = _parse_option_value(p)
        p.expect(")")
        return inner
    return t.text


# ---------------------------------------------------------------------------
# Loading

# the LaTeX of a directive or a definition nested too deeply for the
# recursion limit
TOO_DEEP = "\\noindent Directive failed: input nested too deeply."
DEF_TOO_DEEP = "\\noindent Definition failed: input nested too deeply."


def load_document(src: str):
    """Parse a PIE document into items and its macro table.  A directive
    nested too deeply to parse becomes the fragment TOO_DEEP, and a
    definition nested too deeply to parse or define becomes DEF_TOO_DEEP
    and defines nothing."""
    items = []
    table = MacroTable()
    stmt = []   # the tokens of the statement read so far
    for t in tokenize(src):
        if t.kind == "comment" and not stmt:
            items.append(LatexFragment(t.text[2:-2]))
        elif t.kind not in ("stop", "end"):
            stmt.append(t)
        elif stmt:
            if t.kind == "end":
                raise DocumentError("source ends inside the statement at "
                                    f"{stmt[0].pos} (missing final '.')")
            p = Parser(stmt + [Token("end", "", t.pos)])
            stmt = []
            source = " ".join(x.text for x in p.tokens[:-1])
            if p.at(":-"):
                try:
                    items.append(_parse_directive(p, source))
                except RecursionError:
                    items.append(LatexFragment(TOO_DEEP))
            elif p.peek().text == "def":
                try:
                    mdef = _parse_def(p)
                    table = define_macro(table, mdef)
                    items.append(MacroDefStatement(mdef, source))
                except RecursionError:
                    items.append(LatexFragment(DEF_TOO_DEEP))
            else:
                raise DocumentError("cannot classify the statement at "
                                    f"{p.peek().pos}: {source[:60]!r}")
    return PieDocument(items), table


# ---------------------------------------------------------------------------
# Processing

SYSTEM_DEFAULTS = {
    "printing": True,
    "simp_result": None,
    "elim_options": {},
    "ip_simp_sides": True,
    "ip_dotgraph": None,
    "timeout_ms": 5000,
    "max_depth": 30,
    "model_size": 3,
}


def default_timeout_ms() -> int:
    """The reasoner timeout: PIE_TIMEOUT_MS if it is a positive number
    of milliseconds, else SYSTEM_DEFAULTS["timeout_ms"]."""
    env = os.environ.get("PIE_TIMEOUT_MS")
    if env and env.isdecimal() and int(env) > 0:
        return int(env)
    return SYSTEM_DEFAULTS["timeout_ms"]


def system_defaults():
    return {**SYSTEM_DEFAULTS, "timeout_ms": default_timeout_ms()}


class ProcessingContext(Record):
    __slots__ = ("table", "ctx", "defaults")

    def __init__(self, table: MacroTable, ctx: Context | None = None,
                 defaults: dict | None = None):
        self.table = table
        self.ctx = Context() if ctx is None else ctx
        self.defaults = system_defaults() if defaults is None else defaults


class DirectiveResult(Record):
    __slots__ = ("status", "text", "formula", "detail")

    def __init__(self, status: str, text: str, formula: Formula | None = None,
                 detail: str = ""):
        self.status = status    # 'ok' | 'failed'
        self.text = text        # LaTeX rendering ('' when printing=false)
        self.formula = formula
        self.detail = detail


def _display(f: Formula) -> str:
    return "\\[\n" + print_latex(f) + "\n\\]"


def _inline(f: Formula) -> str:
    return "$" + print_latex(f) + "$"


def run_directive(d: Directive, pctx: ProcessingContext) -> DirectiveResult:
    """Execute one directive under the layered option set."""
    opts = dict(pctx.defaults)
    opts.update(d.options)
    printing = bool(opts.get("printing", True))
    try:
        f = expand(pctx.table, d.formula, pctx.ctx)
    except MacroError as e:
        return _failed(d, str(e), printing)
    if d.kind == "form":
        return DirectiveResult("ok", _display(f) if printing else "", f)
    try:
        timeout_ms, max_depth, model_size = (
            _int_option(opts, key)
            for key in ("timeout_ms", "max_depth", "model_size"))
    except ValueError as e:
        return _failed(d, str(e), printing)
    cfg = ProverConfig(timeout_ms=timeout_ms, max_depth=max_depth)
    if d.kind == "elim":
        elim_opts = opts.get("elim_options") or {}
        if not isinstance(elim_opts, dict):
            return _failed(
                d, f"option elim_options={elim_opts} is not a list of "
                "key=value pairs", printing)
        pre = elim_opts.get("pre")
        if isinstance(pre, list):
            pre = pre[0] if pre else None
        simp = opts.get("simp_result")
        if isinstance(simp, list):
            simp = simp[0] if simp else None
        for key, name in (("pre", pre), ("simp_result", simp)):
            if name and not (isinstance(name, str) and name in PIPELINES):
                return _failed(d, f"unknown pipeline {key}={name}", printing)
        task = EliminationTask(f, pre=pre, simp_result=simp,
                               timeout_ms=timeout_ms)
        out = eliminate(task)
        if out.status != "success":
            return _failed(d, f"elimination failed ({out.status})", printing,
                           out.reason)
        pctx.ctx.last_result = out.result
        text = ""
        if printing:
            text = ("\\noindent Input: " + _inline(d.formula) + ".\\\\\n"
                    "\\noindent Result of elimination:\n"
                    + _display(out.result))
        return DirectiveResult("ok", text, out.result)
    if d.kind == "ipol":
        if not isinstance(f, Implies):
            return _failed(d, "interpolation needs an implication", printing,
                           "not an implication")
        dot = opts.get("ip_dotgraph")
        if dot and not isinstance(dot, str):
            return _failed(
                d, f"option ip_dotgraph={dot} is not a file name", printing)
        task = InterpolationTask(f.lhs, f.rhs,
                                 simp_sides=bool(opts["ip_simp_sides"]),
                                 dot_path=dot)
        try:
            out = interpolate(task, cfg)
        except OSError as e:
            return _failed(
                d, f"cannot write ip_dotgraph={dot}: {e.strerror}", printing)
        if out.status != "interpolant":
            return _failed(d, f"interpolation failed ({out.status})",
                           printing, out.status)
        pctx.ctx.last_result = out.formula
        text = ""
        if printing:
            text = ("\\noindent Input: " + _inline(d.formula) + ".\\\\\n"
                    "\\noindent Result of interpolation:\n"
                    + _display(out.formula))
        return DirectiveResult("ok", text, out.formula)
    if d.kind == "valid":
        out = validate(f, cfg, model_size=model_size)
        verdict = {"valid": "is valid",
                   "invalid": "is not valid",
                   "unknown": "failed to validate"}[out.status]
        text = ""
        if printing:
            text = ("\\noindent " + _inline(d.formula)
                    + f"\\\\\n{verdict}.")
        status = "ok" if out.status == "valid" else "failed"
        return DirectiveResult(status, text, f, detail=out.status)
    raise DocumentError(f"unknown directive kind {d.kind!r}")


def _int_option(opts: dict, key: str) -> int:
    """opts[key] as an integer; a ValueError naming the option and its
    value if it is not one, or if it is not positive and key is not
    model_size (whose 0 skips the model search)."""
    try:
        n = int(opts[key])
    except (TypeError, ValueError):
        raise ValueError(
            f"option {key}={opts[key]} is not an integer") from None
    if n <= 0 and key != "model_size":
        raise ValueError(f"option {key}={opts[key]} is not positive")
    return n


_LATEX_SPECIALS = str.maketrans(
    {**{c: "\\" + c for c in "#$%&_{}"},
     "\\": r"\textbackslash{}", "^": r"\^{}", "~": r"\~{}"})


def _latex_text(s: str) -> str:
    """s as LaTeX text, its special characters escaped."""
    return s.translate(_LATEX_SPECIALS)


def _failed(d: Directive, msg: str, printing: bool,
            detail: str | None = None) -> DirectiveResult:
    """The failed result of d: msg, as LaTeX text after d's formula, and
    detail (msg by default)."""
    text = (f"\\noindent {_inline(d.formula)}\\\\\n{_latex_text(msg)}."
            if printing else "")
    return DirectiveResult("failed", text,
                           detail=msg if detail is None else detail)


def _render_macro_def(item: MacroDefStatement) -> str:
    mdef = item.definition
    return ("\\noindent\\textbf{def}\\ $"
            + latex_definition_head(mdef.name, mdef.params) + "$:\n"
            + _display(mdef.template))


def process_document(doc: PieDocument, table: MacroTable) -> str:
    """Render the document to LaTeX, executing directives in order with
    the macros of table (as load_document returns them).  A directive
    nested too deeply to run renders as TOO_DEEP."""
    pctx = ProcessingContext(table)
    parts = []
    for item in doc.items:
        if isinstance(item, LatexFragment):
            parts.append(item.text.strip("\n"))
        elif isinstance(item, ConfigDefault):
            pctx.defaults[item.key] = item.value
        elif isinstance(item, MacroDefStatement):
            parts.append(_render_macro_def(item))
        elif isinstance(item, Directive):
            try:
                text = run_directive(item, pctx).text
            except RecursionError:
                text = TOO_DEEP
            if text:
                parts.append(text)
        else:
            raise DocumentError(f"unknown document item {item!r}")
    return "\n\n".join(parts) + "\n"


def process_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    doc, table = load_document(src)
    return process_document(doc, table=table)
