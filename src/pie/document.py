"""Literate document processing: PIE source files interleaving macro
definitions, reasoner directives, and LaTeX prose, rendered to LaTeX.

Statements are terminated by `.`; block comments `/* ... */` between
statements pass through as LaTeX fragments.  Documents are loaded
completely (building the macro table) before any directive runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .elimination import EliminationTask, eliminate
from .formula import Context, Formula, Implies
from .interpolation import InterpolationTask, interpolate
from .macros import (
    BUILTINS, BuiltinCall, MacroDefinition, MacroError, MacroTable,
    define_macro, expand, is_placeholder,
)
from .preprocess import PIPELINES
from .prover import ProverConfig, validate
from .syntax import ParseError, Parser, print_latex


class DocumentError(Exception):
    pass


# ---------------------------------------------------------------------------
# Document items

@dataclass
class MacroDefStatement:
    definition: MacroDefinition
    source: str


@dataclass
class Directive:
    kind: str               # 'elim' | 'ipol' | 'valid' | 'form'
    formula: Formula
    options: dict
    source: str


@dataclass
class LatexFragment:
    text: str


@dataclass
class ConfigDefault:
    key: str
    value: object


@dataclass
class PieDocument:
    items: list


# ---------------------------------------------------------------------------
# Statement scanner

def _scan_statements(src: str):
    """Split source into ('fragment', text) / ('statement', text) parts."""
    out = []
    i, n = 0, len(src)
    buf = []
    buf_start = 0

    def buf_blank():
        return not "".join(buf).strip()

    while i < n:
        ch = src[i]
        if ch == "%":
            j = src.find("\n", i)
            i = n if j < 0 else j + 1
            buf.append(" ")
            continue
        if src.startswith("/*", i):
            j = src.find("*/", i + 2)
            if j < 0:
                raise DocumentError("unterminated block comment")
            if buf_blank():
                out.append(("fragment", src[i + 2:j]))
            i = j + 2
            continue
        if ch == "'":
            j = src.find("'", i + 1)
            if j < 0:
                raise DocumentError("unterminated quoted atom")
            buf.append(src[i:j + 1])
            i = j + 1
            continue
        if ch == "." and (i + 1 >= n or src[i + 1].isspace()):
            stmt = "".join(buf).strip()
            if stmt:
                out.append(("statement", stmt))
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    if not buf_blank():
        raise DocumentError("source ends inside a statement "
                            "(missing final '.')")
    return out


# ---------------------------------------------------------------------------
# Statement parsing

def _parse_def(stmt: str) -> MacroDefinition:
    p = Parser(stmt)
    t = p.next()
    if not (t.kind == "name" and t.text == "def"):
        raise ParseError("expected 'def'", t.pos)
    p.expect("(")
    name = p._name()
    params = []
    if p.at("("):
        p.next()
        params.append(p.parse_arg(frozenset()))
        while p.at(","):
            p.next()
            params.append(p.parse_arg(frozenset()))
        p.expect(")")
    p.expect(")")
    p.expect("::")
    template = p.parse_formula()
    steps = []
    if p.at("::-"):
        p.next()
        steps.append(_parse_step(p))
        while p.at(","):
            p.next()
            steps.append(_parse_step(p))
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
    if p.at("("):
        p.next()
        if not p.at(")"):
            args.append(p.parse_arg(frozenset()))
            while p.at(","):
                p.next()
                args.append(p.parse_arg(frozenset()))
        p.expect(")")
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
    from .formula import Atom, Fn
    if isinstance(a, Fn) and not a.args and is_placeholder(a.functor):
        return a.functor
    if isinstance(a, Atom) and not a.args and is_placeholder(a.pred):
        return a.pred
    return None


_DIRECTIVE_KINDS = {"ppl_elim": "elim", "ppl_ipol": "ipol",
                    "ppl_valid": "valid", "ppl_form": "form"}


def _parse_directive(stmt: str):
    p = Parser(stmt)
    p.expect(":-")
    t = p.next()
    if t.kind != "name":
        raise ParseError("expected a directive name", t.pos)
    if t.text == "ppl_default":
        p.expect("(")
        key = p._name()
        p.expect("=")
        value = _parse_option_value(p)
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
        from .macros import as_formula
        formula = as_formula(formula)
    options = {}
    if p.at(","):
        p.next()
        options = _parse_options(p)
    p.expect(")")
    p.expect(")")
    p.check_end()
    return Directive(kind, formula, options, stmt)


def _parse_options(p: Parser) -> dict:
    p.expect("[")
    opts = {}
    if not p.at("]"):
        while True:
            key = p._name()
            p.expect("=")
            opts[key] = _parse_option_value(p)
            if p.at(","):
                p.next()
                continue
            break
    p.expect("]")
    return opts


def _parse_option_value(p: Parser):
    if p.at("["):
        p.next()
        items = []
        pairs = {}
        if not p.at("]"):
            while True:
                t = p.peek()
                if t.kind == "name":
                    nxt = p.tokens[p.i + 1]
                    if nxt.kind == "op" and nxt.text == "=":
                        p.next()
                        p.next()
                        pairs[t.text] = _parse_option_value(p)
                        items.append(None)
                        if p.at(","):
                            p.next()
                            continue
                        break
                items.append(_parse_option_value(p))
                if p.at(","):
                    p.next()
                    continue
                break
        p.expect("]")
        if pairs and all(x is None for x in items):
            return pairs
        return [x for x in items if x is not None]
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
    if p.at("("):
        # wrapper call such as printstyle('/path'): take the argument
        p.next()
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
    for kind, text in _scan_statements(src):
        if kind == "fragment":
            items.append(LatexFragment(text))
            continue
        if text.startswith(":-"):
            try:
                items.append(_parse_directive(text))
            except RecursionError:
                items.append(LatexFragment(TOO_DEEP))
            continue
        if text.startswith("def"):
            try:
                mdef = _parse_def(text)
                table = define_macro(table, mdef)
            except RecursionError:
                items.append(LatexFragment(DEF_TOO_DEEP))
                continue
            items.append(MacroDefStatement(mdef, text))
            continue
        raise DocumentError(f"cannot classify statement: {text[:60]!r}")
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
    """The reasoner timeout: PIE_TIMEOUT_MS if it is a number of
    milliseconds, else SYSTEM_DEFAULTS["timeout_ms"]."""
    env = os.environ.get("PIE_TIMEOUT_MS")
    if env and env.isdigit():
        return int(env)
    return SYSTEM_DEFAULTS["timeout_ms"]


def system_defaults():
    return {**SYSTEM_DEFAULTS, "timeout_ms": default_timeout_ms()}


@dataclass
class ProcessingContext:
    table: MacroTable
    ctx: Context = field(default_factory=Context)
    defaults: dict = field(default_factory=system_defaults)


@dataclass
class DirectiveResult:
    status: str            # 'ok' | 'failed'
    text: str              # LaTeX rendering ('' when printing=false)
    formula: Formula | None = None
    detail: str = ""


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
    value if it is not one."""
    try:
        return int(opts[key])
    except (TypeError, ValueError):
        raise ValueError(
            f"option {key}={opts[key]} is not an integer") from None


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
    from .syntax import latex_symbol
    mdef = item.definition
    head = latex_symbol(mdef.name)
    if mdef.params:
        parts = []
        for prm in mdef.params:
            parts.append(_param_text(prm))
        head += "(" + ",".join(parts) + ")"
    return ("\\noindent\\textbf{def}\\ $" + head + "$:\n"
            + _display(mdef.template))


def _param_text(prm):
    from .formula import Atom, Fn
    from .syntax import latex_symbol, print_term
    if isinstance(prm, Fn) and not prm.args:
        return "\\mathit{" + prm.functor + "}"
    if isinstance(prm, Atom) and not prm.args:
        return "\\mathit{" + prm.pred + "}"
    if isinstance(prm, Fn):
        return latex_symbol(prm.functor) + "(" + ",".join(
            _param_text(a) for a in prm.args) + ")"
    return print_term(prm)


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
