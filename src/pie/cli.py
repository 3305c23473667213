"""Command-line interface.

Exit status: 0 success, 1 reasoning failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from .document import (
    DocumentError, default_timeout_ms, load_document, process_file,
)
from .elimination import EliminationTask, eliminate
from .formula import Context, Implies
from .interpolation import InterpolationTask, interpolate
from .macros import MacroError, MacroTable, expand
from .preprocess import PreprocessError, clausify
from .prover import ProverConfig, validate
from .syntax import EmitError, ParseError, emit_dimacs, emit_tptp, \
    parse_formula, print_text


def _timeout_ms(args) -> int:
    timeout = getattr(args, "timeout", None)
    return default_timeout_ms() if timeout is None else timeout


def _positive_int(text) -> int:
    """--timeout's type: a positive number of milliseconds."""
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive number of milliseconds")
    return int(text)


def _load_table(args) -> MacroTable:
    if getattr(args, "doc", None):
        with open(args.doc, encoding="utf-8") as fh:
            _, table = load_document(fh.read())
        return table
    return MacroTable()


def _expand_arg(args):
    f = parse_formula(args.formula)
    return expand(_load_table(args), f, Context())


def cmd_process(args) -> int:
    out = process_file(args.file)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_expand(args) -> int:
    print(print_text(_expand_arg(args)))
    return 0


def cmd_elim(args) -> int:
    f = _expand_arg(args)
    task = EliminationTask(f, pre=args.pre, simp_result=args.simp,
                           timeout_ms=_timeout_ms(args))
    out = eliminate(task)
    if out.status != "success":
        print(f"elimination failed ({out.status}): {out.reason}",
              file=sys.stderr)
        return 1
    print(print_text(out.result))
    return 0


def cmd_ipol(args) -> int:
    f = _expand_arg(args)
    if not isinstance(f, Implies):
        print("interpolation needs an implication F -> G", file=sys.stderr)
        return 2
    cfg = ProverConfig(timeout_ms=_timeout_ms(args))
    task = InterpolationTask(f.lhs, f.rhs,
                             simp_sides=not args.no_simp_sides,
                             dot_path=args.dot)
    out = interpolate(task, cfg)
    if out.status != "interpolant":
        print(f"interpolation failed ({out.status})", file=sys.stderr)
        return 1
    print(print_text(out.formula))
    return 0


def cmd_valid(args) -> int:
    f = _expand_arg(args)
    cfg = ProverConfig(timeout_ms=_timeout_ms(args))
    out = validate(f, cfg)
    if out.status == "valid":
        print("valid")
        return 0
    if out.status == "invalid":
        print("not valid")
        if out.model is not None:
            print(out.model.describe())
    else:
        print("failed to validate")
    return 1


def cmd_tptp(args) -> int:
    f = _expand_arg(args)
    print(emit_tptp(args.name, args.role, f), end="")
    return 0


def cmd_dimacs(args) -> int:
    f = _expand_arg(args)
    cf = clausify(f)
    text, _mapping = emit_dimacs(cf)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pie",
        description="First-order workbench: elimination, interpolation, "
                    "validity, and literate document processing.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process", help="render a PIE document to LaTeX")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_process)

    def formula_cmd(name, help_, func, **extra):
        q = sub.add_parser(name, help=help_)
        q.add_argument("formula")
        q.add_argument("--doc", help="PIE document supplying macros")
        q.add_argument("--timeout", type=_positive_int,
                       help="reasoner timeout in milliseconds")
        q.set_defaults(func=func)
        return q

    formula_cmd("expand", "expand macros, print text syntax", cmd_expand)
    q = formula_cmd("elim", "second-order quantifier elimination", cmd_elim)
    q.add_argument("--pre", choices=["c6", "d6"])
    q.add_argument("--simp", choices=["c6"])
    q = formula_cmd("ipol", "Craig-Lyndon interpolation of F -> G",
                    cmd_ipol)
    q.add_argument("--no-simp-sides", action="store_true")
    q.add_argument("--dot", help="write the proof tableau as DOT")
    formula_cmd("valid", "three-valued validity check", cmd_valid)
    q = formula_cmd("tptp", "emit TPTP FOF", cmd_tptp)
    q.add_argument("--name", default="f")
    q.add_argument("--role", default="axiom")
    formula_cmd("dimacs", "clausify and emit DIMACS CNF", cmd_dimacs)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, DocumentError, MacroError, PreprocessError,
            EmitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
