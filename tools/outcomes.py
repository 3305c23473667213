"""Record the outcome of every benchmark operation, or compare two records.

    python3 tools/outcomes.py record OUT.json [--seeds 1 2 3]
    python3 tools/outcomes.py diff OLD.json NEW.json

Run from the root of a checkout; the package is imported from `src/` and
the operations from `perfbench/workloads.py`.  `record` runs each
operation of the four workloads once per seed and writes, per operation,
its judgement (kind and reason, as the benchmark judges it) and its
signature: the values `workloads.py` compares between passes, with
formulas written by `print_text` and models by `Model.describe`.  A
`documents` operation has no signature; its LaTeX is recorded instead
(the LaTeX holds no timings, so nothing needs masking).  A proof (a
`theorems` operation) also records its tableau in pre-order, so a
changed proof shows even when its counts do not.

`diff` prints every operation whose record differs, field by field, and
exits 1 if there is one.  To compare a change with its parent, record
both checkouts with this file and diff the two records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from pie.formula import Formula  # noqa: E402
from pie.prover import Model, ProofResult  # noqa: E402
from pie.syntax import print_text  # noqa: E402


def plain(x):
    """x as JSON data."""
    if isinstance(x, Formula):
        return print_text(x)
    if isinstance(x, Model):
        return x.describe()
    if isinstance(x, (tuple, list)):
        return [plain(y) for y in x]
    return x


def preorder(root):
    """A closed tableau as one row per node in pre-order: sign, literal
    text, side, the input clause it instantiates, and the pre-order
    position of the ancestor that closes it (the root's row holds only
    its start clause)."""
    nodes = list(root.nodes())
    pos = {id(n): i for i, n in enumerate(nodes)}
    return [[None, None, None, n.clause_index, None] if n.literal is None
            else [n.literal[0], print_text(n.literal[1]), n.side,
                  n.clause_index, pos.get(id(n.closed_by))]
            for n in nodes]


def record(seeds):
    out = {}
    for name, (inputs, prepare) in workloads.WORKLOADS.items():
        for seed in seeds:
            for op in prepare(inputs(seed)):
                print(f"{name} {seed} {op.name}", file=sys.stderr)
                try:
                    result = op.run()
                except Exception as e:  # a raise is an outcome too
                    out[f"{name}/{seed}/{op.name}"] = {
                        "raised": f"{type(e).__name__}: {e}"}
                    continue
                kind, reason = op.judge(result)
                sig = result if op.signature is None else \
                    op.signature(result)
                rec = out[f"{name}/{seed}/{op.name}"] = {
                    "judgement": [kind, reason], "signature": plain(sig)}
                if isinstance(result, ProofResult) and result.tableau:
                    rec["tableau"] = preorder(result.tableau)
    return out


def diff(old, new):
    """Lines that name each operation whose record differs."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                lines.append(f"{key}: {field} {a.get(field)!r} -> "
                             f"{b.get(field)!r}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record")
    r.add_argument("out")
    r.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    args = ap.parse_args(argv)
    if args.command == "record":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record(args.seeds), fh, indent=1, sort_keys=True)
        return 0
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    lines = diff(old, new)
    print("\n".join(lines) or "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
