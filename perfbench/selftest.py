"""Self-test of the benchmark's checkers, then a one-pass smoke run.

    python3 perfbench/selftest.py

Each oracle must reject a deliberately wrong result and accept the right
one; then every workload runs one pass and must show no problem beyond
its known faults.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pie import parse_formula as parse  # noqa: E402
from pie.document import DirectiveResult  # noqa: E402
from pie.elimination import EliminationOutcome  # noqa: E402
from pie.interpolation import Interpolant  # noqa: E402
from pie.prover import Model, ValidationResult  # noqa: E402

FAILURES = []


def expect(what, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def kind(op, outcome):
    return op.judge(outcome)[0]


def test_verdicts():
    invalid = workloads._countermodel_op("t", parse("p -> q"), "invalid")
    valid = workloads._countermodel_op("t", parse("p ; ~p"), "valid")
    expect("flipped verdict 'valid' on an invalid formula is wrong",
           kind(invalid, ValidationResult("valid")) == "wrong")
    expect("flipped verdict 'invalid' on a valid formula is wrong",
           kind(valid, ValidationResult("invalid")) == "wrong")
    expect("'unknown' counts as failed, not wrong",
           kind(invalid, ValidationResult("unknown")) == "failed")
    theorem = workloads._theorem_op("t", parse("all(x, p(x)) -> p(a)"))
    proof = theorem.run()
    expect("a checked proof is accepted", kind(theorem, proof) == "ok")
    leaf = next(proof.tableau.leaves())
    leaf.literal = (not leaf.literal[0], leaf.literal[1])
    expect("a tableau with a flipped literal is rejected",
           kind(theorem, proof) == "wrong")
    expect("the small-domain oracle refutes 'valid' for p -> q",
           oracles.check_verdict(parse("p -> q"), "valid") is not None)
    expect("the small-domain oracle accepts 'valid' for p ; ~p",
           oracles.check_verdict(parse("p ; ~p"), "valid") is None)


def test_countermodels():
    f = parse("all(x, (p(x) -> q(x))) -> all(x, (q(x) -> p(x)))")
    op = workloads._countermodel_op("t", f, "invalid")
    satisfying = Model(1, {}, {("p", 1): {(1,)}, ("q", 1): {(1,)}})
    falsifying = Model(1, {}, {("p", 1): set(), ("q", 1): {(1,)}})
    expect("a model that satisfies the formula is rejected",
           kind(op, ValidationResult("invalid", model=satisfying))
           == "wrong")
    expect("a falsifying model is accepted",
           kind(op, ValidationResult("invalid", model=falsifying)) == "ok")
    partial = Model(1, {}, {("p", 1): set()})
    expect("a model missing a symbol is rejected",
           kind(op, ValidationResult("invalid", model=partial)) == "wrong")


def test_elimination():
    src = ("ex2([p], (all(x, (q(x) -> p(x))), all(x, (q(f(x)) -> p(x))), "
           "all(x, (p(x) -> r(x)))))")
    op = workloads._elim_op("t", workloads._macro_table(""), parse(src),
                            parse(src), {"elim": ["p"]})
    right = parse("all(x, ((q(x) ; q(f(x))) -> r(x)))")
    short = parse("all(x, (q(x) -> r(x)))")
    expect("an elimination result off by one disjunct is rejected",
           kind(op, EliminationOutcome("success", result=short)) == "wrong")
    expect("the right elimination result is accepted",
           kind(op, EliminationOutcome("success", result=right)) == "ok")
    expect("a result still holding the predicate is rejected",
           oracles.check_elimination(parse(src), parse(
               "all(x, (q(x) -> p(x)))"), ["p"]) is not None)
    prop = parse("ex2([p], ((p -> a), (b -> p)))")
    expect("a propositional result off by one disjunct is rejected",
           oracles.check_elimination(prop, parse("~b"), ["p"])
           is not None)
    expect("the Shannon expansion of a propositional input is accepted",
           oracles.check_elimination(prop, parse("b -> a"), ["p"]) is None)


def test_interpolants():
    meaning = parse("(p, q) -> (p ; r)")
    op = workloads._ipol_op("t", workloads._macro_table(""), meaning,
                            meaning)
    expect("an interpolant with a private symbol is rejected",
           kind(op, Interpolant(parse("p, q"))) == "wrong")
    expect("an interpolant with a private constant is rejected",
           oracles.check_interpolant(parse("all(x, p(x))"),
                                     parse("p(a) ; r"),
                                     parse("p(b)")) is not None)
    expect("an interpolant of the wrong polarity is rejected",
           oracles.check_interpolant(parse("p"), parse("p ; q"),
                                     parse("(p ; ~p), p")) is not None)
    expect("the interpolant p is accepted",
           kind(op, Interpolant(parse("p"))) == "ok")


def test_documents():
    src, expected = workloads.seeded_document(workloads.random.Random(0),
                                              0, 1, 1)
    op = workloads._document_op("t", src, expected)
    first = op.run()
    expect("the first rendering of a generated document passes",
           kind(op, first) == "ok")
    expect("a rendering that differs from the first is rejected",
           kind(op, first.replace("is valid.", "is valid!")) == "wrong")
    expect("a rendering with a failure line is rejected",
           kind(op, first + "\nelimination failed (resources).") != "ok")
    kind_, meaning, extra = expected[2]
    expect("a flipped directive verdict is rejected",
           workloads.check_directive(kind_, parse(meaning), extra,
                                     DirectiveResult("failed", "", None,
                                                     "invalid"))[0]
           == "wrong")


def smoke():
    for name, (make_inputs, prepare) in workloads.WORKLOADS.items():
        ops = prepare(make_inputs(0))
        tally = worker.Tally(ops)
        wall = tally.one_pass()
        faults = sum(1 for i in tally.order if ops[i].known_fault)
        expect(f"smoke run of {name}: {len(tally.order)} operations in "
               f"{wall:.2f} s, {tally.failed} failed (known faults: "
               f"{faults})",
               not tally.problems and tally.failed == faults)
        for problem in tally.problems:
            print(f"     {problem}")


def main():
    test_verdicts()
    test_countermodels()
    test_elimination()
    test_interpolants()
    test_documents()
    smoke()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
