"""Command-line interface: exit codes and output shapes."""

import io
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from pie.cli import main
from pie.formula import Occ, free_symbols
from pie.syntax import parse_formula

from oracles import fo_equivalent

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                       "workbench.pie")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_valid_exit_codes(capsys):
    code, out, _ = run(capsys, "valid", "p ; ~p")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "valid", "p -> q")
    assert code == 1 and out.startswith("not valid")
    assert "domain size" in out


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "valid", "p ->")
    assert code == 2 and "error:" in err


def test_elim(capsys):
    code, out, _ = run(capsys, "elim", "ex2(p, (p, (p -> q(a))))")
    assert code == 0 and out.strip() == "q(a)"


def test_elim_result_keeps_constants_free(capsys):
    # the quantifiers that un-Skolemization puts back do not bind x
    code, out, _ = run(capsys, "elim",
                       "ex2(q, (q(a), all(z, ex(w, r(z,w,x)))))",
                       "--simp", "c6")
    assert code == 0
    g = parse_formula(out)
    assert Occ("x", "function", 0, "both") in free_symbols(g)
    assert fo_equivalent(g, parse_formula("all(z, ex(w, r(z,w,x)))"))


def test_elim_nonreducible_exit(capsys):
    code, _, err = run(capsys, "elim",
                       "ex2(p, all([x,y], ((p(x), r(x,y)) -> p(y))))")
    assert code in (0, 1)


def test_ipol(capsys):
    code, out, _ = run(capsys, "ipol", "(p, q -> (p ; r))")
    assert code == 0 and out.strip() == "p"


def test_ipol_needs_implication(capsys):
    code, _, err = run(capsys, "ipol", "p")
    assert code == 2


def test_ipol_dot(capsys, tmp_path):
    dot = tmp_path / "t.dot"
    code, out, _ = run(capsys, "ipol",
                       "(all(x, p(x)), all(x, (p(x) -> q(x))) -> q(c))",
                       "--no-simp-sides", "--dot", str(dot))
    assert code == 0
    assert out.strip() == "all(x, q(x))"
    assert dot.read_text().startswith("digraph")


def test_tptp_and_dimacs(capsys):
    code, out, _ = run(capsys, "tptp", "all(x, p(x))", "--name", "ax")
    assert code == 0 and out == "fof(ax, axiom, (! [X] : p(X))).\n"
    code, out, _ = run(capsys, "dimacs", "(p ; q), (~p ; r)")
    assert code == 0 and out.startswith("p cnf ")


def test_expand_with_doc(capsys):
    code, out, _ = run(capsys, "expand", "kb2", "--doc", FIXTURE)
    assert code == 0 and "all(x" in out


def test_process_writes_output(capsys, tmp_path):
    target = tmp_path / "out.tex"
    code, out, _ = run(capsys, "process", FIXTURE, "-o", str(target))
    assert code == 0
    assert "Result of interpolation" in target.read_text()


def test_process_survives_non_integer_options(capsys, tmp_path):
    doc = tmp_path / "bad.pie"
    doc.write_text(
        ":- ppl_printtime(ppl_valid((p -> q), [model_size=foo])).\n"
        ":- ppl_default(timeout_ms=abc).\n"
        ":- ppl_printtime(ppl_valid((p ; ~p))).\n")
    code, out, err = run(capsys, "process", str(doc))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "option model\\_size=foo is not an integer" in out
    assert "option timeout\\_ms=abc is not an integer" in out


@pytest.mark.parametrize("option", [
    "elim_options=[pre=d7]", "simp_result=foo"])
def test_process_survives_unknown_pipeline(capsys, tmp_path, option):
    doc = tmp_path / "bad.pie"
    doc.write_text(
        ":- ppl_printtime(ppl_valid((p ; ~p))).\n"
        f":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))), [{option}])).\n"
        ":- ppl_printtime(ppl_valid((p -> p))).\n")
    code, out, err = run(capsys, "process", str(doc))
    assert code == 0
    assert "Traceback" not in err
    name = option.split("[")[-1].rstrip("]").replace("_", "\\_")
    assert f"unknown pipeline {name}." in out
    assert out.count("is valid.") == 2


@pytest.mark.parametrize("value", ["c6", "[c6]"])
def test_process_survives_elim_options_not_pairs(capsys, tmp_path, value):
    doc = tmp_path / "bad.pie"
    doc.write_text(
        ":- ppl_printtime(ppl_valid((p ; ~p))).\n"
        ":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))), "
        f"[elim_options={value}])).\n"
        ":- ppl_printtime(ppl_valid((p -> p))).\n")
    code, out, err = run(capsys, "process", str(doc))
    assert code == 0
    assert "Traceback" not in err
    assert "is not a list of key=value pairs." in out
    assert out.count("is valid.") == 2


def test_process_survives_unwritable_dotgraph(capsys, tmp_path):
    doc = tmp_path / "bad.pie"
    dot = tmp_path / "missing" / "x.dot"
    doc.write_text(
        ":- ppl_printtime(ppl_valid((p ; ~p))).\n"
        ":- ppl_printtime(ppl_ipol((p, q -> (p ; r)), "
        f"[ip_dotgraph=printstyle('{dot}')])).\n"
        ":- ppl_printtime(ppl_valid((p -> p))).\n")
    code, out, err = run(capsys, "process", str(doc))
    assert code == 0
    assert err == ""
    assert "No such file or directory." in out
    assert out.count("is valid.") == 2
    # the ipol subcommand writes the graph itself: a usage error
    code, out, err = run(capsys, "ipol", "--dot", str(dot), "p, q -> (p ; r)")
    assert code == 2
    assert "No such file or directory" in err


@pytest.mark.parametrize("definition", [
    "def(foo(p(X))) :: X.", "def(bar([X,Y])) :: X."])
def test_process_renders_compound_and_list_parameters(capsys, tmp_path,
                                                      definition):
    doc = tmp_path / "def.pie"
    doc.write_text(definition + "\n:- ppl_printtime(ppl_valid((p ; ~p))).\n")
    code, out, err = run(capsys, "process", str(doc))
    assert (code, err) == (0, "")
    assert out.startswith("\\noindent\\textbf{def}\\ $\\mathsf{")
    assert "(\\mathit{X}" in out or "[\\mathit{X}" in out
    assert out.endswith("is valid.\n")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "process", "/nonexistent/x.pie")
    assert code == 2


def test_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_env_timeout(capsys, monkeypatch):
    monkeypatch.setenv("PIE_TIMEOUT_MS", "50")
    code, out, _ = run(capsys, "valid", "p ; ~p")
    assert code == 0


def test_deep_nesting_is_usage_error(capsys):
    chain = " -> ".join(f"p{i}" for i in range(1000))
    code, out, err = run(capsys, "valid", chain)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, line", [
    (["valid", "ex2(p,p)"], "failed to validate"),
    (["valid", "lambda(x,p(x))"], "failed to validate"),
    (["ipol", "q -> ex2(p,p)"], "interpolation failed (failed)"),
], ids=["valid-ex2", "valid-lambda", "ipol-ex2"])
def test_irreducible_second_order_input_is_a_failure(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 1 and (out + err).strip() == line


# ---------------------------------------------------------------------------
# Fuzz: every subcommand answers any input within its budget, with exit
# code 0, 1 or 2 and no traceback

_LEAVES = ["p", "q", "r(a)", "r(x)", "s(x,y)", "s(f(x),a)", "a=b",
           "x=f(y)", "true", "false", "lambda(x, r(x))"]
_TEXTS = st.recursive(
    st.sampled_from(_LEAVES),
    lambda sub: st.one_of(
        sub.map(lambda f: f"~{f}"),
        st.tuples(sub, st.sampled_from([",", ";", "->", "<->", "<-"]), sub)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["all", "ex", "all2", "ex2"]),
                  st.sampled_from(["x", "[x,y]", "p", "r"]), sub)
        .map(lambda t: f"{t[0]}({t[1]}, {t[2]})")),
    max_leaves=8)
_TOKENS = st.lists(st.sampled_from(
    ["p", "q", "r", "x", "a", "f", "all", "ex2", "lambda", "(", ")", "[",
     "]", ",", ";", "->", "<->", "~", "=", "::", ".", "'", "0", " "]),
    max_size=14).map("".join)


def test_elim_of_a_lambda_under_all2_is_a_reasoning_failure(capsys):
    # found by the fuzz test below: nnf raised on the unapplied lambda
    code, _, err = run(capsys, "elim", "all2(x, lambda(x, r(x)))")
    assert code == 1 and "nonreducible" in err


@given(st.sampled_from(["valid", "elim", "ipol", "expand", "tptp",
                        "dimacs"]),
       st.one_of(_TEXTS, _TOKENS))
@settings(deadline=None, max_examples=150)
def test_cli_answers_any_input_within_its_budget(cmd, text):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([cmd, text, "--timeout", "200"])
    assert time.monotonic() - t0 < 1.2 * 0.2 + 0.05
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("value", ["[c6, pre=d6]", "[pre=d6, c6]"])
def test_process_rejects_option_list_of_values_and_pairs(capsys, tmp_path,
                                                         value):
    doc = tmp_path / "mixed.pie"
    doc.write_text(
        ":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))), "
        f"[elim_options={value}])).\n")
    code, out, err = run(capsys, "process", str(doc))
    assert code == 2 and out == ""
    assert err.startswith("error: option list mixes values and key=value "
                          "pairs at 1:")


# Pieces of PIE documents: whole statements, the terminator with and
# without whitespace after it, quotes, and both kinds of comment
_DOC_PIECES = st.lists(st.sampled_from(
    ["def(m) :: p", "def(n(X)) :: X, q",
     ":- ppl_printtime(ppl_valid((p ; ~p)))",
     ":- ppl_printtime(ppl_form(n(r)))",
     ":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))), "
     "[elim_options=[pre=c6]]))", ".", ". ", ".\n", "'",
     "'a. b'", "% note\n", "/*", "*/", "/* prose. */", "\n", " ", "(", ")",
     "[", "]", ",", "=", "::", ":-", "p", "m"]),
    max_size=16).map("".join)


@given(_DOC_PIECES)
@settings(deadline=None, max_examples=100)
def test_process_answers_any_document(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.pie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(":- ppl_default(timeout_ms=200).\n" + text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["process", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_import_leaves_out_dataclasses_and_inspect():
    # every subcommand pays for importing the package; these two took
    # about a third of it while the records were dataclasses.  Only the
    # modules that import pie adds count: a site-packages .pth file may
    # load inspect before any user code runs.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys; before = set(sys.modules); import pie; "
            "print(sorted({'dataclasses', 'inspect'}"
            " & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
