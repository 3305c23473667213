"""Literate document processing and LaTeX rendering."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from pie.document import (
    DEF_TOO_DEEP, TOO_DEEP, ConfigDefault, Directive, DocumentError,
    LatexFragment, MacroDefStatement, ProcessingContext, load_document,
    process_document, process_file, run_directive,
)
from pie.formula import Atom, Implies
from pie.syntax import ParseError, parse_formula, print_text

from oracles import prop_corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                       "workbench.pie")
# the fixture's LaTeX, committed so that refactorings are checked against it
GOLDEN = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                      "workbench.tex")


# ---------------------------------------------------------------------------
# Scanning and loading

def test_statement_scanner_splits_on_period_whitespace():
    # a period terminates only when followed by whitespace or EOF, so
    # periods inside quoted atoms do not split the statement
    doc, _ = load_document("def(kb) :: p(a), q('b.c').\n")
    (item,) = doc.items
    assert isinstance(item, MacroDefStatement)


def test_fragments_pass_through():
    doc, _ = load_document("/* \\emph{prose} */\ndef(m) :: p.\n")
    assert isinstance(doc.items[0], LatexFragment)
    assert doc.items[0].text.strip() == "\\emph{prose}"


def test_line_comments_ignored():
    doc, _ = load_document("% a comment\ndef(m) :: p.  % trailing\n")
    assert len(doc.items) == 1


def test_unterminated_statement_rejected():
    with pytest.raises(DocumentError):
        load_document("def(m) :: p")


def test_unknown_statement_rejected():
    with pytest.raises(DocumentError):
        load_document("frobnicate(m).\n")


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        load_document(":- ppl_frobnicate(p).\n")


def test_directive_with_options():
    doc, _ = load_document(
        ":- ppl_printtime(ppl_elim(ex2(p, p(a)), "
        "[simp_result=[c6], timeout_ms=1000])).\n")
    (d,) = doc.items
    assert isinstance(d, Directive)
    assert d.kind == "elim"
    assert d.options == {"simp_result": ["c6"], "timeout_ms": 1000}


def test_ip_dotgraph_wrapper_unwraps(tmp_path):
    doc, _ = load_document(
        ":- ppl_printtime(ppl_ipol((p, q -> (p ; r)), "
        "[ip_dotgraph=printstyle('/tmp/g.dot')])).\n")
    (d,) = doc.items
    assert d.options == {"ip_dotgraph": "/tmp/g.dot"}


def test_ppl_default():
    doc, _ = load_document(":- ppl_default(timeout_ms=1234).\n")
    (d,) = doc.items
    assert isinstance(d, ConfigDefault)
    assert (d.key, d.value) == ("timeout_ms", 1234)


@pytest.mark.parametrize("value, column", [
    ("[c6, pre=d6]", 72), ("[pre=d6, c6]", 76)])
def test_option_list_of_values_and_pairs_rejected(value, column):
    # both lists loaded as ['c6'], the pair lost
    with pytest.raises(ParseError) as e:
        load_document(":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))), "
                      f"[elim_options={value}])).\n")
    assert e.value.message == "option list mixes values and key=value pairs"
    assert str(e.value.pos) == f"1:{column}"


@pytest.mark.parametrize("statement, where", [
    ("def(m) :: p ->.", "5:15"),
    (":- ppl_printtime(ppl_valid((p ;; q))).", "5:32"),
])
def test_parse_errors_give_positions_in_the_document(statement, where):
    src = "/* prose */\n\ndef(n) :: q.\n% a comment\n" + statement + "\n"
    with pytest.raises(ParseError) as e:
        load_document(src)
    assert str(e.value.pos) == where


@pytest.mark.parametrize("src, where", [
    ("def(m) :: p.\n\n  def(n) :: q", "at 3:3 (missing final '.')"),
    ("def(m) :: p.\n frob(x).\n", "at 2:2: "),
])
def test_statement_errors_give_positions_in_the_document(src, where):
    with pytest.raises(DocumentError) as e:
        load_document(src)
    assert where in str(e.value)


@pytest.mark.parametrize("src, message, where", [
    ("def(m) :: p.\n def(n) :: 'p.\n", "unterminated quoted atom", "2:12"),
    ("def(m) :: p.\n\n  /* prose\n", "unterminated block comment", "3:3"),
])
def test_unterminated_quote_or_comment_rejected(src, message, where):
    with pytest.raises(ParseError) as e:
        load_document(src)
    assert (e.value.message, str(e.value.pos)) == (message, where)


# first-order formulas, one with a quoted atom that holds a terminator
FO_SOURCES = ["all(x, (p(x) -> ex(y, r(x,y))))",
              "ex2(p, (p(a), all(x, (p(x) -> x=a))))",
              "all([x,y], (e(x,y) -> ~(r(x), r(y))))",
              "'a. b'(c) ; c \\= d"]


@given(st.lists(st.one_of(st.sampled_from(prop_corpus(400)).map(print_text),
                          st.sampled_from(FO_SOURCES)),
                min_size=1, max_size=4))
@settings(deadline=None, max_examples=60)
def test_formulas_load_back_between_prose_and_comments(sources):
    parts = []
    for i, src in enumerate(sources):
        parts.append(f"/* \\section{{Part {i}}} Prose. With stops.\n*/\n"
                     f"def(m_{i}) :: /* inside */ {src}.  % after it\n"
                     f":- ppl_printtime(ppl_form(\n({src}))).\n")
    doc, table = load_document("".join(parts))
    want = [parse_formula(src) for src in sources]
    assert [type(x) for x in doc.items] == [
        LatexFragment, MacroDefStatement, Directive] * len(sources)
    assert [x.definition.template for x in doc.items[1::3]] == want
    assert [x.formula for x in doc.items[2::3]] == want
    assert [x.text for x in doc.items[::3]] == [
        f" \\section{{Part {i}}} Prose. With stops.\n"
        for i in range(len(sources))]
    assert [table.lookup(f"m_{i}", 0)[-1].template
            for i in range(len(sources))] == want


# ---------------------------------------------------------------------------
# Directive execution

def run_one(src, **defaults):
    doc, table = load_document(src)
    pctx = ProcessingContext(table)
    pctx.defaults.update(defaults)
    results = [run_directive(item, pctx) for item in doc.items
               if isinstance(item, Directive)]
    return results[-1], pctx


def test_valid_directive_renders_verdict():
    r, _ = run_one(":- ppl_printtime(ppl_valid((p ; ~p))).\n")
    assert r.status == "ok"
    assert "is valid" in r.text


def test_invalid_directive_renders_verdict():
    r, _ = run_one(":- ppl_printtime(ppl_valid(p)).\n")
    assert r.status == "failed"
    assert "is not valid" in r.text


def test_elim_directive_stores_last_result():
    src = (":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))))).\n"
           "def(prev) :: Prev ::- last_ppl_result(Prev).\n"
           ":- ppl_printtime(ppl_valid((prev <-> q(a)))).\n")
    r, _ = run_one(src)
    assert r.status == "ok", r.detail
    assert "is valid" in r.text


def test_printing_false_suppresses_output():
    r, _ = run_one(
        ":- ppl_printtime(ppl_valid((p ; ~p), [printing=false])).\n")
    assert r.status == "ok"
    assert r.text == ""


def test_directive_failure_is_reported_not_raised():
    r, _ = run_one(":- ppl_printtime(ppl_ipol(p)).\n")
    assert r.status == "failed"
    assert "interpolation needs" in r.text


def test_failure_reasons_are_latex_text():
    # the status not_valid and macro names were printed with a bare _,
    # which LaTeX rejects
    r, _ = run_one(":- ppl_printtime(ppl_ipol((p -> q))).\n")
    assert r.status == "failed" and r.detail == "not_valid"
    assert r.text.endswith("\ninterpolation failed (not\\_valid).")
    r, _ = run_one("def(m_x(a)) :: p.\n:- ppl_printtime(ppl_valid(m_x(b))).\n")
    assert r.detail == "no matching definition for m_x/1"
    assert r.text.endswith("\nno matching definition for m\\_x/1.")


def test_irreducible_second_order_directives_fail_alone():
    doc, table = load_document(
        ":- ppl_printtime(ppl_valid(ex2(p,p))).\n"
        ":- ppl_printtime(ppl_ipol((q -> ex2(p,p)))).\n"
        ":- ppl_printtime(ppl_valid((p ; ~p))).\n")
    lines = process_document(doc, table).splitlines()
    assert [l for l in lines if not l.startswith("\\noindent")] == [
        "failed to validate.", "", "interpolation failed (failed).", "",
        "is valid."]


VALID_P = ":- ppl_printtime(ppl_valid((p ; ~p))).\n"
VALID_P_TEXT = ("\\noindent $\\mathsf{p} \\lor \\lnot \\mathsf{p}$\\\\\n"
                "is valid.")


def test_directive_too_deep_to_parse_fails_alone():
    chain = " -> ".join(f"p{i}" for i in range(1000))
    doc, table = load_document(
        f"{VALID_P}:- ppl_printtime(ppl_valid(({chain}))).\n/*after*/\n")
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, TOO_DEEP, "after\n"]


def test_definition_too_deep_to_parse_fails_alone():
    chain = " -> ".join(f"p{i}" for i in range(1000))
    doc, table = load_document(
        f"{VALID_P}def(big) :: {chain}.\n/*after*/\n")
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, DEF_TOO_DEEP, "after\n"]
    assert not table.lookup("big", 0)


def test_directive_too_deep_to_run_fails_alone():
    f = Atom("p0")
    for i in range(1, 5000):
        f = Implies(Atom(f"p{i}"), f)
    doc, table = load_document(VALID_P + "/*after*/\n")
    doc.items.insert(1, Directive("valid", f, {}, ""))
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, TOO_DEEP, "after\n"]


def test_timeout_option_flows_into_elim():
    r, _ = run_one(
        ":- ppl_printtime(ppl_elim(ex2(p, (p ; q)), [timeout_ms=1])).\n")
    assert r.status in ("ok", "failed")


def test_non_integer_options_fail_their_directive_alone():
    # int() of these options raised out of process_document, and the
    # whole document was lost
    doc, table = load_document(
        ":- ppl_printtime(ppl_valid((p -> q), [model_size=foo])).\n"
        f"{VALID_P}"
        ":- ppl_default(timeout_ms=abc).\n"
        ":- ppl_printtime(ppl_valid((p ; ~p))).\n")
    assert process_document(doc, table).split("\n\n") == [
        "\\noindent $\\mathsf{p} \\rightarrow \\mathsf{q}$\\\\\n"
        "option model\\_size=foo is not an integer.",
        VALID_P_TEXT,
        "\\noindent $\\mathsf{p} \\lor \\lnot \\mathsf{p}$\\\\\n"
        "option timeout\\_ms=abc is not an integer.\n"]
    r, _ = run_one(VALID_P, max_depth=[1, 2])
    assert r.status == "failed"
    assert r.detail == "option max_depth=[1, 2] is not an integer"


@pytest.mark.parametrize("option", ["timeout_ms", "max_depth"])
def test_zero_budgets_fail_their_directive_alone(option):
    # a budget of 0 used to run every reasoner with none, and
    # ppl_valid((p ; ~p)) printed "failed to validate"
    doc, table = load_document(
        f":- ppl_printtime(ppl_valid((p ; ~p), [{option}=0])).\n"
        f"{VALID_P}")
    opt = option.replace("_", "\\_")
    assert process_document(doc, table).split("\n\n") == [
        "\\noindent $\\mathsf{p} \\lor \\lnot \\mathsf{p}$\\\\\n"
        f"option {opt}=0 is not positive.", VALID_P_TEXT + "\n"]
    r, _ = run_one(VALID_P, **{option: 0})
    assert r.status == "failed"
    assert r.detail == f"option {option}=0 is not positive"


def test_model_size_zero_skips_the_model_search():
    r, _ = run_one(VALID_P, model_size=0)
    assert r.status == "ok" and r.detail == "valid"


ELIM_P = ":- ppl_printtime(ppl_elim(ex2(p, (p, (p -> q(a)))), [{}])).\n"
ELIM_P_TEXT = ("\\noindent $\\exists \\mathit{{p}} \\, (\\mathsf{{p}} \\land "
               "(\\mathsf{{p}} \\rightarrow \\mathsf{{q}}(\\mathsf{{a}})))$\\\\\n"
               "{}.")


@pytest.mark.parametrize("option, reason", [
    ("elim_options=[pre=d7]", "pre=d7"),
    ("simp_result=foo", "simp\\_result=foo"),
])
def test_unknown_pipeline_fails_its_directive_alone(option, reason):
    # PIPELINES[name] raised a KeyError out of process_document, and the
    # whole document was lost
    doc, table = load_document(VALID_P + ELIM_P.format(option) + VALID_P)
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, ELIM_P_TEXT.format("unknown pipeline " + reason),
        VALID_P_TEXT + "\n"]


@pytest.mark.parametrize("value, shown", [("c6", "c6"), ("[c6]", "['c6']")])
def test_elim_options_not_pairs_fails_its_directive_alone(value, shown):
    # elim_options.get raised an AttributeError out of process_document,
    # and the whole document was lost
    doc, table = load_document(
        VALID_P + ELIM_P.format(f"elim_options={value}") + VALID_P)
    reason = (f"option elim\\_options={shown} is not a list of "
              "key=value pairs")
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, ELIM_P_TEXT.format(reason), VALID_P_TEXT + "\n"]


IPOL_PQ = ":- ppl_printtime(ppl_ipol((p, q -> (p ; r)), [ip_dotgraph={}])).\n"
IPOL_PQ_TEXT = ("\\noindent $\\mathsf{{p}} \\land \\mathsf{{q}} \\rightarrow "
                "\\mathsf{{p}} \\lor \\mathsf{{r}}$\\\\\n{}.")


def test_unwritable_dotgraph_fails_its_directive_alone(tmp_path):
    # open() raised an OSError out of process_document, and the whole
    # document was lost
    path = tmp_path / "missing" / "x.dot"
    doc, table = load_document(
        VALID_P + IPOL_PQ.format(f"printstyle('{path}')") + VALID_P)
    reason = (f"cannot write ip_dotgraph={path}: No such file or "
              "directory").replace("_", "\\_")
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, IPOL_PQ_TEXT.format(reason), VALID_P_TEXT + "\n"]


@pytest.mark.parametrize("value, shown", [("[a]", "['a']"), ("3", "3")])
def test_dotgraph_that_is_no_file_name_fails_its_directive_alone(value,
                                                                 shown):
    # open() of a list raised a TypeError out of process_document, and
    # open(3) wrote the DOT graph to file descriptor 3 and closed it
    doc, table = load_document(
        VALID_P + IPOL_PQ.format(value) + VALID_P)
    reason = f"option ip\\_dotgraph={shown} is not a file name"
    assert process_document(doc, table).split("\n\n") == [
        VALID_P_TEXT, IPOL_PQ_TEXT.format(reason), VALID_P_TEXT + "\n"]


# ---------------------------------------------------------------------------
# Definition heads

@pytest.mark.parametrize("params,head", [
    ("p(X)", r"\mathsf{p}(\mathit{X})"),
    ("[X,Y]", r"[\mathit{X},\mathit{Y}]"),
    ("~X, [p, [Y]]", r"\lnot \mathit{X},[\mathsf{p},[\mathit{Y}]]"),
    ("(X, q -> r(Y))",
     r"(\mathit{X} \land \mathsf{q} \rightarrow \mathsf{r}(\mathit{Y}))"),
])
def test_definition_parameters_of_any_shape_render(params, head):
    # the head printer took only terms and raised on compound formulas
    # and lists
    doc, table = load_document(f"def(m({params})) :: X.\n")
    assert process_document(doc, table) == (
        f"\\noindent\\textbf{{def}}\\ $\\mathsf{{m}}({head})$:\n"
        "\\[\n\\mathsf{X}\n\\]\n")


def test_definition_head_writes_parameters_as_symbols():
    # T1 and P_p are written as the body writes them, but in italics
    doc, table = load_document("def(m(T1, P_p)) :: T1, P_p.\n")
    head, _, body = process_document(doc, table).partition(":\n")
    assert head == (r"\noindent\textbf{def}\ "
                    r"$\mathsf{m}(\mathit{T_{1}},\mathit{P}^{'})$")
    assert r"\mathsf{T_{1}}" in body and r"\mathsf{P}^{'}" in body


# ---------------------------------------------------------------------------
# Full document processing

def test_defaults_apply_in_document_order():
    src = (":- ppl_default(printing=false).\n"
           ":- ppl_printtime(ppl_valid((p ; ~p))).\n")
    doc, table = load_document(src)
    out = process_document(doc, table=table)
    assert "is valid" not in out


def test_fixture_document_is_deterministic():
    out1 = process_file(FIXTURE)
    out2 = process_file(FIXTURE)
    assert out1 == out2
    with open(GOLDEN, encoding="utf-8") as fh:
        assert out1 == fh.read()


def test_fixture_document_content():
    out = process_file(FIXTURE)
    assert "Result of elimination" in out
    assert "Result of interpolation" in out
    assert "is valid" in out
    assert "\\section{" in out


def test_env_timeout_respected(monkeypatch):
    monkeypatch.setenv("PIE_TIMEOUT_MS", "1234")
    from pie.document import system_defaults
    assert system_defaults()["timeout_ms"] == 1234


@pytest.mark.parametrize("value", ["0", "00", "-5", "abc", "\u00b2"])
def test_env_timeout_must_be_a_positive_integer(monkeypatch, value):
    # PIE_TIMEOUT_MS=0 used to run every reasoner with no budget
    monkeypatch.setenv("PIE_TIMEOUT_MS", value)
    from pie.document import system_defaults
    assert system_defaults()["timeout_ms"] == 5000
