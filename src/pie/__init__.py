"""First-order logic workbench.

Formula macros, second-order quantifier elimination, Craig-Lyndon
interpolation from clausal tableaux, a model-elimination prover with a
finite countermodel finder, CNF/DNF preprocessing with
un-Skolemization, and a literate document processor emitting LaTeX.
"""

from .formula import (
    And, Atom, Context, Eq, Exists, Exists2, FALSE, Falsity, Fn, ForAll,
    ForAll2, Formula, Iff, Implies, Lambda, MacroCall, Not, Or, PredSpec,
    TRUE, Term, Truth, Var, conj, disj, free_symbols, free_vars,
    is_first_order, neg, nnf,
)
from .syntax import (
    ParseError, emit_dimacs, emit_qdimacs, emit_tptp, parse_formula,
    parse_term, print_latex, print_text,
)
from .macros import (
    BuiltinCall, MacroDefinition, MacroError, MacroTable, define_macro,
    expand,
)
from .preprocess import (
    Clause, ClausalForm, PreprocessError, UnskolemizeError, clausify,
    pipeline_c6, pipeline_d6, simplify_clausal, unskolemize,
)
from .prover import (
    Model, ProofResult, ProverConfig, TableauNode, ValidationResult,
    check_tableau, find_countermodel, prove, prove_clausal, validate,
    reduce_so_universal,
)
from .interpolation import (
    Interpolant, InterpolationTask, emit_tableau_dot, extract_from_tableau,
    generalize_constants, interpolate, symmetric_interpolate,
)
from .elimination import (
    EliminationOutcome, EliminationTask, ackermann_rewrite, eliminate,
    eliminate_staged, truth_simplify,
)
from .document import (
    Directive, DocumentError, LatexFragment, PieDocument, load_document,
    process_document, process_file, run_directive,
)

__version__ = "0.1.0"
