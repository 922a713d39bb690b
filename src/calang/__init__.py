"""CAL: a constraint aggregation language for stateless, message-passing
components.

The library parses box declarations, evaluates their clauses through
unification and exact rational arithmetic, compiles clauses to Horn
form, and aggregates functional and cost constraints across networks of
connected boxes.  The ``calang`` command-line tool fronts the same
operations.
"""

from .arith import (
    DEFAULT_CONSTANTS,
    NumericValue,
    PredicateFailure,
    apply_builtin,
    eval_numeric,
    eval_relation,
)
from .clauses import (
    BoxDeclaration,
    Clause,
    Evaluation,
    Predicate,
    SemanticError,
    evaluate_box,
    evaluate_condition,
    fire_clause,
    flatten_provided,
    parse_box,
)
from .syntax import CalSyntaxError, parse_declaration, parse_program, parse_term, render, tokenize
from .terms import (
    Num,
    SetTerm,
    Sym,
    Term,
    Tup,
    Var,
    VarScope,
    VarSupply,
    check_set_wellformed,
    classify,
    desugar,
    fresh_variable,
    term_text,
)
from .unify import BindingStore, resolve, unify_sets

__version__ = "0.1.0"

__all__ = [
    "BindingStore",
    "BoxDeclaration",
    "CalSyntaxError",
    "Clause",
    "DEFAULT_CONSTANTS",
    "Evaluation",
    "Num",
    "NumericValue",
    "Predicate",
    "PredicateFailure",
    "SemanticError",
    "SetTerm",
    "Sym",
    "Term",
    "Tup",
    "Var",
    "VarScope",
    "VarSupply",
    "apply_builtin",
    "check_set_wellformed",
    "classify",
    "desugar",
    "eval_numeric",
    "eval_relation",
    "evaluate_box",
    "evaluate_condition",
    "fire_clause",
    "flatten_provided",
    "fresh_variable",
    "parse_box",
    "parse_declaration",
    "parse_program",
    "parse_term",
    "render",
    "resolve",
    "term_text",
    "tokenize",
    "unify_sets",
]
