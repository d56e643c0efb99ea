"""The first-order constraint language of the paper.

Figure 1 of the paper attaches three kinds of *static* integrity constraints
to TM classes:

* **object constraints** — conditions on the state of a single (complex)
  object, implicitly universally quantified over the class extent
  (``oc1: ourprice <= shopprice``);
* **class constraints** — conditions on the extent of one class, including
  aggregates and key constraints
  (``cc2: (sum (collect x for x in self) over ourprice) < MAX``);
* **database constraints** — conditions spanning several classes
  (``db1: forall p in Publisher exists i in Item | i.publisher = p``).

This package implements the language end to end: an immutable AST
(:mod:`~repro.constraints.ast`), a lexer and recursive-descent parser that
accept the Figure 1 surface syntax (:mod:`~repro.constraints.parser`), a
pretty-printer that round-trips (:mod:`~repro.constraints.printer`), structural
classification (:mod:`~repro.constraints.classify`), normalisation into the
paper's *normalised constraints* (:mod:`~repro.constraints.normalize`), the
one scope rule and path walk every schema-aware pass resolves names by
(:mod:`~repro.constraints.scope`),
evaluation against object states (:mod:`~repro.constraints.evaluate`) and the
symbolic solver used for conflict detection and entailment
(:mod:`~repro.constraints.solver`).
"""

from repro.constraints.ast import (
    Aggregate,
    And,
    BinaryOp,
    Comparison,
    FalseFormula,
    FunctionCall,
    Implies,
    KeyConstraint,
    Literal,
    Membership,
    NamedConstant,
    Node,
    Not,
    Or,
    Path,
    Quantified,
    SetLiteral,
    TrueFormula,
)
from repro.constraints.model import Constraint, ConstraintKind
from repro.constraints.parser import parse_constraint, parse_expression
from repro.constraints.printer import to_source
from repro.constraints.classify import classify_formula
from repro.constraints.normalize import negate, split_conjunction, to_dnf, to_nnf
from repro.constraints.evaluate import EvalContext, evaluate
from repro.constraints.solver import (
    Solver,
    TypeEnvironment,
    entails,
    is_satisfiable,
)

__all__ = [
    "Node",
    "Literal",
    "SetLiteral",
    "NamedConstant",
    "Path",
    "BinaryOp",
    "FunctionCall",
    "Aggregate",
    "Comparison",
    "Membership",
    "Not",
    "And",
    "Or",
    "Implies",
    "Quantified",
    "KeyConstraint",
    "TrueFormula",
    "FalseFormula",
    "Constraint",
    "ConstraintKind",
    "parse_expression",
    "parse_constraint",
    "to_source",
    "classify_formula",
    "split_conjunction",
    "to_nnf",
    "to_dnf",
    "negate",
    "evaluate",
    "EvalContext",
    "Solver",
    "TypeEnvironment",
    "entails",
    "is_satisfiable",
]
