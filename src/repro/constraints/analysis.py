"""Static analysis over constraint ASTs.

The paper's central judgements — conflict detection (``Omega ⊨ false``) and
entailment between constraints (Section 5.2.1) — are *static* properties of
schemas, yet the engine historically discovered them at run time when a
commit failed.  This module decides them at schema time, as four composable
passes producing :class:`Diagnostic` records:

1. **Lint** (:func:`lint_constraint`) — resolve every attribute path,
   comparison, aggregate, key and function call against the schema.
   Malformed constraints surface as source-located ``error`` diagnostics
   instead of runtime ``EvaluationError``s.

2. **Per-constraint satisfiability** (:func:`check_satisfiability`) — flag
   constraints that are individually UNSAT (always violated — the class can
   never hold an object) or tautological (dead — they can never reject
   anything).  Soundness follows the solver's contract: an UNSAT verdict is
   always correct, even when the formula contains opaque atoms; a SAT verdict
   outside the solver's sound fragment is reported honestly as *unknown*
   (``info``), never as a clean bill of health.

3. **Cross-constraint analysis** (:func:`cross_constraint_diagnostics`) —
   for each class, the conjunction of its effective object constraints is the
   paper's ``Omega``; pairwise and joint contradictions are ``error``
   (``Omega ⊨ false`` before any data exists), and entailment-based
   subsumption (``C1 ⊨ C2`` ⇒ C2 redundant) is ``warn``.

4. **Redundancy pruning** (:func:`prunable_constraints`) — the subset of
   subsumption verdicts that is *safe to act on*: a pruned constraint must be
   entailed by a keeper that is effective on every class the pruned one is,
   triggered by every delta that triggers the pruned one, and the pruned
   formula must be incapable of raising at evaluation time (in-fragment,
   dereference-free, lint-clean).  Under those conditions removing it from
   the incremental hot path cannot change any accept/reject verdict:
   whenever it would have rejected an object, the keeper rejects the same
   object in the same pass.  Audits and full revalidation never prune.

The update-pattern simplification dispatch (Martinenghi-style) lives with the
dependency index in :mod:`repro.engine.incremental` — it is semantics-
preserving and always on; this module supplies only the *pruning* refinement,
which is gated behind ``ObjectStore(analyze=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro.constraints.ast import (
    Aggregate,
    BinaryOp,
    Comparison,
    FunctionCall,
    KeyConstraint,
    Literal,
    Membership,
    NamedConstant,
    Node,
    Path,
    Quantified,
    SetLiteral,
)
from repro.constraints.evaluate import BUILTIN_FUNCTIONS
from repro.constraints.model import Constraint, ConstraintKind
from repro.constraints.normalize import negate
from repro.constraints.scope import (
    NOT_A_REFERENCE,
    UNBOUND_PATH,
    UNKNOWN_ATTRIBUTE,
    UNKNOWN_CLASS,
    Scope,
    traverse,
)
from repro.constraints.solver import Solver, TypeEnvironment
from repro.errors import SolverError
from repro.types.primitives import BoolType, ClassRef, EnumType, SetType, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.tm.schema import DatabaseSchema

__all__ = [
    "Diagnostic",
    "AnalysisReport",
    "analyze_schema",
    "lint_schema",
    "lint_constraint",
    "check_satisfiability",
    "cross_constraint_diagnostics",
    "pairwise_conflicts",
    "prunable_constraints",
    "in_solver_fragment",
]

#: Severity rank for sorting (most severe first).
_SEVERITY_RANK: dict[str, int] = {"error": 0, "warn": 1, "info": 2}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyser.

    ``severity`` is ``"error"`` (the constraint is malformed or the schema is
    inconsistent), ``"warn"`` (suspicious but evaluable — redundancy, unbound
    constants, unknown functions), or ``"info"`` (honest reporting: unknown
    satisfiability outside the solver fragment, dead tautologies).
    """

    severity: str
    code: str
    message: str
    constraint: str | None = None
    line: int | None = None
    column: int | None = None

    def location(self) -> str:
        if self.line is None:
            return ""
        if self.column is None:
            return f"line {self.line}"
        return f"line {self.line}, col {self.column}"

    def render(self) -> str:
        where = []
        if self.constraint:
            where.append(self.constraint)
        location = self.location()
        if location:
            where.append(f"({location})")
        prefix = " ".join(where)
        head = f"{self.severity}: {prefix} " if prefix else f"{self.severity}: "
        return f"{head}[{self.code}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.constraint is not None:
            payload["constraint"] = self.constraint
        if self.line is not None:
            payload["line"] = self.line
        if self.column is not None:
            payload["column"] = self.column
        return payload


@dataclass
class AnalysisReport:
    """The collected diagnostics of one analysis run."""

    schema: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warn"]

    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    def exit_code(self) -> int:
        """``2`` on any error, ``1`` on warnings only, ``0`` clean.

        ``info`` diagnostics never affect the exit code — honest "unknown"
        reports must not fail a CI gate.
        """
        if self.errors():
            return 2
        if self.warnings():
            return 1
        return 0

    def sorted(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (
                _SEVERITY_RANK.get(d.severity, 3),
                d.constraint or "",
                d.line or 0,
                d.column or 0,
                d.code,
            ),
        )

    def render_text(self) -> str:
        lines = [d.render() for d in self.sorted()]
        lines.append(
            f"{self.schema}: {len(self.errors())} error(s), "
            f"{len(self.warnings())} warning(s), {len(self.infos())} info(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": self.schema,
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "infos": len(self.infos()),
            "exit_code": self.exit_code(),
        }


# ---------------------------------------------------------------------------
# fragment membership
# ---------------------------------------------------------------------------


def in_solver_fragment(formula: Node) -> bool:
    """Whether the solver's SAT answers are reliable for ``formula``.

    Quantifiers, aggregates, key constraints and function calls are treated
    as *opaque boolean atoms* by the solver: UNSAT verdicts over them remain
    sound (an opaque atom asserted both ways is still a contradiction), but a
    SAT verdict may hide a semantic contradiction the solver cannot see.
    """
    return not any(
        isinstance(node, (Quantified, Aggregate, KeyConstraint, FunctionCall))
        for node in formula.walk()
    )


def _dereference_free(formula: Node) -> bool:
    """No multi-segment paths: evaluation can never chase a dangling
    reference, so (given clean lint) it cannot raise ``EngineError``."""
    return not any(
        isinstance(node, Path) and len(node.parts) > 1 for node in formula.walk()
    )


# ---------------------------------------------------------------------------
# pass 1: type / well-formedness lint
# ---------------------------------------------------------------------------


#: A path's diagnostic message, by the reason its walk stopped (the code).
_PATH_MESSAGES = {
    UNBOUND_PATH: "path {path!r} is not rooted at a quantified variable, "
    "and the constraint has no owning class",
    NOT_A_REFERENCE: "path {path!r} dereferences through {through!r}, "
    "which is not a reference attribute",
    UNKNOWN_CLASS: "path {path!r} traverses unknown class {on!r}",
    UNKNOWN_ATTRIBUTE: "class {on} has no attribute {at!r} (in path {path!r})",
}


class _Linter:
    """Walks one constraint formula by the scope rule and path walk of
    :mod:`repro.constraints.scope`, which the read-set extractor
    (:mod:`repro.engine.incremental`), schema validation and conformation
    share, emitting diagnostics instead of read sets."""

    def __init__(self, schema: "DatabaseSchema", constraint: Constraint):
        self.schema = schema
        self.constraint = constraint
        self.diagnostics: list[Diagnostic] = []

    def _emit(self, severity: str, code: str, message: str, node: Node) -> None:
        pos = node.position()
        self.diagnostics.append(
            Diagnostic(
                severity,
                code,
                message,
                constraint=self.constraint.qualified_name,
                line=pos[0] if pos else None,
                column=pos[1] if pos else None,
            )
        )

    def run(self) -> list[Diagnostic]:
        scope = Scope(self.schema, self.constraint.owner)
        traverse(self.constraint.formula, scope, self._visit)
        return self.diagnostics

    # -- traversal -----------------------------------------------------------

    def _visit(self, node: Node, scope: Scope) -> Node | None:
        """Check one node; ``None`` descends into its children."""
        if isinstance(node, Quantified):
            if self.schema.has_class(node.class_name):
                return None
            self._emit(
                "error",
                "unknown-class",
                f"quantifier ranges over unknown class {node.class_name!r}",
                node,
            )
        elif isinstance(node, Aggregate):
            base = scope.base(node)
            if base is None:
                self._emit(
                    "error",
                    "unbound-self",
                    "aggregate over 'self' in a constraint with no owning class",
                    node,
                )
            elif not self.schema.has_class(base):
                self._emit(
                    "error",
                    "unknown-class",
                    f"aggregate ranges over unknown class {base!r}",
                    node,
                )
            elif node.over is not None and scope.resolve_over(node).failure:
                self._emit(
                    "error",
                    "unknown-attribute",
                    f"class {base} has no attribute {node.over!r} "
                    f"(aggregate 'over' target)",
                    node,
                )
        elif isinstance(node, KeyConstraint):
            owner = scope.owner
            if owner is None or not self.schema.has_class(owner):
                self._emit(
                    "error",
                    "unbound-self",
                    "key constraint outside a class",
                    node,
                )
                return node
            for attr in node.attributes:
                if scope.resolve_key(attr).failure:
                    self._emit(
                        "error",
                        "unknown-attribute",
                        f"class {owner} has no attribute {attr!r} (key component)",
                        node,
                    )
        elif isinstance(node, Path):
            resolution = scope.resolve(node)
            if resolution.failure is not None:
                message = resolution.explain(_PATH_MESSAGES, node)
                self._emit("error", resolution.failure, message, node)
        elif isinstance(node, FunctionCall):
            if node.name not in BUILTIN_FUNCTIONS:
                self._emit(
                    "warn",
                    "unknown-function",
                    f"function {node.name!r} is not built in; it must be "
                    f"supplied at evaluation time (EvalContext.functions)",
                    node,
                )
            return None
        elif isinstance(node, NamedConstant):
            if node.name not in self.schema.constants:
                self._emit(
                    "warn",
                    "unbound-constant",
                    f"named constant {node.name!r} has no binding in the schema",
                    node,
                )
        elif isinstance(node, Comparison):
            traverse(node.left, scope, self._visit)
            traverse(node.right, scope, self._visit)
            self._check_comparison(node, scope)
        else:
            return None
        return node

    # -- comparisons ---------------------------------------------------------

    def _check_comparison(self, node: Comparison, scope: Scope) -> None:
        left = self._type_kind(node.left, scope)
        right = self._type_kind(node.right, scope)
        if left is None or right is None or left == right:
            return
        if node.op in ("<", "<=", ">", ">="):
            # Python refuses the ordered comparison: guaranteed runtime
            # EvaluationError on every evaluation.
            self._emit(
                "error",
                "incomparable-types",
                f"ordered comparison between {left} and {right} "
                f"always fails at evaluation time",
                node,
            )
        else:
            self._emit(
                "warn",
                "constant-comparison",
                f"comparison between {left} and {right} has a constant verdict",
                node,
            )

    def _type_kind(self, node: Node, scope: Scope) -> str | None:
        """A coarse static kind — ``number`` / ``string`` / ``bool`` — or
        ``None`` when unknown (references, sets, opaque calls)."""
        if isinstance(node, Literal):
            return _kind_of_value(node.value)
        if isinstance(node, NamedConstant):
            bound = self.schema.constants.get(node.name)
            if bound is None or isinstance(bound, (set, frozenset, list, tuple)):
                return None
            return _kind_of_value(bound)
        if isinstance(node, (BinaryOp, Aggregate)):
            return "number"
        if isinstance(node, Path):
            end = scope.resolve(node).end
            return _kind_of_type(end.tm_type) if end is not None else None
        return None


def _kind_of_value(value: object) -> str | None:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return None


def _kind_of_type(tm_type: Type) -> str | None:
    if isinstance(tm_type, (ClassRef, SetType)):
        return None
    if isinstance(tm_type, BoolType):
        return "bool"
    if isinstance(tm_type, EnumType):
        kinds = {_kind_of_value(value) for value in tm_type.values}
        return kinds.pop() if len(kinds) == 1 else None
    if tm_type.is_numeric:
        return "number"
    return "string" if tm_type.describe() == "string" else None


def lint_constraint(schema: "DatabaseSchema", constraint: Constraint) -> list[Diagnostic]:
    """Pass 1 for one constraint: every unresolvable name is a located error."""
    return _Linter(schema, constraint).run()


def lint_schema(schema: "DatabaseSchema") -> list[Diagnostic]:
    """Pass 1 over every constraint of the schema."""
    diagnostics: list[Diagnostic] = []
    for constraint in schema.all_constraints():
        diagnostics.extend(lint_constraint(schema, constraint))
    return diagnostics


# ---------------------------------------------------------------------------
# pass 2: per-constraint satisfiability
# ---------------------------------------------------------------------------


def _environment_for(
    schema: "DatabaseSchema", constraint: Constraint
) -> TypeEnvironment:
    if constraint.owner is not None and schema.has_class(constraint.owner):
        env = schema.type_environment(constraint.owner)
        assert isinstance(env, TypeEnvironment)
        return env
    return TypeEnvironment({}, schema.constants)


def check_satisfiability(
    schema: "DatabaseSchema", constraint: Constraint
) -> list[Diagnostic]:
    """Pass 2 for one constraint: UNSAT / tautology / honest unknown."""
    formula = constraint.formula
    pos = formula.position()
    line, column = (pos if pos else (None, None))
    name = constraint.qualified_name
    solver = Solver(_environment_for(schema, constraint))
    try:
        if solver.is_unsatisfiable(formula):
            return [
                Diagnostic(
                    "error",
                    "unsatisfiable",
                    "constraint is unsatisfiable under the declared types: "
                    "every object (or state) violates it",
                    constraint=name,
                    line=line,
                    column=column,
                )
            ]
        if solver.is_unsatisfiable(negate(formula)):
            return [
                Diagnostic(
                    "info",
                    "tautology",
                    "constraint is a tautology under the declared types: "
                    "it can never reject anything (dead constraint)",
                    constraint=name,
                    line=line,
                    column=column,
                )
            ]
    except SolverError as exc:
        return [
            Diagnostic(
                "info",
                "analysis-skipped",
                f"satisfiability analysis skipped: {exc}",
                constraint=name,
                line=line,
                column=column,
            )
        ]
    if not in_solver_fragment(formula):
        return [
            Diagnostic(
                "info",
                "analysis-unknown",
                "satisfiable as far as the solver can see, but the formula "
                "contains opaque atoms (quantifier/aggregate/key/function) "
                "outside the solver's sound fragment",
                constraint=name,
                line=line,
                column=column,
            )
        ]
    return []


# ---------------------------------------------------------------------------
# pass 3: cross-constraint contradiction and subsumption
# ---------------------------------------------------------------------------


def _object_constraint_sets(
    schema: "DatabaseSchema",
) -> Iterator[tuple[str, list[Constraint]]]:
    """Per concrete class, its effective object constraints (own+inherited)."""
    for class_name in schema.classes:
        constraints = schema.effective_object_constraints(class_name)
        if constraints:
            yield class_name, constraints


def cross_constraint_diagnostics(schema: "DatabaseSchema") -> list[Diagnostic]:
    """Pass 3: the paper's ``Omega ⊨ false`` per class, plus subsumption.

    For each class, ``Omega`` is the conjunction of its effective object
    constraints under that class's typing.  Pairwise contradictions and a
    whole-``Omega`` joint contradiction are errors (conflicts are sound even
    over opaque atoms); ``C1 ⊨ C2`` subsumption is a warning.  Each finding
    is reported once, at the first class where it appears.
    """
    diagnostics: list[Diagnostic] = []
    conflict_seen: set[frozenset[str]] = set()
    subsume_seen: set[tuple[str, str]] = set()
    joint_seen: set[frozenset[str]] = set()
    for class_name, constraints in _object_constraint_sets(schema):
        if len(constraints) < 2:
            continue
        solver = Solver(schema.type_environment(class_name))
        pair_conflict_here = False
        skipped = False
        for i, first in enumerate(constraints):
            for second in constraints[i + 1 :]:
                names = frozenset({first.qualified_name, second.qualified_name})
                try:
                    conflicting = solver.conflicts(first.formula, second.formula)
                except SolverError:
                    skipped = True
                    continue
                if conflicting:
                    pair_conflict_here = True
                    if names not in conflict_seen:
                        conflict_seen.add(names)
                        diagnostics.append(
                            _pair_diagnostic(
                                "error",
                                "contradiction",
                                first,
                                second,
                                f"constraints contradict each other on "
                                f"class {class_name}: no object can "
                                f"satisfy both",
                            )
                        )
                    continue
                for premise, conclusion in ((first, second), (second, first)):
                    key = (premise.qualified_name, conclusion.qualified_name)
                    if key in subsume_seen:
                        continue
                    if premise.formula == conclusion.formula:
                        # Equal formulas subsume both ways; report once.
                        if (key[1], key[0]) in subsume_seen:
                            continue
                    try:
                        entailed = solver.entails(
                            premise.formula, conclusion.formula
                        )
                    except SolverError:
                        skipped = True
                        continue
                    if entailed:
                        subsume_seen.add(key)
                        diagnostics.append(
                            _pair_diagnostic(
                                "warn",
                                "redundant",
                                conclusion,
                                premise,
                                f"constraint is redundant on class "
                                f"{class_name}: implied by "
                                f"{premise.qualified_name}",
                            )
                        )
        if not pair_conflict_here and len(constraints) > 2:
            names = frozenset(c.qualified_name for c in constraints)
            try:
                jointly = names not in joint_seen and solver.conflicts(
                    *[c.formula for c in constraints]
                )
            except SolverError:
                skipped, jointly = True, False
            if jointly:
                joint_seen.add(names)
                diagnostics.append(
                    Diagnostic(
                        "error",
                        "joint-contradiction",
                        f"the effective object constraints of class "
                        f"{class_name} are jointly unsatisfiable: "
                        + ", ".join(sorted(names)),
                    )
                )
        if skipped:
            diagnostics.append(
                Diagnostic(
                    "info",
                    "analysis-skipped",
                    f"some cross-constraint checks were skipped on class "
                    f"{class_name} (formula outside the solver's reach)",
                )
            )
    return diagnostics


def _pair_diagnostic(
    severity: str,
    code: str,
    subject: Constraint,
    other: Constraint,
    message: str,
) -> Diagnostic:
    pos = subject.formula.position()
    return Diagnostic(
        severity,
        code,
        message,
        constraint=subject.qualified_name,
        line=pos[0] if pos else None,
        column=pos[1] if pos else None,
    )


def pairwise_conflicts(
    pairs: Iterable[tuple[Constraint, Constraint]],
    env: TypeEnvironment | None = None,
) -> list[Diagnostic]:
    """Conflict diagnostics for explicit constraint pairs.

    The integration workbench uses this across *merged* schemas: conformed
    local/remote constraints allocated to matched classes are checked for
    ``Omega ⊨ false`` before any data exists.  A conflict verdict is sound
    regardless of fragment (see module docstring)."""
    solver = Solver(env)
    diagnostics: list[Diagnostic] = []
    seen: set[frozenset[str]] = set()
    for left, right in pairs:
        names = frozenset({left.qualified_name, right.qualified_name})
        if len(names) < 2 or names in seen:
            continue
        try:
            conflicting = solver.conflicts(left.formula, right.formula)
        except SolverError:
            continue
        if conflicting:
            seen.add(names)
            diagnostics.append(
                _pair_diagnostic(
                    "error",
                    "contradiction",
                    left,
                    right,
                    f"constraints {left.qualified_name} and "
                    f"{right.qualified_name} cannot both hold: the merged "
                    f"schema is inconsistent before any data exists",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# pass 4: redundancy pruning (feeds the enforcement hot path)
# ---------------------------------------------------------------------------


def prunable_constraints(schema: "DatabaseSchema") -> dict[Constraint, Constraint]:
    """Map each *safely prunable* object constraint to its keeper.

    A constraint ``C2`` may be skipped by incremental enforcement when some
    keeper ``C1`` guarantees that every rejection ``C2`` would have produced
    is still produced:

    * both are object constraints and ``C1 ⊨ C2`` under the typing of every
      class where ``C2`` is effective (subclasses may redeclare attribute
      types, so entailment is checked per class in the owner closure);
    * ``C1`` is declared on ``C2``'s owner or an ancestor of it, so it is
      effective on (at least) every object ``C2`` is effective on;
    * ``C2``'s read set is contained in ``C1``'s (attrs, foreign reads and
      extents, with ``C2`` not universal), so every delta that schedules a
      ``C2`` check also schedules the ``C1`` check on the same object;
    * ``C2`` cannot raise at evaluation time: in the solver fragment,
      dereference-free, and lint-clean (no errors *or* warnings) — so
      "``C2`` rejects" always means "``C2`` evaluates to false", which by
      entailment means ``C1`` evaluates to false on the same object.

    Keepers are chosen greedily in ``qualified_name`` order; a constraint
    already pruned cannot keep another (so an equivalent pair loses exactly
    one member).
    """
    from repro.engine.incremental import ConstraintDependencyIndex

    index = ConstraintDependencyIndex.for_schema(schema)
    candidates: list[Constraint] = [
        c
        for c in schema.all_constraints()
        if c.kind is ConstraintKind.OBJECT and c.owner is not None
    ]
    candidates.sort(key=lambda c: c.qualified_name)
    lint_clean: dict[Constraint, bool] = {
        c: not lint_constraint(schema, c) for c in candidates
    }
    pruned: dict[Constraint, Constraint] = {}
    for victim in candidates:
        entry = index.entry(victim)
        if (
            entry is None
            or entry.universal
            or not lint_clean[victim]
            or not in_solver_fragment(victim.formula)
            or not _dereference_free(victim.formula)
        ):
            continue
        assert victim.owner is not None
        closure = schema.subclass_closure(victim.owner)
        for keeper in candidates:
            if keeper is victim or keeper in pruned:
                continue
            if keeper.formula == victim.formula and (
                keeper.qualified_name > victim.qualified_name
            ):
                continue  # of an identical pair, the name-ordered first keeps
            assert keeper.owner is not None
            if not schema.is_subclass_of(victim.owner, keeper.owner):
                continue
            keeper_entry = index.entry(keeper)
            if keeper_entry is None:
                continue
            if not (
                entry.attrs <= keeper_entry.attrs
                and entry.foreign <= keeper_entry.foreign
                and entry.extents <= keeper_entry.extents
            ):
                continue
            try:
                entailed = all(
                    Solver(schema.type_environment(cls)).entails(
                        keeper.formula, victim.formula
                    )
                    for cls in closure
                )
            except SolverError:
                continue
            if entailed:
                pruned[victim] = keeper
                break
    return pruned


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def analyze_schema(
    schema: "DatabaseSchema", include_info: bool = True
) -> AnalysisReport:
    """Run every pass over ``schema`` and collect the findings.

    Redundancies that :func:`prunable_constraints` would act on are the same
    subsumption warnings pass 3 reports; this function does not re-derive
    them.  ``include_info=False`` drops info-level diagnostics (tautologies,
    honest unknowns) for terse output; errors and warnings are always kept.
    """
    report = AnalysisReport(schema=schema.name)
    report.extend(lint_schema(schema))
    for constraint in schema.all_constraints():
        report.extend(check_satisfiability(schema, constraint))
    report.extend(cross_constraint_diagnostics(schema))
    if not include_info:
        report.diagnostics = [
            d for d in report.diagnostics if d.severity != "info"
        ]
    return report


def registration_errors(schema: "DatabaseSchema") -> list[Diagnostic]:
    """The error-level findings an ``analyze=True`` store rejects a schema on."""
    report = analyze_schema(schema, include_info=False)
    return report.errors()


def summarize(reports: Mapping[str, AnalysisReport]) -> dict[str, object]:
    """Aggregate multiple per-schema reports (CLI multi-file mode)."""
    return {
        "schemas": {name: report.to_dict() for name, report in reports.items()},
        "exit_code": max(
            (report.exit_code() for report in reports.values()), default=0
        ),
    }
