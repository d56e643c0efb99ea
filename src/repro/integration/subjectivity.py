"""Objectivity and subjectivity analysis (Section 5.1).

*Properties*: a property involved in a ``propeq`` inherits its status from
the decision function's category (Section 5.1.2) — see
:meth:`repro.integration.decision.DecisionFunction.objective_sides`.
Properties not involved in any equivalence have a single source and are
objective.

*Constraints* (Section 5.1.3): the consistency rule is **subjectivity of
values implies subjectivity of constraints** — a constraint involving any
subjective property is necessarily subjective.  The implication is
one-directional: the designer may declare constraints subjective even when
they involve only objective properties (business rules such as ``cc2`` of
Publication or the intro's ``salary < 1500``), but declaring a constraint
*objective* while it involves subjective properties makes the specification
inconsistent — reported as a violation.

Class constraints default to subjective ("as classifications themselves are
inherently subjective, so are class constraints", Section 5.2.2) and database
constraints are always subjective (Section 5.2.3); their exceptional
propagation cases are handled in :mod:`repro.integration.class_constraints`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.constraints.ast import Node, Path
from repro.constraints.model import Constraint, ConstraintKind
from repro.constraints.scope import Scope, traverse
from repro.integration.relationships import Side
from repro.integration.spec import IntegrationSpecification
from repro.tm.schema import DatabaseSchema


class PropertyStatus(enum.Enum):
    OBJECTIVE = "objective"
    SUBJECTIVE = "subjective"


@dataclass(frozen=True)
class ConstraintStatus:
    """The objectivity verdict for one constraint, with its justification."""

    subjective: bool
    reason: str


@dataclass
class SubjectivityAnalysis:
    """The result of :func:`analyse_subjectivity`."""

    spec: IntegrationSpecification
    #: (side, declared class, property) → status, for propeq'd properties.
    property_status: dict[tuple[Side, str, str], PropertyStatus] = field(
        default_factory=dict
    )
    #: qualified constraint name → status.
    constraint_status: dict[str, ConstraintStatus] = field(default_factory=dict)
    #: Consistency violations (objective declarations over subjective values).
    violations: list[str] = field(default_factory=list)

    # -- property queries ------------------------------------------------------

    def status_of_property(self, side: Side, class_name: str, prop: str) -> PropertyStatus:
        """The status of ``class_name.prop`` on ``side``: that of the propeq
        covering it (declarations on ancestors cover subclasses), objective
        if none does."""
        propeq = self.spec.propeq_for(side, class_name, prop)
        if propeq is None:
            return PropertyStatus.OBJECTIVE
        return self.property_status[side, propeq.class_on(side), prop]

    def subjective_properties_in(
        self, constraint: Constraint, side: Side
    ) -> set[tuple[str, str]]:
        """The paper's Ξ(φ): subjective properties constrained by ``φ``.

        Returns the ``(class, property)`` steps of every path, resolved in
        its scope (``publisher.name`` on Proceedings reads
        ``Proceedings.publisher`` and ``Publisher.name``); unresolvable
        segments are skipped (validation reports them).
        """
        found: set[tuple[str, str]] = set()
        if constraint.owner is None:
            return found

        def visit(node: Node, scope: Scope) -> Node | None:
            if not isinstance(node, Path):
                return None
            for step in scope.resolve(node).steps:
                if (
                    self.status_of_property(side, step.class_name, step.attribute)
                    is PropertyStatus.SUBJECTIVE
                ):
                    found.add((step.class_name, step.attribute))
            return node

        traverse(constraint.formula, Scope(self.spec.schema_on(side), constraint.owner), visit)
        return found


def analyse_subjectivity(spec: IntegrationSpecification) -> SubjectivityAnalysis:
    """Run the Section 5.1 analysis over both schemas of ``spec``."""
    analysis = SubjectivityAnalysis(spec)
    _classify_properties(spec, analysis)
    for side in (Side.LOCAL, Side.REMOTE):
        schema = spec.schema_on(side)
        for constraint in schema.all_constraints():
            status = _classify_constraint(spec, analysis, schema, side, constraint)
            analysis.constraint_status[constraint.qualified_name] = status
    return analysis


def _classify_properties(
    spec: IntegrationSpecification, analysis: SubjectivityAnalysis
) -> None:
    for propeq in spec.propeqs:
        objective_sides = propeq.df.objective_sides()
        for side in (Side.LOCAL, Side.REMOTE):
            status = (
                PropertyStatus.OBJECTIVE
                if side in objective_sides
                else PropertyStatus.SUBJECTIVE
            )
            key = (side, propeq.class_on(side), propeq.property_on(side))
            # If several propeqs touch one property, subjectivity wins (any
            # source of value non-determinism taints the property).
            existing = analysis.property_status.get(key)
            if existing is PropertyStatus.SUBJECTIVE:
                continue
            analysis.property_status[key] = status


def _classify_constraint(
    spec: IntegrationSpecification,
    analysis: SubjectivityAnalysis,
    schema: DatabaseSchema,
    side: Side,
    constraint: Constraint,
) -> ConstraintStatus:
    name = constraint.qualified_name
    declared_subjective = name in spec.declared_subjective
    declared_objective = name in spec.declared_objective

    if constraint.kind is ConstraintKind.DATABASE:
        if declared_objective:
            analysis.violations.append(
                f"{name}: database constraints cannot be objective "
                "(Section 5.2.3)"
            )
        return ConstraintStatus(True, "database constraints are subjective")

    subjective_props = analysis.subjective_properties_in(constraint, side)
    if subjective_props:
        rendered = ", ".join(sorted(f"{c}.{p}" for c, p in subjective_props))
        if declared_objective:
            analysis.violations.append(
                f"{name}: declared objective but involves subjective "
                f"properties ({rendered}) — subjectivity of values implies "
                "subjectivity of constraints (Section 5.1.3)"
            )
        return ConstraintStatus(
            True, f"involves subjective properties: {rendered}"
        )

    if declared_subjective:
        return ConstraintStatus(True, "declared subjective by the designer")

    if constraint.kind is ConstraintKind.CLASS:
        if declared_objective:
            return ConstraintStatus(
                False, "class constraint declared objective by the designer"
            )
        return ConstraintStatus(
            True, "class constraints are subjective by default (Section 5.2.2)"
        )

    return ConstraintStatus(False, "objective by default")
