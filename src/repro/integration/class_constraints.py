"""Integration of class constraints (Section 5.2.2).

"As classifications themselves are inherently subjective, so are class
constraints" — the default is that class constraints do **not** propagate to
the integrated view.  Two exceptions:

* **Objective extension** — a class touched by no equality or strict
  similarity rule keeps its local extension in the view, so all its class
  constraints remain valid.
* **Key constraints** — the one inheritable class constraint has an
  interoperation analogue: the key constraint on ``C`` stays valid iff every
  equality rule on ``C`` is a key-to-key condition (``Eq(O, O') <-
  O.k = O'.k'`` with ``k`` key of ``C``, ``k'`` key of ``C'``) and
  similarity rules only add objects from classes that have such equality
  rules as well.

A class constraint the designer insists is objective despite a non-objective
extension "must either be provable ... or any addition ... must be rejected
by a global integrity enforcing mechanism" — reported as requiring global
enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.ast import Comparison, KeyConstraint, Node, Path
from repro.constraints.model import ConstraintKind
from repro.constraints.normalize import split_conjunction
from repro.integration.conformation import ConformationResult
from repro.integration.derivation import GlobalConstraint
from repro.integration.relationships import Side
from repro.integration.rules import ComparisonRule
from repro.integration.spec import IntegrationSpecification


@dataclass
class ClassConstraintReport:
    """Outcome of the Section 5.2.2 analysis."""

    #: Class constraints valid on the integrated view.
    propagated: list[GlobalConstraint] = field(default_factory=list)
    #: (qualified name, reason) for constraints that stay local.
    retained_locally: list[tuple[str, str]] = field(default_factory=list)
    #: Constraints declared objective that need a global enforcement
    #: mechanism to stay valid.
    needs_global_enforcement: list[tuple[str, str]] = field(default_factory=list)
    #: Classes with objective extension, per side.
    objective_extension: dict[Side, set[str]] = field(
        default_factory=lambda: {Side.LOCAL: set(), Side.REMOTE: set()}
    )


def integrate_class_constraints(
    spec: IntegrationSpecification, conformation: ConformationResult
) -> ClassConstraintReport:
    """Run the Section 5.2.2 analysis for both sides."""
    report = ClassConstraintReport()
    counter = 1
    for side in (Side.LOCAL, Side.REMOTE):
        conformed = conformation.on(side)
        schema = conformed.schema
        affected = spec.affected_classes(side)
        report.objective_extension[side] = {
            name for name in schema.classes if name not in affected
        }
        for class_def in schema.classes.values():
            qualified_class = f"{schema.name}.{class_def.name}"
            for constraint in class_def.own_class_constraints():
                original = conformed.original_name(constraint)
                if class_def.name not in affected:
                    report.propagated.append(
                        GlobalConstraint(
                            f"cc{counter}",
                            (qualified_class,),
                            constraint.formula,
                            "objective-extension",
                            (original,),
                        )
                    )
                    counter += 1
                    continue
                if _is_key(constraint.formula) and key_constraint_propagates(
                    spec, side, class_def.name, constraint.formula
                ):
                    report.propagated.append(
                        GlobalConstraint(
                            f"cc{counter}",
                            (qualified_class,),
                            constraint.formula,
                            "key-propagation",
                            (original,),
                        )
                    )
                    counter += 1
                    continue
                if original in spec.declared_objective:
                    report.needs_global_enforcement.append(
                        (
                            original,
                            "declared objective on a class without objective "
                            "extension: additions that violate it must be "
                            "rejected by a global integrity enforcing "
                            "mechanism",
                        )
                    )
                    continue
                report.retained_locally.append(
                    (
                        original,
                        "class constraints are subjective by default "
                        "(Section 5.2.2)",
                    )
                )
    return report


def key_constraint_propagates(
    spec: IntegrationSpecification,
    side: Side,
    class_name: str,
    key_formula: Node,
) -> bool:
    """The paper's key-propagation condition (see module docstring).

    ``key_formula`` is the conformed key constraint; rule conditions are
    written in original terms, so key attributes are checked against the
    original schema's key as well as the conformed name.
    """
    schema = spec.schema_on(side)
    other_schema = spec.schema_on(side.other)
    keys = _key_attributes(key_formula)
    subtree = {class_name}
    if schema.has_class(class_name):
        subtree.update(schema.subclasses_of(class_name))

    equality_classes_other: set[str] = set()
    for rule in spec.equality_rules():
        rule_class = rule.local_class if side is Side.LOCAL else rule.remote_class
        other_class = rule.remote_class if side is Side.LOCAL else rule.local_class
        if rule_class is None or rule_class not in subtree:
            continue
        if not _is_key_to_key(rule, side, keys, other_schema, other_class):
            return False
        if other_class is not None:
            equality_classes_other.add(other_class)
            if other_schema.has_class(other_class):
                equality_classes_other.update(
                    other_schema.subclasses_of(other_class)
                )

    for rule in spec.similarity_rules():
        if rule.source_side is side:
            continue  # adds this side's objects elsewhere; extent unchanged
        if rule.target_class not in subtree:
            continue
        # The similarity source (an other-side class) must be covered by a
        # key-to-key equality rule too, else unmatched duplicates can enter.
        if rule.source_class not in equality_classes_other:
            return False
    return True


def _is_key(formula: Node) -> bool:
    return any(isinstance(node, KeyConstraint) for node in formula.walk())


def _key_attributes(formula: Node) -> set[str]:
    attributes: set[str] = set()
    for node in formula.walk():
        if isinstance(node, KeyConstraint):
            attributes.update(node.attributes)
    return attributes


def _is_key_to_key(
    rule: ComparisonRule,
    side: Side,
    keys: set[str],
    other_schema,
    other_class: str | None,
) -> bool:
    """Whether the rule condition is exactly ``O.k = O'.k'`` over keys."""
    conjuncts = split_conjunction(rule.condition)
    if len(conjuncts) != 1 or not isinstance(conjuncts[0], Comparison):
        return False
    comparison = conjuncts[0]
    if comparison.op != "=":
        return False
    left, right = comparison.left, comparison.right
    if not isinstance(left, Path) or not isinstance(right, Path):
        return False
    this_var = side.variable
    other_var = side.other.variable
    this_path = left if left.parts[0] == this_var else right
    other_path = right if right.parts[0] == other_var else left
    if this_path.parts[0] != this_var or other_path.parts[0] != other_var:
        return False
    if len(this_path.parts) != 2 or len(other_path.parts) != 2:
        return False
    if this_path.parts[1] not in keys:
        return False
    # The other side's attribute must be a key of the other class.
    if other_class is None or not other_schema.has_class(other_class):
        return False
    other_keys: set[str] = set()
    for constraint in other_schema.class_named(other_class).constraints:
        if constraint.kind is ConstraintKind.CLASS:
            other_keys.update(_key_attributes(constraint.formula))
    return other_path.parts[1] in other_keys
