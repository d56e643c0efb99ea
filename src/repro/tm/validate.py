"""Structural validation of TM schemas.

Checks the properties the integration machinery relies on:

* the inheritance graph is acyclic and parents exist;
* reference attribute types point at declared classes;
* constraint formulas only mention declared classes, resolvable attribute
  paths (by the scope rule of :mod:`repro.constraints.scope`, shared with
  lint) and declared named constants;
* every constraint's structural classification matches the section it was
  declared in.

Problems are collected (not raised one-by-one) so a design tool can show all
of them at once; :func:`validate_schema` raises :class:`SchemaError` only
when asked to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.ast import (
    Aggregate,
    KeyConstraint,
    NamedConstant,
    Node,
    Path,
    Quantified,
)
from repro.constraints.classify import classify_formula
from repro.constraints.model import Constraint
from repro.constraints.scope import (
    NOT_A_REFERENCE,
    UNBOUND_PATH,
    UNKNOWN_ATTRIBUTE,
    UNKNOWN_CLASS,
    Scope,
    traverse,
)
from repro.errors import SchemaError
from repro.tm.schema import DatabaseSchema
from repro.types.primitives import ClassRef


@dataclass(frozen=True)
class ValidationIssue:
    """A single schema problem with enough context to locate it."""

    location: str  # "CSLibrary.Publication.oc2"
    message: str

    def describe(self) -> str:
        return f"{self.location}: {self.message}"


def validate_schema(schema: DatabaseSchema, raise_on_error: bool = False) -> list[ValidationIssue]:
    """All structural problems found in ``schema`` (empty list = valid)."""
    issues: list[ValidationIssue] = []
    _check_inheritance(schema, issues)
    _check_attribute_types(schema, issues)
    _check_constraints(schema, issues)
    if issues and raise_on_error:
        summary = "; ".join(issue.describe() for issue in issues)
        raise SchemaError(f"schema {schema.name} is invalid: {summary}")
    return issues


def _check_inheritance(schema: DatabaseSchema, issues: list[ValidationIssue]) -> None:
    for class_def in schema.classes.values():
        if class_def.parent is None:
            continue
        if not schema.has_class(class_def.parent):
            issues.append(
                ValidationIssue(
                    f"{schema.name}.{class_def.name}",
                    f"parent class {class_def.parent!r} is not declared",
                )
            )
            continue
        try:
            list(schema.ancestors(class_def.name))
        except SchemaError as exc:
            issues.append(
                ValidationIssue(f"{schema.name}.{class_def.name}", str(exc))
            )


def _check_attribute_types(schema: DatabaseSchema, issues: list[ValidationIssue]) -> None:
    for class_def in schema.classes.values():
        for attribute in class_def.attributes.values():
            tm_type = attribute.tm_type
            if isinstance(tm_type, ClassRef) and not schema.has_class(tm_type.class_name):
                issues.append(
                    ValidationIssue(
                        f"{schema.name}.{class_def.name}.{attribute.name}",
                        f"references undeclared class {tm_type.class_name!r}",
                    )
                )


def _check_constraints(schema: DatabaseSchema, issues: list[ValidationIssue]) -> None:
    for class_def in schema.classes.values():
        try:
            schema.effective_attributes(class_def.name)
        except SchemaError:
            continue  # broken ancestry already reported by _check_inheritance
        for constraint in class_def.constraints:
            location = f"{schema.name}.{class_def.name}.{constraint.name}"
            _check_classification(constraint, location, issues)
            _check_names(schema, constraint, location, issues)
    for constraint in schema.database_constraints:
        location = f"{schema.name}.{constraint.name}"
        _check_classification(constraint, location, issues)
        _check_names(schema, constraint, location, issues)


def _check_classification(
    constraint: Constraint, location: str, issues: list[ValidationIssue]
) -> None:
    actual = classify_formula(constraint.formula)
    if actual is not constraint.kind:
        issues.append(
            ValidationIssue(
                location,
                f"declared as a {constraint.kind.value} constraint but is "
                f"structurally a {actual.value} constraint",
            )
        )


def _check_names(
    schema: DatabaseSchema,
    constraint: Constraint,
    location: str,
    issues: list[ValidationIssue],
) -> None:
    """Every class, attribute path, key attribute and named constant of the
    formula resolves, by the scope rule of :mod:`repro.constraints.scope`."""

    def report(message: str) -> None:
        issues.append(ValidationIssue(location, message))

    def visit(node: Node, scope: Scope) -> Node | None:
        if isinstance(node, Quantified):
            if schema.has_class(node.class_name):
                return None
            report(f"quantifies over undeclared class {node.class_name!r}")
        elif isinstance(node, Aggregate):
            base = scope.base(node)
            if base is None:
                report("aggregates over 'self' outside a class")
            elif not schema.has_class(base):
                report(f"aggregates over undeclared class {base!r}")
            elif node.over is not None and scope.resolve_over(node).failure:
                report(f"aggregates over unknown attribute {node.over!r} of {base}")
        elif isinstance(node, KeyConstraint):
            for name in node.attributes:
                if scope.resolve_key(name).failure:
                    report(f"key attribute {name!r} is not declared")
        elif isinstance(node, NamedConstant):
            if node.name not in schema.constants:
                report(f"references undeclared constant {node.name!r}")
        elif isinstance(node, Path):
            resolution = scope.resolve(node)
            if resolution.failure == UNKNOWN_ATTRIBUTE and not resolution.steps:
                report(f"references unknown attribute {resolution.stopped_at!r}")
            elif resolution.failure is not None:
                report(resolution.explain(_PATH_MESSAGES, node))
        else:
            return None
        return node

    try:
        traverse(constraint.formula, Scope(schema, constraint.owner), visit)
    except SchemaError:
        pass  # broken ancestry already reported by _check_inheritance


#: A path's issue, by the reason its walk stopped.
_PATH_MESSAGES = {
    UNBOUND_PATH: "path {path!r} is not rooted at a quantified variable",
    NOT_A_REFERENCE: "path {path!r} dereferences non-reference attribute {through!r}",
    UNKNOWN_CLASS: "path {path!r} traverses undeclared class {on!r}",
    UNKNOWN_ATTRIBUTE: "path {path!r} breaks at segment {at!r}",
}
