"""Conformation of constraints (Section 4).

"Conversions applied to objects and properties in the conformation phase must
be propagated to the formulation of constraints" — the paper's *semantic
normalisation*.  The four subtasks:

1. **Allocating constraints to conformed classes.**  A constraint whose paths
   all use a virtualised value attribute moves to the virtual class
   (``oc2: publisher in KNOWNPUBLISHERS`` becomes ``name in KNOWNPUBLISHERS``
   on ``VirtPublisher``); mixed uses rewrite the value position into a dotted
   reference path.  Conversely, hiding a class drops constraints that involve
   its hidden properties, and re-expresses constraints on the surviving
   attribute onto the casting class.

2. **Attribute substitution.**  Conformed names replace local names at every
   path segment (each by the map of the class it resolves on), in
   key-constraint attribute lists and aggregate ``over`` attributes.

3. **Domain conversion.**  Constants compared with a converted property pass
   through the conversion function: ``rating >= 2`` under ``multiply(2)``
   becomes ``rating >= 4``.  Aggregate comparisons over converted properties
   convert when the conversion is purely multiplicative (``avg(rating) < 4``
   becomes ``avg(rating) < 8``).

4. **Derived attributes** may carry constraints too; constraints written on
   registered derived attributes are conformed like ordinary ones (the
   fixture specs do not use them).

Subtasks 1-3 resolve every path, key and aggregate ``over`` by the one
scope rule of :mod:`repro.constraints.scope` in the original schema, so
database constraints get them too: ``forall x in RefereedPubl | x.rating >=
2`` conforms to ``x.rating >= 4`` as ``RefereedPubl.oc1`` does.  The one
rule specific to database constraints: one that quantifies over a hidden
class is dropped.

The conformed constraints are attached to the conformed schema and indexed by
their original qualified name in ``ConformedDatabase.conformed_constraints``;
dropped constraints are recorded with a reason.
"""

from __future__ import annotations

from dataclasses import replace

from repro.constraints.ast import Aggregate, KeyConstraint, Node, Path, Quantified, paths_in
from repro.constraints.model import Constraint
from repro.constraints.scope import Resolution, Scope, traverse
from repro.errors import ConformationError
from repro.integration._rewrite import convert_domains, rename_attributes
from repro.integration.conformation import ConformedDatabase, Relocation


def conform_constraints(conformed: ConformedDatabase) -> None:
    """Conform every constraint of the original schema (see module doc)."""
    hidden_classes = {h.hidden_class for h in conformed.hidings}
    for class_def in conformed.original_schema.classes.values():
        for constraint in class_def.constraints:
            if class_def.name in hidden_classes:
                _conform_hidden_class_constraint(conformed, class_def.name, constraint)
                continue
            _conform_class_owned_constraint(conformed, class_def.name, constraint)
    for constraint in conformed.original_schema.database_constraints:
        _conform_database_constraint(conformed, constraint)


# ---------------------------------------------------------------------------
# constraints owned by surviving classes
# ---------------------------------------------------------------------------


def _conform_class_owned_constraint(
    conformed: ConformedDatabase, owner: str, constraint: Constraint
) -> None:
    relocation = _full_relocation(conformed, owner, constraint.formula)
    if relocation is not None:
        _reallocate_to_virtual(conformed, owner, constraint, relocation)
        return
    formula, dropped_reason = _conform(conformed, owner, constraint.formula)
    if dropped_reason:
        conformed.dropped_constraints.append((constraint.qualified_name, dropped_reason))
        return
    result = constraint.with_formula(formula).with_owner(owner)
    _attach(conformed, owner, constraint, result)


def _full_relocation(
    conformed: ConformedDatabase, owner: str, formula: Node
) -> Relocation | None:
    """The relocation to apply when *every* path reads the relocated value
    off the constrained object."""
    found: set[Relocation | None] = set()

    def visit(node: Node, scope: Scope) -> Node | None:
        if not isinstance(node, Path):
            return None
        resolution = scope.resolve(node)
        first = resolution.steps[0] if resolution.owner_rooted and resolution.steps else None
        found.add(conformed.relocation_of(first.class_name, first.attribute) if first else None)
        return node

    traverse(formula, Scope(conformed.original_schema, owner), visit)
    return found.pop() if len(found) == 1 else None


def _reallocate_to_virtual(
    conformed: ConformedDatabase,
    owner: str,
    constraint: Constraint,
    relocation: Relocation,
) -> None:
    """Subtask 1: move the constraint onto the virtual class."""
    formula = rename_attributes(
        constraint.formula, {relocation.value_attribute: relocation.object_attribute}
    )
    result = constraint.with_formula(formula).with_owner(relocation.virtual_class)
    conformed.notes.append(
        f"constraint {constraint.qualified_name} reallocated to "
        f"{relocation.virtual_class}"
    )
    _attach(conformed, relocation.virtual_class, constraint, result)


# ---------------------------------------------------------------------------
# constraints owned by hidden classes
# ---------------------------------------------------------------------------


def _conform_hidden_class_constraint(
    conformed: ConformedDatabase, owner: str, constraint: Constraint
) -> None:
    """A hidden class's constraint survives only if it involves nothing but
    the surviving (describing) attribute; it is then re-expressed on each
    casting class."""
    hidings = [h for h in conformed.hidings if h.hidden_class == owner]
    surviving = {h.object_attribute for h in hidings}
    used = {path.parts[0] for path in paths_in(constraint.formula)}
    if not used <= surviving:
        conformed.dropped_constraints.append(
            (
                constraint.qualified_name,
                f"class {owner} was hidden and the constraint uses hidden "
                f"properties {sorted(used - surviving)}",
            )
        )
        return
    for hiding in hidings:
        formula = rename_attributes(
            constraint.formula, {hiding.object_attribute: hiding.value_attribute}
        )
        formula = conform_formula(conformed, hiding.casting_class, formula)
        result = constraint.with_formula(formula).with_owner(hiding.casting_class)
        conformed.notes.append(
            f"constraint {constraint.qualified_name} re-expressed on "
            f"{hiding.casting_class}.{hiding.value_attribute}"
        )
        _attach(conformed, hiding.casting_class, constraint, result)


# ---------------------------------------------------------------------------
# database constraints
# ---------------------------------------------------------------------------


def _conform_database_constraint(
    conformed: ConformedDatabase, constraint: Constraint
) -> None:
    """Subtasks 1-3 as for class-owned constraints, after the one rule of
    their own: a constraint quantifying over a hidden class is dropped."""
    hidden = {h.hidden_class for h in conformed.hidings} & {
        node.class_name for node in constraint.formula.walk() if isinstance(node, Quantified)
    }
    if hidden:
        conformed.dropped_constraints.append(
            (constraint.qualified_name, f"quantifies over hidden classes {sorted(hidden)}")
        )
        return
    formula, dropped_reason = _conform(conformed, None, constraint.formula)
    if dropped_reason:
        conformed.dropped_constraints.append((constraint.qualified_name, dropped_reason))
        return
    result = constraint.with_formula(formula)
    conformed.schema.add_database_constraint(result)
    conformed.conformed_constraints[constraint.qualified_name] = result


# ---------------------------------------------------------------------------
# subtasks 1-3 on one formula
# ---------------------------------------------------------------------------


def conform_formula(conformed: ConformedDatabase, owner: str, formula: Node) -> Node:
    """Conform an arbitrary formula written against ``owner``'s original
    attributes (used for rule conditions, which share the constraint
    language)."""
    formula, dropped = _conform(conformed, owner, formula)
    if dropped:
        raise ConformationError(dropped)
    return formula


def _conform(
    conformed: ConformedDatabase, owner: str | None, formula: Node
) -> tuple[Node, str | None]:
    """Subtask 3, then subtasks 1 and 2 on every path, key and aggregate;
    with the reason to drop the constraint, if any.  Every name resolves in
    its scope in the *original* schema: conversion runs first because it
    only rewrites constants, so every path still reads in original names."""
    scope = Scope(conformed.original_schema, owner)
    formula = convert_domains(
        formula, scope, conformed.attribute_conversions, conformed.original_schema.constants
    )
    dropped: list[str] = []

    def rule(node: Node, scope: Scope) -> Node | None:
        if isinstance(node, Path):
            return _conform_path(conformed, node, scope.resolve(node), dropped)
        if isinstance(node, KeyConstraint) and scope.owner is not None:
            renames = conformed.rename_map(scope.owner)
            attributes = tuple(renames.get(attr, attr) for attr in node.attributes)
            return node if attributes == node.attributes else replace(node, attributes=attributes)
        if isinstance(node, Aggregate):
            base = scope.base(node)
            if node.over is None or base is None:
                return node
            over = conformed.conformed_attribute_name(base, node.over)
            return node if over == node.over else replace(node, over=over)
        return None

    formula = traverse(formula, scope, rule)
    if dropped:
        return formula, (
            "references hidden properties through " + ", ".join(sorted(set(dropped)))
        )
    return formula, None


def _conform_path(
    conformed: ConformedDatabase,
    path: Path,
    resolution: Resolution,
    dropped: list[str],
) -> Path:
    """One path in conformed terms: each resolved segment renamed by the map
    of the class it resolves on (subtask 2); a path ending at a virtualised
    value reads the virtual object's (``publisher`` → ``publisher.name``), one
    through a hidden class collapses onto the casting value
    (``publisher.name`` → ``publisher``) or, reading deeper, is ``dropped``."""
    offset = len(path.parts) - len(resolution.segments)  # a bound variable
    parts = list(path.parts)
    for index, step in enumerate(resolution.steps):
        at = offset + index
        hiding = conformed.hiding_of(step.class_name, step.attribute)
        if hiding is not None:
            rest = path.parts[at + 1 :]
            if rest == (hiding.object_attribute,):
                del parts[at + 1 :]
            elif rest:
                dropped.append(path.dotted())
            break
        relocation = conformed.relocation_of(step.class_name, step.attribute)
        if relocation is not None:
            if at == len(path.parts) - 1:
                parts.append(relocation.object_attribute)
            break
        parts[at] = conformed.conformed_attribute_name(step.class_name, step.attribute)
    return path if tuple(parts) == path.parts else Path(tuple(parts))


# ---------------------------------------------------------------------------
# attachment
# ---------------------------------------------------------------------------


def _attach(
    conformed: ConformedDatabase,
    owner: str,
    original: Constraint,
    result: Constraint,
) -> None:
    class_def = conformed.schema.class_named(owner)
    label = result.name
    taken = {c.name for c in class_def.constraints}
    if label in taken:
        base = label
        suffix = 2
        while label in taken:
            label = f"{base}_{suffix}"
            suffix += 1
        result = result.renamed(label)
    class_def.add_constraint(result)
    # add_constraint re-stamps the owner; fetch the stored instance.
    stored = class_def.constraints[-1]
    conformed.conformed_constraints[original.qualified_name] = stored  # type: ignore[attr-defined]
