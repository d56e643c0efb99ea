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
   path segment, in key-constraint attribute lists and aggregate ``over``
   attributes.

3. **Domain conversion.**  Constants compared with a converted property pass
   through the conversion function: ``rating >= 2`` under ``multiply(2)``
   becomes ``rating >= 4``.  Aggregate comparisons over converted properties
   convert when the conversion is purely multiplicative (``avg(rating) < 4``
   becomes ``avg(rating) < 8``).

4. **Derived attributes** may carry constraints too; constraints written on
   registered derived attributes are conformed like ordinary ones (the
   fixture specs do not use them).

The conformed constraints are attached to the conformed schema and indexed by
their original qualified name in ``ConformedDatabase.conformed_constraints``;
dropped constraints are recorded with a reason.
"""

from __future__ import annotations

from repro.constraints.ast import Node, Path, Quantified, paths_in
from repro.constraints.model import Constraint
from repro.errors import ConformationError
from repro.integration._rewrite import convert_domains, map_paths, rename_attributes
from repro.integration.conformation import ConformedDatabase, Hiding, Relocation
from repro.types.primitives import ClassRef


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
    formula = _rewrite_relocated_paths(conformed, owner, constraint.formula)
    formula, dropped_reason = _rewrite_hidden_paths(conformed, owner, formula)
    if dropped_reason:
        conformed.dropped_constraints.append(  # type: ignore[attr-defined]
            (constraint.qualified_name, dropped_reason)
        )
        return
    formula = _substitute_and_convert(conformed, owner, formula)
    result = constraint.with_formula(formula).with_owner(owner)
    _attach(conformed, owner, constraint, result)


def _full_relocation(
    conformed: ConformedDatabase, owner: str, formula: Node
) -> Relocation | None:
    """The relocation to apply when *every* path uses the relocated value."""
    paths = paths_in(formula)
    if not paths:
        return None
    found: Relocation | None = None
    for path in paths:
        relocation = _relocation_of(conformed, owner, path.parts[0])
        if relocation is None:
            return None
        if found is not None and relocation != found:
            return None
        found = relocation
    return found


def _relocation_of(
    conformed: ConformedDatabase, owner: str, attribute: str
) -> Relocation | None:
    schema = conformed.original_schema
    for relocation in conformed.relocations:
        if relocation.value_attribute != attribute:
            continue
        if schema.has_class(owner) and schema.is_subclass_of(
            owner, relocation.class_name
        ):
            return relocation
    return None


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


def _rewrite_relocated_paths(
    conformed: ConformedDatabase, owner: str, formula: Node
) -> Node:
    """Mixed use of a virtualised attribute: value position becomes a dotted
    reference path (``publisher`` → ``publisher.name``)."""

    def rewrite(path: Path) -> Path:
        relocation = _relocation_of(conformed, owner, path.parts[0])
        if relocation is not None and len(path.parts) == 1:
            return Path((relocation.value_attribute, relocation.object_attribute))
        return path

    return map_paths(formula, rewrite)


def _rewrite_hidden_paths(
    conformed: ConformedDatabase, owner: str, formula: Node
) -> tuple[Node, str | None]:
    """Paths through a hidden class collapse onto the casting value
    (``publisher.name`` → ``publisher``); deeper hidden properties drop the
    whole constraint."""
    dropped: list[str] = []

    def rewrite(path: Path) -> Path:
        hiding = _hiding_of(conformed, owner, path.parts[0])
        if hiding is None:
            return path
        if len(path.parts) == 2 and path.parts[1] == hiding.object_attribute:
            return Path((hiding.value_attribute,))
        if len(path.parts) >= 2:
            dropped.append(path.dotted())
        return path

    rebuilt = map_paths(formula, rewrite)
    if dropped:
        return rebuilt, (
            "references hidden properties through "
            + ", ".join(sorted(set(dropped)))
        )
    return rebuilt, None


def _hiding_of(
    conformed: ConformedDatabase, owner: str, attribute: str
) -> Hiding | None:
    schema = conformed.original_schema
    for hiding in conformed.hidings:
        if hiding.value_attribute != attribute:
            continue
        if schema.has_class(owner) and schema.has_class(hiding.casting_class):
            if schema.is_subclass_of(owner, hiding.casting_class):
                return hiding
    return None


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
        conformed.dropped_constraints.append(  # type: ignore[attr-defined]
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
        formula = _substitute_and_convert(conformed, hiding.casting_class, formula)
        result = constraint.with_formula(formula).with_owner(hiding.casting_class)
        conformed.notes.append(
            f"constraint {constraint.qualified_name} re-expressed on "
            f"{hiding.casting_class}.{hiding.value_attribute}"
        )
        _attach(conformed, hiding.casting_class, constraint, result)


# ---------------------------------------------------------------------------
# subtasks 2 + 3: substitution and domain conversion
# ---------------------------------------------------------------------------


def conform_formula(conformed: ConformedDatabase, owner: str, formula: Node) -> Node:
    """Conform an arbitrary formula written against ``owner``'s original
    attributes (used for rule conditions, which share the constraint
    language)."""
    formula = _rewrite_relocated_paths(conformed, owner, formula)
    formula, dropped = _rewrite_hidden_paths(conformed, owner, formula)
    if dropped:
        raise ConformationError(dropped)
    return _substitute_and_convert(conformed, owner, formula)


def _substitute_and_convert(
    conformed: ConformedDatabase, owner: str, formula: Node
) -> Node:
    """Subtask 2 then subtask 3: one rename pass, then one conversion pass."""
    formula = _rename_deep(conformed, owner, formula)
    conversions = {
        conformed.conformed_attribute_name(owner, original): cf
        for original, cf in conformed.conversion_map(owner).items()
    }
    if conversions:
        formula = convert_domains(formula, conversions, conformed.original_schema.constants)
    return formula


def _rename_deep(conformed: ConformedDatabase, owner: str, formula: Node) -> Node:
    """Attribute substitution along dotted paths.

    The first segment renames by the owner's map; subsequent segments by the
    map of the class each reference points at (resolved in the *original*
    schema).  Key attributes and aggregate ``over`` attributes rename by the
    owner's map.
    """
    schema = conformed.original_schema

    def rewrite(path: Path) -> Path:
        segments = []
        current = owner
        for segment in path.parts:
            renamed = conformed.conformed_attribute_name(current, segment) if (
                schema.has_class(current)
            ) else segment
            segments.append(renamed)
            if schema.has_class(current):
                attributes = schema.effective_attributes(current)
                if segment in attributes and isinstance(
                    attributes[segment].tm_type, ClassRef
                ):
                    current = attributes[segment].tm_type.class_name
                    continue
            current = ""  # no further type info
        parts = tuple(segments)
        return path if parts == path.parts else Path(parts)

    return rename_attributes(formula, conformed.rename_map(owner), rewrite)


# ---------------------------------------------------------------------------
# database constraints
# ---------------------------------------------------------------------------


def _conform_database_constraint(
    conformed: ConformedDatabase, constraint: Constraint
) -> None:
    hidden_classes = {h.hidden_class for h in conformed.hidings}
    quantified = [
        node
        for node in constraint.formula.walk()
        if isinstance(node, Quantified)
    ]
    touched = {node.class_name for node in quantified}
    if touched & hidden_classes:
        conformed.dropped_constraints.append(  # type: ignore[attr-defined]
            (
                constraint.qualified_name,
                f"quantifies over hidden classes {sorted(touched & hidden_classes)}",
            )
        )
        return
    bindings = {node.var: node.class_name for node in quantified}

    def rewrite(path: Path) -> Path:
        if path.parts[0] in bindings:
            owner = bindings[path.parts[0]]
            renames = conformed.rename_map(owner)
            renamed = tuple(
                renames.get(part, part) if index == 1 else part
                for index, part in enumerate(path.parts)
            )
            return Path(renamed)
        return path

    formula = map_paths(constraint.formula, rewrite)
    result = constraint.with_formula(formula)
    conformed.schema.add_database_constraint(result)
    conformed.conformed_constraints[constraint.qualified_name] = result  # type: ignore[attr-defined]


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
