"""The conformation phase (Sections 2.3 and 4).

Conformation brings the local and remote databases "into a common semantical
context, so that they can be merged":

1. **Object-value conflicts** (descriptivity rules) are settled.  Under the
   *object view* — the one taken in the paper's example — values become
   virtual objects: the string-valued ``Publication.publisher`` is replaced
   by a reference to a new virtual class ``VirtPublisher`` whose ``name``
   attribute carries the old values, and one virtual object is created per
   distinct value.  Under the *value view* the remote objects are hidden:
   they are cast into the describing attribute's value, and any of their
   properties not included in the value are *hidden* along with the
   constraints that involve them.

2. **Property conformation**: equivalent properties receive identical
   conformed names (``ourprice`` → ``libprice``) and identical domains (the
   library's 1..5 ratings pass through ``multiply(2)``), on schemas and
   instance states alike.

Constraint conformation (Section 4) builds on the maps computed here and
lives in :mod:`repro.integration.constraint_conformation`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.constraints.model import Constraint
from repro.engine.store import ObjectStore
from repro.errors import ConformationError, EvaluationError
from repro.integration.conversion import ConversionFunction
from repro.integration.decision import DecisionFunction
from repro.integration.propeq import PropertyEquivalence, first_covering
from repro.integration.relationships import Side
from repro.integration.rules import ComparisonRule
from repro.integration.spec import IntegrationSpecification
from repro.tm.schema import ClassDef, DatabaseSchema
from repro.types.primitives import ClassRef, SetType, Type


@dataclass(frozen=True)
class Relocation:
    """A value attribute relocated onto a virtual class (object view)."""

    side: Side
    class_name: str  # the class whose attribute held the value
    value_attribute: str  # e.g. 'publisher'
    virtual_class: str  # e.g. 'VirtPublisher'
    object_attribute: str  # e.g. 'name'


@dataclass(frozen=True)
class Hiding:
    """A remote class cast into values (value view); its other properties
    and their constraints are hidden."""

    side: Side  # the side whose objects were hidden
    hidden_class: str  # e.g. 'Publisher'
    casting_class: str  # the class keeping the value, e.g. 'Item'
    value_attribute: str  # e.g. 'publisher'
    object_attribute: str  # the attribute whose value survives, e.g. 'name'


@dataclass
class ConformedObject:
    """An instance brought into the common semantic context."""

    oid: str  # conformed identifier, e.g. 'local:Publication#1'
    class_name: str
    state: dict[str, Any]
    side: Side
    source_oid: str | None  # original store oid; None for virtual objects
    virtual: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.class_name} {self.oid} {self.state!r}>"


@dataclass
class ConformedPropeq:
    """A property equivalence re-expressed in conformed terms.

    After conformation both sides use the same ``name``; the classes may be
    virtual (the publisher equivalence moves to ``VirtPublisher.name``).
    """

    local_class: str
    remote_class: str
    name: str
    df: DecisionFunction
    original: PropertyEquivalence

    def class_on(self, side: Side) -> str:
        return self.local_class if side is Side.LOCAL else self.remote_class

    def property_on(self, side: Side) -> str:
        return self.name


@dataclass
class ConformedDatabase:
    """One side's conformed schema, maps and instances."""

    side: Side
    original_schema: DatabaseSchema
    schema: DatabaseSchema
    #: declaring class → {original attribute → conformed name}
    renames: dict[str, dict[str, str]] = field(default_factory=dict)
    #: declaring class → {original attribute → conversion function}
    conversions: dict[str, dict[str, ConversionFunction]] = field(default_factory=dict)
    relocations: list[Relocation] = field(default_factory=list)
    hidings: list[Hiding] = field(default_factory=list)
    instances: list[ConformedObject] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: original qualified constraint name → conformed constraint.
    conformed_constraints: dict[str, "Constraint"] = field(default_factory=dict)
    #: (original qualified name, reason) for constraints conformation dropped.
    dropped_constraints: list[tuple[str, str]] = field(default_factory=list)

    # -- resolved per-class maps (own + inherited declarations) ----------------

    def rename_map(self, class_name: str) -> dict[str, str]:
        merged: dict[str, str] = {}
        if not self.original_schema.has_class(class_name):
            return merged
        for ancestor in self.original_schema.ancestors(class_name):
            for old, new in self.renames.get(ancestor.name, {}).items():
                merged.setdefault(old, new)
        return merged

    def conversion_map(self, class_name: str) -> dict[str, ConversionFunction]:
        merged: dict[str, ConversionFunction] = {}
        if not self.original_schema.has_class(class_name):
            return merged
        for ancestor in self.original_schema.ancestors(class_name):
            for attr, cf in self.conversions.get(ancestor.name, {}).items():
                merged.setdefault(attr, cf)
        return merged

    def original_name(self, constraint: Constraint) -> str:
        """The original qualified name of a conformed constraint (its own
        name for constraints conformation did not produce)."""
        return self._originals.get(id(constraint), constraint.qualified_name)

    @cached_property
    def _originals(self) -> dict[int, str]:
        """Conformed constraint identity → original qualified name; built on
        first use, once constraint conformation is complete."""
        names: dict[int, str] = {}
        for original, conformed in self.conformed_constraints.items():
            names.setdefault(id(conformed), original)
        return names

    @cached_property
    def attribute_conversions(self) -> dict[tuple[str, str], ConversionFunction]:
        """``(original class, attribute)`` → conversion, inherited ones
        included; built on first use, once property conformation is done."""
        return {
            (class_name, attribute): cf
            for class_name in self.original_schema.classes
            for attribute, cf in self.conversion_map(class_name).items()
        }

    def relocation_of(self, class_name: str, attribute: str) -> Relocation | None:
        """The relocation that virtualised ``attribute`` of original class
        ``class_name`` (declared there or on an ancestor), if any."""
        for relocation in self.relocations:
            if relocation.value_attribute == attribute and self._below(class_name, relocation.class_name):
                return relocation
        return None

    def hiding_of(self, class_name: str, attribute: str) -> Hiding | None:
        """The hiding that cast ``attribute`` of original class ``class_name``
        (declared there or on an ancestor) into values, if any."""
        for hiding in self.hidings:
            if hiding.value_attribute == attribute and self._below(class_name, hiding.casting_class):
                return hiding
        return None

    def _below(self, class_name: str, ancestor: str) -> bool:
        schema = self.original_schema
        return schema.has_class(class_name) and schema.is_subclass_of(class_name, ancestor)

    def conformed_attribute_name(self, class_name: str, attribute: str) -> str:
        return self.rename_map(class_name).get(attribute, attribute)

    def instances_of(self, class_name: str, deep: bool = True) -> list[ConformedObject]:
        names = {class_name}
        if deep and self.schema.has_class(class_name):
            names.update(self.schema.subclasses_of(class_name))
        return [obj for obj in self.instances if obj.class_name in names]


@dataclass
class ConformationResult:
    """Everything the merging phase consumes."""

    local: ConformedDatabase
    remote: ConformedDatabase
    propeqs: list[ConformedPropeq] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)

    def on(self, side: Side) -> ConformedDatabase:
        return self.local if side is Side.LOCAL else self.remote

    @cached_property
    def instances_by_oid(self) -> dict[str, ConformedObject]:
        """Conformed oid → instance, local side first; built on first use,
        once :func:`conform` has populated both sides' instances."""
        return {
            obj.oid: obj
            for side in (Side.LOCAL, Side.REMOTE)
            for obj in self.on(side).instances
        }

    # -- the conformed propeqs, resolved by the one rule (first_covering) ----

    def propeq_for(self, side: Side, class_name: str, prop: str) -> ConformedPropeq | None:
        """The conformed propeq covering ``class_name.prop`` on ``side``."""
        key = (side, class_name, prop)
        memo = self._covering
        if key not in memo:
            memo[key] = first_covering(self.propeqs, prop, ((side, class_name),), self._schema_on)
        return memo[key]

    def propeq_between(
        self, local_class: str, remote_class: str, prop: str
    ) -> ConformedPropeq | None:
        """The conformed propeq covering ``prop`` of a merged pair of a
        ``local_class`` and a ``remote_class`` object."""
        key = (local_class, remote_class, prop)
        memo = self._covering
        if key not in memo:
            placements = ((Side.LOCAL, local_class), (Side.REMOTE, remote_class))
            memo[key] = first_covering(self.propeqs, prop, placements, self._schema_on)
        return memo[key]

    def _schema_on(self, side: Side) -> DatabaseSchema:
        return self.on(side).schema

    @cached_property
    def _covering(self) -> dict[tuple, ConformedPropeq | None]:
        """The memo of both lookups (a ``propeq_for`` key starts with a side,
        a ``propeq_between`` key with a class name), made on first use, once
        :func:`conform` has settled the propeqs and schemas."""
        return {}

    def references(self, side: Side, class_name: str) -> tuple[frozenset[str], frozenset[str]]:
        """The conformed class's reference attributes and its sets of
        references: only these hold conformed (later global) oids."""
        return self._references.get((side, class_name), _NO_REFERENCES)

    def get_attr(self, obj: ConformedObject, name: str) -> Any:
        """Attribute accessor for evaluating a conformed object: only the
        declared reference attributes of its class (:meth:`references`)
        are dereferenced, through the instance index."""
        if not isinstance(obj, ConformedObject):
            raise EvaluationError(f"cannot read {name!r} from {obj!r}")
        if name not in obj.state:
            raise EvaluationError(f"component state has no property {name!r}")
        value = obj.state[name]
        if name in self.references(obj.side, obj.class_name)[0]:
            return self.instances_by_oid.get(value, value)
        return value

    @cached_property
    def _references(self) -> dict[tuple[Side, str], tuple[frozenset[str], frozenset[str]]]:
        """Made on first use, once :func:`conform` has settled the schemas."""
        found = {}
        for side in (Side.LOCAL, Side.REMOTE):
            schema = self.on(side).schema
            for class_name in schema.classes:
                attributes = schema.effective_attributes(class_name).items()
                found[side, class_name] = (
                    frozenset(name for name, a in attributes if isinstance(a.tm_type, ClassRef)),
                    frozenset(name for name, a in attributes if is_reference_set(a.tm_type)),
                )
        return found


_NO_REFERENCES: tuple[frozenset[str], frozenset[str]] = (frozenset(), frozenset())


def conform(
    spec: IntegrationSpecification,
    local_store: ObjectStore | None = None,
    remote_store: ObjectStore | None = None,
    descriptivity_view: str = "object",
) -> ConformationResult:
    """Run the conformation phase.

    ``descriptivity_view`` chooses how object-value conflicts are settled:
    ``"object"`` (the paper's choice — values become virtual objects) or
    ``"value"`` (objects are hidden into values).
    """
    if descriptivity_view not in ("object", "value"):
        raise ConformationError(
            f"unknown descriptivity view {descriptivity_view!r}"
        )
    local = ConformedDatabase(
        Side.LOCAL, spec.local_schema, _clone_schema(spec.local_schema)
    )
    remote = ConformedDatabase(
        Side.REMOTE, spec.remote_schema, _clone_schema(spec.remote_schema)
    )
    result = ConformationResult(local, remote)

    for rule in spec.descriptivity_rules():
        if descriptivity_view == "object":
            _virtualise_values(result.on(rule.source_side.other), rule)
        else:
            _hide_objects(result.on(rule.source_side), result, rule)

    _conform_properties(spec, result)

    if local_store is not None:
        _conform_instances(local, local_store)
    if remote_store is not None:
        _conform_instances(remote, remote_store)

    from repro.integration.constraint_conformation import conform_constraints

    for conformed in (local, remote):
        conform_constraints(conformed)
    return result


# ---------------------------------------------------------------------------
# schema cloning
# ---------------------------------------------------------------------------


def _clone_schema(schema: DatabaseSchema) -> DatabaseSchema:
    clone = DatabaseSchema(schema.name)
    for class_def in schema.classes.values():
        copy = ClassDef(class_def.name, class_def.parent, virtual=class_def.virtual)
        for attribute in class_def.attributes.values():
            copy.add_attribute(attribute.name, attribute.tm_type)
        clone.add_class(copy)
    for name, value in schema.constants.items():
        clone.set_constant(name, value)
    # Constraints are attached by constraint conformation, not copied.
    return clone


# ---------------------------------------------------------------------------
# descriptivity: object view
# ---------------------------------------------------------------------------


def _virtualise_values(conformed: ConformedDatabase, rule: ComparisonRule) -> None:
    """Replace a value attribute by references to a new virtual class."""
    schema = conformed.schema
    class_name = rule.target_class
    attribute = rule.value_attribute
    object_attribute = rule.object_attribute
    assert class_name and attribute and object_attribute
    declaring = _declaring_class(schema, class_name, attribute)
    value_type = schema.attribute_type(declaring, attribute)
    virtual_name = f"Virt{rule.source_class}"
    if not schema.has_class(virtual_name):
        virtual = schema.new_class(virtual_name, virtual=True)
        virtual.add_attribute(object_attribute, value_type)
    schema.class_named(declaring).set_attribute(attribute, ClassRef(virtual_name))
    conformed.relocations.append(
        Relocation(conformed.side, declaring, attribute, virtual_name, object_attribute)
    )
    conformed.notes.append(
        f"values of {declaring}.{attribute} virtualised into {virtual_name} "
        f"objects (attribute {object_attribute})"
    )


# ---------------------------------------------------------------------------
# descriptivity: value view
# ---------------------------------------------------------------------------


def _hide_objects(
    conformed: ConformedDatabase, result: ConformationResult, rule: ComparisonRule
) -> None:
    """Cast the source-side objects into values of the describing attribute."""
    schema = conformed.schema
    hidden_class = rule.source_class
    object_attribute = rule.object_attribute
    assert hidden_class and object_attribute
    hidden_def = schema.class_named(hidden_class)
    surviving_type = schema.attribute_type(hidden_class, object_attribute)
    # Re-type every reference to the hidden class as the surviving value
    # type, and every set of such references as a set of those values.
    casting_classes: list[tuple[str, str]] = []
    for class_def in schema.classes.values():
        for attribute in list(class_def.attributes.values()):
            tm_type = attribute.tm_type
            if tm_type == ClassRef(hidden_class):
                class_def.set_attribute(attribute.name, surviving_type)
            elif tm_type == SetType(ClassRef(hidden_class)):
                class_def.set_attribute(attribute.name, SetType(surviving_type))
            else:
                continue
            casting_classes.append((class_def.name, attribute.name))
    schema.remove_class(hidden_class)
    for casting_class, value_attribute in casting_classes:
        conformed.hidings.append(
            Hiding(
                conformed.side,
                hidden_class,
                casting_class,
                value_attribute,
                object_attribute,
            )
        )
    hidden_attrs = [
        a for a in hidden_def.attributes if a != object_attribute
    ]
    if hidden_attrs:
        conformed.notes.append(
            f"hiding {hidden_class} dropped properties {sorted(hidden_attrs)} "
            "and any constraints involving them"
        )


# ---------------------------------------------------------------------------
# property conformation
# ---------------------------------------------------------------------------


def _conform_properties(
    spec: IntegrationSpecification, result: ConformationResult
) -> None:
    for propeq in spec.propeqs:
        conformed_sides: dict[Side, tuple[str, str]] = {}
        for side in (Side.LOCAL, Side.REMOTE):
            conformed = result.on(side)
            class_name = propeq.class_on(side)
            prop = propeq.property_on(side)
            relocation = conformed.relocation_of(class_name, prop)
            if relocation is not None:
                # The equivalence now lives on the virtual class.
                conformed_sides[side] = (
                    relocation.virtual_class,
                    relocation.object_attribute,
                )
                continue
            hiding = _hiding_for(conformed, class_name, prop)
            if hiding is not None:
                conformed_sides[side] = (hiding.casting_class, hiding.value_attribute)
                continue
            if not conformed.original_schema.has_class(class_name):
                result.issues.append(
                    f"{propeq.describe_short()}: unknown class {class_name}"
                )
                continue
            declaring = _declaring_class(
                conformed.original_schema, class_name, prop
            )
            assert propeq.conformed_name is not None
            renames = conformed.renames.setdefault(declaring, {})
            if prop != propeq.conformed_name:
                renames[prop] = propeq.conformed_name
            cf = propeq.cf_on(side)
            if not cf.is_identity:
                conformed.conversions.setdefault(declaring, {})[prop] = cf
            _apply_to_schema(conformed.schema, declaring, prop, propeq.conformed_name, cf)
            conformed_sides[side] = (declaring, propeq.conformed_name)
        if len(conformed_sides) == 2:
            local_class, local_name = conformed_sides[Side.LOCAL]
            remote_class, remote_name = conformed_sides[Side.REMOTE]
            if local_name != remote_name:
                result.issues.append(
                    f"{propeq.describe_short()}: conformed names diverge "
                    f"({local_name!r} vs {remote_name!r}); using {local_name!r}"
                )
            result.propeqs.append(
                ConformedPropeq(
                    local_class, remote_class, local_name, propeq.df, propeq
                )
            )


def _apply_to_schema(
    schema: DatabaseSchema,
    declaring: str,
    prop: str,
    conformed_name: str,
    cf: ConversionFunction,
) -> None:
    class_def = schema.class_named(declaring)
    if prop not in class_def.attributes:
        raise ConformationError(
            f"{declaring} does not declare attribute {prop!r}"
        )
    tm_type = class_def.attributes[prop].tm_type
    conformed_type: Type = cf.convert_type(tm_type) if not cf.is_identity else tm_type
    class_def.remove_attribute(prop)
    class_def.set_attribute(conformed_name, conformed_type)


def _declaring_class(schema: DatabaseSchema, class_name: str, attribute: str) -> str:
    for ancestor in schema.ancestors(class_name):
        if attribute in ancestor.attributes:
            return ancestor.name
    raise ConformationError(
        f"class {class_name} has no attribute {attribute!r}"
    )


def _hiding_for(
    conformed: ConformedDatabase, class_name: str, prop: str
) -> Hiding | None:
    for hiding in conformed.hidings:
        if hiding.hidden_class == class_name and hiding.object_attribute == prop:
            return hiding
    return None


# ---------------------------------------------------------------------------
# instance conformation
# ---------------------------------------------------------------------------


def _conform_instances(conformed: ConformedDatabase, store: ObjectStore) -> None:
    side = conformed.side
    prefix = side.value
    virtual_counters: dict[str, itertools.count] = {}
    virtual_cache: dict[tuple[str, Any], str] = {}

    hidden_classes = {h.hidden_class for h in conformed.hidings}
    # The schema cannot change during the call, so per-class maps and
    # per-(class, attribute) plans — relocation, hiding, whether the
    # declared type is a reference or a set of references — are looked up
    # once, not once per object.
    class_maps: dict[str, tuple] = {}
    plans: dict[tuple[str, str], tuple] = {}

    for obj in store.objects():
        if obj.class_name in hidden_classes:
            continue  # cast into values; handled below per referencing object
        maps = class_maps.get(obj.class_name)
        if maps is None:
            maps = class_maps[obj.class_name] = (
                conformed.rename_map(obj.class_name),
                conformed.conversion_map(obj.class_name),
            )
        renames, conversions = maps
        state: dict[str, Any] = {}
        for attr, value in obj.state.items():
            new_name = renames.get(attr, attr)
            plan = plans.get((obj.class_name, attr))
            if plan is None:
                tm_type = _original_type(conformed, obj.class_name, attr)
                plan = plans[obj.class_name, attr] = (
                    conformed.relocation_of(obj.class_name, attr),
                    conformed.hiding_of(obj.class_name, attr),
                    isinstance(tm_type, ClassRef),
                    is_reference_set(tm_type),
                )
            relocation, hiding, reference, reference_set = plan
            if relocation is not None:
                key = (relocation.virtual_class, value)
                if key not in virtual_cache:
                    counter = virtual_counters.setdefault(
                        relocation.virtual_class, itertools.count(1)
                    )
                    virtual_oid = (
                        f"{prefix}:{relocation.virtual_class}#{next(counter)}"
                    )
                    conformed.instances.append(
                        ConformedObject(
                            virtual_oid,
                            relocation.virtual_class,
                            {relocation.object_attribute: value},
                            side,
                            source_oid=None,
                            virtual=True,
                        )
                    )
                    virtual_cache[key] = virtual_oid
                state[new_name] = virtual_cache[key]
                continue
            if hiding is not None:
                cast = hiding.object_attribute
                state[new_name] = (
                    frozenset(store.get(oid).state[cast] for oid in value)
                    if reference_set
                    else store.get(value).state[cast]
                )
                continue
            if reference and isinstance(value, str):
                state[new_name] = f"{prefix}:{value}"
            elif reference_set and isinstance(value, frozenset | set):
                state[new_name] = frozenset(f"{prefix}:{oid}" for oid in value)
            elif attr in conversions:
                state[new_name] = conversions[attr].apply(value)
            else:
                state[new_name] = value
        conformed.instances.append(
            ConformedObject(
                f"{prefix}:{obj.oid}", obj.class_name, state, side, obj.oid
            )
        )


def is_reference_set(tm_type: Type | None) -> bool:
    """Whether ``tm_type`` is a set of references (``partners : P Publisher``)."""
    return isinstance(tm_type, SetType) and isinstance(tm_type.element, ClassRef)


def _original_type(
    conformed: ConformedDatabase, class_name: str, attr: str
) -> Type | None:
    try:
        return conformed.original_schema.attribute_type(class_name, attr)
    except Exception:
        return None
