"""Schema object model for the TM fragment.

A :class:`DatabaseSchema` owns a set of :class:`ClassDef` objects with single
inheritance plus database-level constraints and named constants.  All lookups
that the rest of the system needs — effective attributes, *inheritable*
constraints (object constraints inherit, class constraints do not; see
Section 5.2.2 of the paper), subclass queries, solver type environments — live
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterator
from typing import Any

from repro.constraints.model import Constraint, ConstraintKind
from repro.errors import SchemaError
from repro.types.primitives import ClassRef, Type


@dataclass(frozen=True)
class Attribute:
    """A typed attribute declaration (``rating : 1..5``)."""

    name: str
    tm_type: Type

    def describe(self) -> str:
        return f"{self.name} : {self.tm_type.describe()}"


@dataclass
class ClassDef:
    """A TM class: attributes, a single optional parent, own constraints.

    Change it through its mutators only: once the class belongs to a
    schema they clear that schema's memo of derived lookups, and they
    raise :class:`SchemaError` when the schema is frozen."""

    name: str
    parent: str | None = None
    attributes: dict[str, Attribute] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    #: True for classes synthesised during integration (virtual classes).
    virtual: bool = False
    #: The schema this class belongs to (set by ``add_class``).
    schema: "DatabaseSchema | None" = field(default=None, repr=False, compare=False)

    def _changing(self) -> None:
        if self.schema is not None:
            self.schema._changing()

    def add_attribute(self, name: str, tm_type: Type) -> None:
        self._changing()
        if name in self.attributes:
            raise SchemaError(f"duplicate attribute {name!r} in class {self.name}")
        self.attributes[name] = Attribute(name, tm_type)

    def set_attribute(self, name: str, tm_type: Type) -> None:
        """Declare ``name`` or retype it in place (conformation's retype)."""
        self._changing()
        self.attributes[name] = Attribute(name, tm_type)

    def remove_attribute(self, name: str) -> None:
        self._changing()
        del self.attributes[name]

    def add_constraint(self, constraint: Constraint) -> None:
        self._changing()
        if any(c.name == constraint.name for c in self.constraints):
            raise SchemaError(
                f"duplicate constraint label {constraint.name!r} in class {self.name}"
            )
        self.constraints.append(constraint.with_owner(self.name))

    def own_object_constraints(self) -> list[Constraint]:
        return [c for c in self.constraints if c.kind is ConstraintKind.OBJECT]

    def own_class_constraints(self) -> list[Constraint]:
        return [c for c in self.constraints if c.kind is ConstraintKind.CLASS]


class DatabaseSchema:
    """A component database schema: classes + database constraints + constants.

    A schema is a value once a store adopts it: the store calls
    :meth:`freeze`, after which every mutator raises :class:`SchemaError`,
    and a change is a :meth:`copy`, changed and handed to the store's
    ``change_schema``.  Derived lookups (ancestry chains, subclass
    closures, effective attribute maps, the engine's constraint-dependency
    index) are memoised in one dict that every mutator clears, so an
    unfrozen schema under construction never serves a stale answer
    either."""

    def __init__(self, name: str):
        self.name = name
        self.classes: dict[str, ClassDef] = {}
        self.database_constraints: list[Constraint] = []
        self.constants: dict[str, Any] = {}
        self.frozen = False
        self._memo: dict[str, Any] = {}

    def _changing(self) -> None:
        """Every mutator's first step: refuse on a frozen schema, else drop
        the memo the change is about to invalidate."""
        if self.frozen:
            raise SchemaError(
                f"schema {self.name} is frozen: a store adopted it; change a "
                "copy() and pass it to the store's change_schema"
            )
        self._memo.clear()

    def freeze(self) -> "DatabaseSchema":
        """Refuse every further mutation; returns ``self``."""
        self.frozen = True
        return self

    def copy(self) -> "DatabaseSchema":
        """The next, unfrozen value: fresh class definitions and lists
        sharing this schema's immutable attributes and constraints."""
        clone = DatabaseSchema(self.name)
        for class_def in self.classes.values():
            clone.add_class(
                ClassDef(
                    class_def.name,
                    class_def.parent,
                    dict(class_def.attributes),
                    list(class_def.constraints),
                    class_def.virtual,
                )
            )
        clone.database_constraints = list(self.database_constraints)
        clone.constants = dict(self.constants)
        return clone

    def memo(self, key: str, build: Callable[[], Any]) -> Any:
        """The derived value memoised under ``key``, built on first use and
        dropped by the next mutation.  Treat it as read-only."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    # -- construction -----------------------------------------------------------

    def add_class(self, class_def: ClassDef) -> ClassDef:
        self._changing()
        if class_def.name in self.classes:
            raise SchemaError(f"duplicate class {class_def.name!r} in {self.name}")
        class_def.schema = self
        self.classes[class_def.name] = class_def
        return class_def

    def new_class(self, name: str, parent: str | None = None, virtual: bool = False) -> ClassDef:
        return self.add_class(ClassDef(name, parent, virtual=virtual))

    def remove_class(self, name: str) -> ClassDef:
        self._changing()
        class_def = self.class_named(name)
        del self.classes[name]
        class_def.schema = None
        return class_def

    def add_database_constraint(self, constraint: Constraint) -> None:
        self._changing()
        self.database_constraints.append(constraint)

    def set_constant(self, name: str, value: Any) -> None:
        self._changing()
        self.constants[name] = value

    # -- lookups ------------------------------------------------------------------

    def class_named(self, name: str) -> ClassDef:
        if name not in self.classes:
            raise SchemaError(f"unknown class {name!r} in database {self.name}")
        return self.classes[name]

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def ancestors(self, class_name: str) -> Iterator[ClassDef]:
        """The inheritance chain starting at ``class_name`` (inclusive)."""
        seen: set[str] = set()
        current: str | None = class_name
        while current is not None:
            if current in seen:
                raise SchemaError(f"inheritance cycle through class {current!r}")
            seen.add(current)
            class_def = self.class_named(current)
            yield class_def
            current = class_def.parent

    def is_subclass_of(self, child: str, ancestor: str) -> bool:
        return any(cls.name == ancestor for cls in self.ancestors(child))

    def subclasses_of(self, class_name: str) -> list[str]:
        """All classes (transitively) below ``class_name``, excluding itself."""
        return [
            name
            for name in self.classes
            if name != class_name and self.is_subclass_of(name, class_name)
        ]

    def _derived(self, kind: str) -> dict:
        """The memo dict of one family of per-class lookups."""
        return self.memo(kind, dict)

    def ancestry(self, class_name: str) -> tuple[str, ...]:
        """Cached name-only inheritance chain (``class_name`` first)."""
        cache = self._derived("ancestry")
        chain = cache.get(class_name)
        if chain is None:
            chain = tuple(cls.name for cls in self.ancestors(class_name))
            cache[class_name] = chain
        return chain

    def subclass_closure(self, class_name: str) -> tuple[str, ...]:
        """Cached ``class_name`` plus all transitive subclasses — the classes
        whose objects populate the deep extent of ``class_name``."""
        cache = self._derived("closure")
        closure = cache.get(class_name)
        if closure is None:
            closure = (class_name, *self.subclasses_of(class_name))
            cache[class_name] = closure
        return closure

    def effective_attributes(self, class_name: str) -> dict[str, Attribute]:
        """Own plus inherited attributes (nearest declaration wins).

        The merged mapping is cached per schema state and shared between
        callers; treat it as read-only.
        """
        cache = self._derived("attributes")
        merged = cache.get(class_name)
        if merged is None:
            merged = {}
            for class_def in self.ancestors(class_name):
                for name, attribute in class_def.attributes.items():
                    merged.setdefault(name, attribute)
            cache[class_name] = merged
        return merged

    def effective_object_constraints(self, class_name: str) -> list[Constraint]:
        """Own plus inherited object constraints.

        The paper relies on object-constraint inheritance: a Proceedings
        object must satisfy the inherited ``oc1`` of Item.  Class constraints
        are *not* inheritable (Section 5.2.2) and are excluded here.
        """
        constraints: list[Constraint] = []
        for class_def in self.ancestors(class_name):
            constraints.extend(class_def.own_object_constraints())
        return constraints

    def class_constraints(self, class_name: str) -> list[Constraint]:
        """The class constraints declared on exactly this class."""
        return self.class_named(class_name).own_class_constraints()

    def attribute_type(self, class_name: str, attribute: str) -> Type:
        attributes = self.effective_attributes(class_name)
        if attribute not in attributes:
            raise SchemaError(
                f"class {class_name} has no attribute {attribute!r}"
            )
        return attributes[attribute].tm_type

    def reference_target(self, class_name: str, attribute: str) -> str | None:
        """The class a reference attribute points at, or ``None`` when the
        attribute is missing or not reference-typed.

        Used by the dependency extractor to type referential quantifier
        patterns (``exists i in Item | i.publisher = p``): a reference-count
        index is only maintainable when the attribute uniformly dereferences
        into one declared class.
        """
        attr = self.effective_attributes(class_name).get(attribute)
        if attr is None or not isinstance(attr.tm_type, ClassRef):
            return None
        return attr.tm_type.class_name

    # -- solver support ---------------------------------------------------------------

    def type_environment(self, class_name: str, max_depth: int = 3):
        """A solver :class:`~repro.constraints.solver.TypeEnvironment` for
        object constraints of ``class_name``.

        Dotted paths through reference attributes are expanded up to
        ``max_depth`` levels (``publisher.name`` resolves to the ``name``
        attribute of the referenced ``Publisher`` class).  An environment is
        a value, so one is built per class and shared until the next change.
        """
        from repro.constraints.solver import TypeEnvironment

        cache = self._derived("type_environment")
        env = cache.get((class_name, max_depth))
        if env is None:
            attribute_types: dict[str, Type] = {}
            self._collect_paths(class_name, "", attribute_types, max_depth)
            env = cache[class_name, max_depth] = TypeEnvironment(attribute_types, self.constants)
        return env

    def _collect_paths(
        self,
        class_name: str,
        prefix: str,
        into: dict[str, Type],
        depth: int,
    ) -> None:
        if depth == 0 or not self.has_class(class_name):
            return
        for name, attribute in self.effective_attributes(class_name).items():
            path = f"{prefix}{name}"
            if path in into:
                continue
            into[path] = attribute.tm_type
            if isinstance(attribute.tm_type, ClassRef):
                self._collect_paths(
                    attribute.tm_type.class_name, f"{path}.", into, depth - 1
                )

    # -- misc ----------------------------------------------------------------------------

    def all_constraints(self) -> Iterator[Constraint]:
        for class_def in self.classes.values():
            yield from class_def.constraints
        yield from self.database_constraints

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseSchema({self.name!r}, {len(self.classes)} classes)"

