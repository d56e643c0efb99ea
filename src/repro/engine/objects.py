"""Object identities and states."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Any

from repro.errors import EngineError, TypeSystemError
from repro.types.primitives import ClassRef
from repro.types.values import check_value, coerce_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.tm.schema import DatabaseSchema


class DBObject:
    """A stored object: an identity, a most-specific class, and a state.

    The state maps attribute names to values; reference attributes hold the
    *object identifier* of the target (dereferencing is the store's job).
    ``DBObject`` behaves as a read-only mapping over its state so that the
    constraint evaluator can treat stored objects and plain dict states
    uniformly.

    A state dict is never mutated in place: a write installs a new dict and
    a rollback reinstalls the old one.  So ``row`` — the object's encoded
    snapshot row (see :mod:`repro.engine.wal`), rendered at the commit
    that wrote the state or kept from the snapshot line recovery parsed it
    from — stays current exactly while ``row_state`` (the dict it was
    rendered from) *is* ``state``.  The log record and every checkpoint
    reuse those bytes; a store without a log never renders one.
    """

    __slots__ = ("oid", "class_name", "state", "row", "row_state")

    def __init__(self, oid: str, class_name: str, state: dict[str, Any]):
        self.oid = oid
        self.class_name = class_name
        self.state = state
        self.row = b""
        self.row_state: dict[str, Any] | None = None

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self.state[name]

    def __contains__(self, name: str) -> bool:
        return name in self.state

    def __iter__(self) -> Iterator[str]:
        return iter(self.state)

    def keys(self):
        return self.state.keys()

    def get(self, name: str, default: Any = None) -> Any:
        return self.state.get(name, default)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DBObject):
            return self.oid == other.oid
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.oid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.class_name} {self.oid} {self.state!r}>"


def check_types(
    schema: "DatabaseSchema",
    objects: Mapping[str, DBObject],
    class_name: str,
    state: Mapping[str, Any],
) -> dict[str, Any]:
    """The type-checked state of a ``class_name`` object, or raise.

    Every effective attribute must be present and no other; values are
    coerced to their declared types (int→real and the like), and reference
    attributes must name an object in ``objects`` whose class conforms to
    the declared target (a :class:`DBObject` stands for its oid).
    """
    attributes = schema.effective_attributes(class_name)
    missing = set(attributes) - set(state)
    if missing:
        raise EngineError(f"missing attributes for {class_name}: {sorted(missing)}")
    extra = set(state) - set(attributes)
    if extra:
        raise EngineError(f"class {class_name} has no attributes {sorted(extra)}")
    checked: dict[str, Any] = {}
    for name, attribute in attributes.items():
        value = state[name]
        context = f"{class_name}.{name}"
        if isinstance(attribute.tm_type, ClassRef):
            value = value.oid if isinstance(value, DBObject) else value
            if value not in objects:
                raise EngineError(f"{context}: reference to unknown object {value!r}")
            target = objects[value]
            if not schema.is_subclass_of(target.class_name, attribute.tm_type.class_name):
                raise EngineError(
                    f"{context}: object {value!r} is a {target.class_name}, "
                    f"not a {attribute.tm_type.class_name}"
                )
            checked[name] = value
            continue
        try:
            checked[name] = coerce_value(value, attribute.tm_type)
        except Exception:
            check_value(value, attribute.tm_type, context)
            checked[name] = value
    return checked


def check_schema_fit(
    old: "DatabaseSchema", new: "DatabaseSchema", objects: Mapping[str, DBObject]
) -> None:
    """Raise :class:`EngineError` unless the stored ``objects`` fit ``new``.

    Only an object whose class ``new`` drops, gives another effective
    attribute map than ``old`` does, or whose references point at a class
    with another set of subclasses (a re-parent can move a referenced
    object out of the declared target) can misfit; each such object must
    pass :func:`check_types` under ``new``.  A change that leaves every
    attribute map and the hierarchy alone (a constant rebound, a constraint
    added) checks no object.
    """
    regrouped = {
        name
        for name in old.classes
        if new.has_class(name)
        and set(new.subclass_closure(name)) != set(old.subclass_closure(name))
    }
    changed = {
        name
        for name in old.classes
        if not new.has_class(name)
        or new.effective_attributes(name) != old.effective_attributes(name)
        or any(
            isinstance(attribute.tm_type, ClassRef) and attribute.tm_type.class_name in regrouped
            for attribute in new.effective_attributes(name).values()
        )
    }
    if not changed:
        return
    for obj in objects.values():
        if obj.class_name not in changed:
            continue
        if not new.has_class(obj.class_name):
            raise EngineError(
                f"the new schema drops class {obj.class_name}, which {obj.oid} belongs to"
            )
        try:
            check_types(new, objects, obj.class_name, obj.state)
        except (EngineError, TypeSystemError) as exc:
            raise EngineError(f"{obj.oid} does not fit the new schema: {exc}") from None
