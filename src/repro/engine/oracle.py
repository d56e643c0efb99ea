"""The engine's single reference: a deliberately naive constraint checker.

:class:`~repro.engine.store.ObjectStore` enforces constraints with a
*simplified* check (delta-driven dispatch answered from maintained indexes).
By Martinenghi's criterion that is correct iff it agrees with the full check;
:class:`Oracle` is the full check, kept plain enough to believe by reading.
Its contents are one ``oid -> DBObject`` dict in insertion order (oid order,
since the counter only grows); an update replaces the object, so a shallow
copy of the dict is a complete snapshot.  Extents scan the dict, evaluation
contexts carry no index probe, and the verdict — after every auto-commit
operation and at the outermost transaction exit — is
:func:`~repro.engine.enforcement.all_violations`; a rejection restores the
dict copied at the start.  No index manager, dependency index, mutation
delta, undo log, write-ahead log or lock is involved.  The oracle exposes the
store's method names, so differential tests drive both with one helper, and
mints oids by the store's rule: ``Class#N`` from a counter that advances on
every type-valid insert attempt and is never rolled back.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from typing import Any

from repro.constraints.evaluate import EvalContext
from repro.engine.enforcement import Violation, all_violations
from repro.engine.objects import DBObject, check_schema_fit, check_types
from repro.engine.store import _ExtentView
from repro.errors import ConstraintViolation, EngineError, SchemaError, UnknownClassError
from repro.errors import UnknownObjectError
from repro.tm.schema import DatabaseSchema
from repro.types.primitives import ClassRef


class Oracle:
    """Full-check reference store over ``schema``.

    ``enforce=False`` accepts every type-valid operation, like an
    unenforced store; :meth:`audit` still reports the violations."""

    #: The oracle checks every constraint: it is never a scoped shard core.
    constraint_scope = None

    def __init__(self, schema: DatabaseSchema, enforce: bool = True):
        self.schema = schema.freeze()
        self.enforce = enforce
        self._objects: dict[str, DBObject] = {}
        #: (class, attribute) → declared type under the current schema.
        self._attr_types: dict[tuple[str, str], Any] = {}
        self._oid_seq = 0
        self._in_transaction = False

    # -- reads -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, oid: str) -> bool:
        return oid in self._objects

    def get(self, oid: str) -> DBObject:
        if oid not in self._objects:
            raise UnknownObjectError(f"no object with identifier {oid!r}")
        return self._objects[oid]

    def objects(self) -> Iterable[DBObject]:
        return self._objects.values()

    def extent(self, class_name: str, deep: bool = True) -> list[DBObject]:
        if not self.schema.has_class(class_name):
            raise UnknownClassError(f"no class {class_name!r} in database {self.schema.name}")
        names = set(self.schema.subclass_closure(class_name)) if deep else {class_name}
        return [obj for obj in self._objects.values() if obj.class_name in names]

    def get_attr(self, obj: Any, name: str) -> Any:
        """Read an attribute, dereferencing reference attributes to the
        objects they name (the evaluator's view of the store)."""
        if not isinstance(obj, DBObject):
            raise EngineError(f"cannot read attribute {name!r} from {obj!r}")
        if name not in obj.state:
            raise EngineError(f"{obj.class_name} object {obj.oid} has no attribute {name!r}")
        value = obj.state[name]
        key = (obj.class_name, name)
        if key not in self._attr_types:
            try:
                self._attr_types[key] = self.schema.attribute_type(*key)
            except SchemaError:
                self._attr_types[key] = None
        if isinstance(self._attr_types[key], ClassRef) and isinstance(value, str):
            return self.get(value)
        return value

    def eval_context(
        self,
        current: Any = None,
        self_extent_class: str | None = None,
        bindings: dict[str, Any] | None = None,
    ) -> EvalContext:
        """A scan-only evaluation context: no index probe."""
        return EvalContext(
            current=current,
            bindings=bindings or {},
            extents=_ExtentView(self),
            self_extent=self.extent(self_extent_class) if self_extent_class else (),
            self_extent_class=self_extent_class,
            constants=self.schema.constants,
            get_attr=self.get_attr,
            indexes=None,
        )

    # -- the full check ----------------------------------------------------------

    def audit(self) -> list[Violation]:
        return all_violations(self)

    def check_all(self) -> list[str]:
        return [violation.describe() for violation in self.audit()]

    def explain_violations(self, violations=None) -> list:
        from repro.engine.explain import explain_violations

        return explain_violations(self, violations)

    def _commit_point(self, saved: dict[str, DBObject]) -> None:
        """Keep the current contents if they pass the full check; otherwise
        restore ``saved`` (the contents at the operation's start) and
        raise."""
        if not self.enforce:
            return
        violations = self.audit()
        if violations:
            self._objects = saved
            raise ConstraintViolation(
                "oracle",
                "; ".join(violation.describe() for violation in violations),
                violations=violations,
            )

    def _write(self, oid: str, obj: DBObject | None) -> None:
        """Store ``obj`` under ``oid`` (``None`` deletes it); outside a
        transaction the write is an auto-commit."""
        saved = None if self._in_transaction else dict(self._objects)
        if obj is None:
            del self._objects[oid]
        else:
            self._objects[oid] = obj
        if saved is not None:
            self._commit_point(saved)

    # -- mutation ------------------------------------------------------------------

    def insert(
        self, class_name: str, state: Mapping[str, Any] | None = None, **kwargs: Any
    ) -> DBObject:
        if class_name not in self.schema.classes:
            raise UnknownClassError(f"no class {class_name!r} in database {self.schema.name}")
        checked = check_types(self.schema, self._objects, class_name, {**(state or {}), **kwargs})
        self._oid_seq += 1
        obj = DBObject(f"{class_name}#{self._oid_seq}", class_name, checked)
        self._write(obj.oid, obj)
        return obj

    def update(self, target: DBObject | str, **changes: Any) -> DBObject:
        old = self.get(target.oid if isinstance(target, DBObject) else target)
        checked = check_types(self.schema, self._objects, old.class_name, {**old.state, **changes})
        obj = DBObject(old.oid, old.class_name, checked)
        self._write(obj.oid, obj)
        return obj

    def delete(self, target: DBObject | str) -> None:
        self._write(self.get(target.oid if isinstance(target, DBObject) else target).oid, None)

    def change_schema(self, schema: DatabaseSchema) -> None:
        """Adopt ``schema`` in place of the current value (no re-audit: the
        next commit point runs the full check anyway), unless a stored
        object does not fit it."""
        if self._in_transaction:
            raise EngineError("cannot change the schema inside a transaction")
        check_schema_fit(self.schema, schema, self._objects)
        self.schema = schema.freeze()
        self._attr_types = {}

    def set_constant(self, name: str, value: Any) -> None:
        schema = self.schema.copy()
        schema.set_constant(name, value)
        self.change_schema(schema)

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Deferred checking: the full check runs once, at the outermost
        exit; an exception or a violation restores the entry contents."""
        outermost = not self._in_transaction
        saved = dict(self._objects)
        self._in_transaction = True
        try:
            yield
        except BaseException:
            self._objects = saved
            raise
        finally:
            self._in_transaction = not outermost
        if outermost:
            self._commit_point(saved)
