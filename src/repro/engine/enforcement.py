"""The full constraint check over a store.

The component databases of the paper enforce their own integrity constraints.
:func:`all_violations` is the full check: object constraints (own + inherited)
against every object, class constraints against their (deep) extents, and
database constraints against the whole store — for audits, recovery, fallback
revalidation, and as the verdict of :class:`~repro.engine.oracle.Oracle`.

:func:`violation` renders every failed check — its detail, culprit oid and
reason trace — for this check and the delta-driven checks of
:mod:`repro.engine.incremental` alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Any

from repro.constraints.evaluate import evaluate
from repro.errors import EngineError, EvaluationError

#: Evaluation failures that count as violations rather than crashes: a
#: formula that cannot be evaluated (missing attribute, unknown function)
#: or whose dereference hits a dangling/unknown object.  The delta-driven
#: validator (:mod:`repro.engine.incremental`) shares this contract.
#: ``ConstraintViolation`` subclasses ``EngineError`` but ``evaluate`` never
#: raises it, so the widened catch is safe.
_EVAL_FAILURES = (EvaluationError, EngineError)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import ObjectStore


@dataclass(frozen=True)
class Violation:
    """A detected constraint violation, as :func:`violation` renders it.

    The explanation fields — the violated :class:`Constraint` itself, the
    culprit object's ``oid`` (object constraints only) and the detection
    ``trace`` — are excluded from equality/hashing/repr so violation lists
    from different checkers (the store and the naive
    :class:`~repro.engine.oracle.Oracle`, probe and scan evaluation) still
    compare on ``(constraint_name, detail)`` alone.
    """

    constraint_name: str
    detail: str
    constraint: Any = field(default=None, compare=False, repr=False)
    oid: str | None = field(default=None, compare=False, repr=False)
    trace: Any = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        return f"{self.constraint_name}: {self.detail}"


def violation(
    store: "ObjectStore",
    constraint,
    error: "Exception | None",
    current=None,
    owner: str | None = None,
) -> Violation:
    """The :class:`Violation` of one failed check.

    ``current`` is the checked object of an object constraint and ``owner``
    the class whose extent a class constraint checked (both ``None`` for a
    database constraint) — the context the check ran in, which
    :func:`~repro.engine.explain.failure_trace` re-runs for the trace.
    ``error`` is the exception evaluation raised, or ``None`` when the
    constraint evaluated false."""
    # Lazy import: explain builds on this module's error contract.
    from repro.engine.explain import failure_trace

    if error is not None:
        detail = str(error)
    elif current is not None:
        detail = f"object {current.oid}"
    elif owner is not None:
        detail = f"extent of {owner}"
    else:
        detail = "database constraint"
    return Violation(
        constraint.qualified_name,
        detail,
        constraint=constraint,
        oid=current.oid if current is not None else None,
        trace=failure_trace(
            store, constraint, current=current, self_extent_class=owner
        ),
    )


def all_violations(store: "ObjectStore") -> list[Violation]:
    """Every violation in the store (does not stop at the first).

    Object checks run class by class in schema declaration order, and each
    class's objects in its own insertion order, so a plain store, a shard
    router and the oracle report one order whatever order their object
    tables keep."""
    schema = store.schema
    scope = store.constraint_scope
    checks = chain(
        _object_checks(schema, store.objects()),
        (
            (constraint, None, class_def.name)
            for class_def in schema.classes.values()
            for constraint in class_def.own_class_constraints()
        ),
        ((constraint, None, None) for constraint in schema.database_constraints),
    )
    # No evaluation changes the store: object and database checks share one probe.
    shared = store.eval_context()
    found: list[Violation] = []
    for constraint, current, owner in checks:
        if scope is not None and constraint not in scope:
            continue
        shared.current = current
        ctx = shared if owner is None else store.eval_context(self_extent_class=owner)
        try:
            if evaluate(constraint.formula, ctx):
                continue
            error = None
        except _EVAL_FAILURES as exc:
            error = exc
        found.append(violation(store, constraint, error, current, owner))
    return found


def _object_checks(schema, objects: Iterable) -> Iterator[tuple]:
    """``(constraint, object, None)`` for every object check, grouped by
    class in declaration order; ``objects`` lists each class's objects in
    its insertion order on every store."""
    by_class: dict[str, list] = {name: [] for name in schema.classes}
    for obj in objects:
        by_class[obj.class_name].append(obj)
    for class_name, members in by_class.items():
        constraints = schema.effective_object_constraints(class_name)
        for obj in members:
            for constraint in constraints:
                yield constraint, obj, None
