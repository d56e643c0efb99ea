"""The full constraint check over a store.

The component databases of the paper enforce their own integrity constraints.
:func:`all_violations` is the full check: object constraints (own + inherited)
against every object, class constraints against their (deep) extents, and
database constraints against the whole store — for audits, recovery, fallback
revalidation, and as the verdict of :class:`~repro.engine.oracle.Oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.constraints.evaluate import evaluate
from repro.errors import EngineError, EvaluationError

#: Evaluation failures that count as violations rather than crashes: a
#: formula that cannot be evaluated (missing attribute, unknown function)
#: or whose dereference hits a dangling/unknown object.  The same contract
#: as the delta-driven validator's (:mod:`repro.engine.incremental`).
#: ``ConstraintViolation`` subclasses ``EngineError`` but ``evaluate`` never
#: raises it, so the widened catch is safe.
_EVAL_FAILURES = (EvaluationError, EngineError)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import ObjectStore


@dataclass(frozen=True)
class Violation:
    """A detected constraint violation (used by bulk validation).

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


def _detection_trace(
    store: "ObjectStore",
    constraint,
    current=None,
    self_extent_class: str | None = None,
):
    """Trace of a just-detected failure.  Lazy import: explain builds on
    this module's error contract."""
    from repro.engine.explain import failure_trace

    return failure_trace(
        store, constraint, current=current, self_extent_class=self_extent_class
    )


def all_violations(store: "ObjectStore") -> list[Violation]:
    """Every violation in the store (does not stop at the first)."""
    found: list[Violation] = []
    scope = getattr(store, "constraint_scope", None)
    for obj in store.objects():
        for constraint in store.schema.effective_object_constraints(obj.class_name):
            if scope is not None and constraint not in scope:
                continue
            ctx = store.eval_context(current=obj)
            try:
                if not evaluate(constraint.formula, ctx):
                    found.append(
                        Violation(
                            constraint.qualified_name,
                            f"object {obj.oid}",
                            constraint=constraint,
                            oid=obj.oid,
                            trace=_detection_trace(store, constraint, current=obj),
                        )
                    )
            except _EVAL_FAILURES as exc:
                found.append(
                    Violation(
                        constraint.qualified_name,
                        str(exc),
                        constraint=constraint,
                        oid=obj.oid,
                        trace=_detection_trace(store, constraint, current=obj),
                    )
                )
    for class_def in store.schema.classes.values():
        for constraint in class_def.own_class_constraints():
            if scope is not None and constraint not in scope:
                continue
            ctx = store.eval_context(self_extent_class=class_def.name)
            try:
                if not evaluate(constraint.formula, ctx):
                    found.append(
                        Violation(
                            constraint.qualified_name,
                            f"extent of {class_def.name}",
                            constraint=constraint,
                            trace=_detection_trace(
                                store, constraint, self_extent_class=class_def.name
                            ),
                        )
                    )
            except _EVAL_FAILURES as exc:
                found.append(
                    Violation(
                        constraint.qualified_name,
                        str(exc),
                        constraint=constraint,
                        trace=_detection_trace(
                            store, constraint, self_extent_class=class_def.name
                        ),
                    )
                )
    for constraint in store.schema.database_constraints:
        if scope is not None and constraint not in scope:
            continue
        try:
            if not evaluate(constraint.formula, store.eval_context()):
                found.append(
                    Violation(
                        constraint.qualified_name,
                        "database constraint",
                        constraint=constraint,
                        trace=_detection_trace(store, constraint),
                    )
                )
        except _EVAL_FAILURES as exc:
            found.append(
                Violation(
                    constraint.qualified_name,
                    str(exc),
                    constraint=constraint,
                    trace=_detection_trace(store, constraint),
                )
            )
    return found
