"""Explainable violations: reason traces and subset-minimal conflict cores.

A :class:`~repro.constraints.evaluate.ReasonTrace` says which reads forced a
verdict; this module turns a failing check into a *conflict core* — a
subset-minimal set of objects that, together with the constraint, still
conflicts when everything else is masked out.  The construction is the
deletion-based MUS (minimal unsatisfiable subset) extraction of the SAT
explanation literature, transplanted to integrity constraints in the spirit
of abductive repair analysis (Arieli et al.) and integrity checking for
knowledge bases (Cruz-Filipe et al.; see PAPERS.md):

1. *Seed*: re-evaluate the already-compiled closure with scan semantics
   (``indexes=None``) and a trace attached; the trace's support set is every
   object the verdict read.
2. *Shrink*: repeatedly re-evaluate with candidate objects masked out of the
   store view (their extents membership removed, references to them failing),
   dropping whole chunks while the conflict persists — a ddmin-flavoured
   pass — then singleton passes to a fixpoint.
3. *Certify*: the result is subset-minimal **in isolation**: the masked view
   containing exactly the core still violates the constraint, and removing
   any single member resolves it.  (MUSes are not unique; deletion finds
   *one* minimal core, not the smallest.)

Conflict is judged on the masked view: a falsy verdict for cores born from a
falsy verdict, an evaluation error for cores born from an evaluation error
(``verdict="error"``).  Masking an object a kept member still references
raises inside evaluation; for falsy-born cores that counts as *resolved* —
which is exactly what keeps, say, the referenced Publisher inside the core
of a dangling-reference violation.

Complexity: with ``s = |support|`` and ``k = |core|``, the chunked pass does
O(k·log s) conflict tests and the fixpoint pass O(k²) in the worst case;
every test is one evaluation over a view of ≤ s objects.  Quantifier tracing
records only decisive iterations, so ``s`` is usually far below the extent
size (a dangling reference seeds 1–2 objects at any store size).

Aggregate supports are whole extents, where deletion would take thousands
of tests.  A *monotone* aggregate violation — one comparison of a ``sum``
over non-negative finite numbers, a ``count`` or a ``max`` with an upper
bound, or a ``min`` with a lower bound — skips shrinking: ordered by
contribution, largest first, its shortest conflicting prefix is
subset-minimal (dropping any member removes at least as much as dropping
the last), found by binary search in O(log n) tests
(:func:`monotone_order`, :func:`prefix_core`).  It is certified by the
traced isolated evaluation plus one test that the core without its last
member no longer conflicts.  Every other aggregate (``avg``, mixed signs,
NaN, ±inf, references) shrinks as above.  Either way tests are cheap: the
store is frozen for the extraction (callers hold its writer lock), every
read goes through one :class:`FrozenView`, and an untraced test answers an
aggregate by filtering a frozen numeric column by the visible set rather
than calling the evaluator once per member.  The seed and the
certification are traced and stay on scan semantics, so their traces list
every member read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping
from itertools import compress
from typing import Any, TYPE_CHECKING

from repro.constraints.ast import Aggregate, Comparison, Literal, NamedConstant
from repro.constraints.evaluate import (
    INDEX_MISS,
    EvalContext,
    ReasonTrace,
    compiled,
    fold_aggregate,
    fold_floats,
)
from repro.constraints.model import Constraint, ConstraintKind
from repro.engine.objects import DBObject
from repro.errors import EngineError, EvaluationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.store import ObjectStore

#: Same widened catch as enforcement: evaluation failures count as verdicts,
#: not crashes (``ConstraintViolation`` is never raised by ``evaluate``).
_EVAL_FAILURES = (EvaluationError, EngineError)

#: Safety valve on shrink work: conflict tests per core.  Generously above
#: anything a traced support set produces (decisive tracing keeps supports
#: small); a core that hits it is returned as-is with ``minimal=False``.
MAX_SHRINK_CHECKS = 4096


# ---------------------------------------------------------------------------
# detection-time traces
# ---------------------------------------------------------------------------


def failure_trace(
    store: "ObjectStore",
    constraint: Constraint,
    current: Any = None,
    self_extent_class: str | None = None,
) -> ReasonTrace:
    """The reason trace of one failing check, re-run exactly as detected.

    Uses the store's own evaluation context — *including its index probes* —
    so the cost matches the detection cost (an O(1) probe stays an O(1)
    probe; this is what keeps traced failure latency within a small factor
    of untraced).  Scan-level object support for core extraction is computed
    separately by :func:`extract_core`, which forces scan semantics.
    """
    trace = ReasonTrace()
    ctx = store.eval_context(
        current=current, self_extent_class=self_extent_class
    )
    ctx.trace = trace
    try:
        compiled(constraint.formula)(ctx)
    except _EVAL_FAILURES as exc:
        trace.record("error", str(exc), env=getattr(exc, "bindings", ()))
    return trace


# ---------------------------------------------------------------------------
# masked evaluation
# ---------------------------------------------------------------------------

#: Column values the aggregate probe answers from; anything else (a
#: reference, a string, a bool ...) leaves the column to the scan path.
_NUMBERS = (int, float)


class FrozenView:
    """The store as one extraction reads it, each read fetched once.

    The store cannot change during an extraction (its writer lock is held
    throughout), so the view memoises: each class's base extent, each
    ``(oid, attribute)`` read together with the oid it references, and per
    ``(class, attribute)`` numeric columns in base-extent order.  A masked
    probe then costs dict hits and visibility tests, not store reads.
    """

    __slots__ = ("store", "schema", "reads", "_extents", "_columns")

    def __init__(self, store: "ObjectStore"):
        self.store = store
        self.schema = store.schema
        #: (oid, attribute) → (value, referenced oid or None), for stored
        #: objects only; a read that raises is never memoised, so it raises
        #: again, exactly as the store does.
        self.reads: dict[tuple[str, str], tuple[Any, str | None]] = {}
        self._extents: dict[str, list] = {}
        self._columns: dict[tuple[str, str], tuple[list, list, bool] | None] = {}

    def extent(self, class_name: str) -> list:
        """``class_name``'s deep extent in insertion order."""
        base = self._extents.get(class_name)
        if base is None:
            base = self._extents[class_name] = self.store.extent(class_name)
        return base

    def read(self, obj: Any, name: str) -> tuple[Any, str | None]:
        """``(value, referenced oid or None)`` of one attribute read from
        the store, memoised in :attr:`reads` for stored objects — callers
        look there first."""
        value = self.store.get_attr(obj, name)
        target = getattr(value, "oid", None)
        hit = (value, target if isinstance(target, str) else None)
        if type(obj) is DBObject:
            self.reads[obj.oid, name] = hit
        return hit

    def column(self, class_name: str, name: str) -> tuple[list, list, bool] | None:
        """``(oids, values, floats)`` of ``name`` over ``class_name``'s base
        extent — ``floats`` when every value is a float — or ``None`` when
        some member's value is not a plain number (a reference, a string, a
        NaN ...) or cannot be read: the scan path answers those, errors
        included."""
        key = (class_name, name)
        if key not in self._columns:
            self._columns[key] = self._numeric_column(class_name, name)
        return self._columns[key]

    def _numeric_column(self, class_name: str, name: str):
        oids: list[str] = []
        values: list = []
        try:
            reads = self.reads
            for obj in self.extent(class_name):
                value = (reads.get((obj.oid, name)) or self.read(obj, name))[0]
                if type(value) not in _NUMBERS or value != value:
                    return None
                oids.append(obj.oid)
                values.append(value)
        except _EVAL_FAILURES:
            return None
        return oids, values, all(type(value) is float for value in values)


class _MaskedExtents(Mapping):
    """Class name → extent restricted to a visible-oid set (lazy per class,
    filtered at most once per probe)."""

    def __init__(self, view: FrozenView, visible: frozenset):
        self._view = view
        self._visible = visible
        self._filtered: dict[str, list] = {}

    def __getitem__(self, class_name: str) -> list:
        filtered = self._filtered.get(class_name)
        if filtered is None:
            if not self._view.schema.has_class(class_name):
                raise KeyError(class_name)
            visible = self._visible
            filtered = self._filtered[class_name] = [
                obj for obj in self._view.extent(class_name) if obj.oid in visible
            ]
        return filtered

    def __contains__(self, class_name: object) -> bool:
        return isinstance(class_name, str) and self._view.schema.has_class(
            class_name
        )

    def __iter__(self):
        return iter(self._view.schema.classes)

    def __len__(self) -> int:
        return len(self._view.schema.classes)


class _MaskedSelf:
    """The masked ``self`` extent, filtered only if a scan iterates it."""

    __slots__ = ("_extents", "_class_name")

    def __init__(self, extents: _MaskedExtents, class_name: str):
        self._extents = extents
        self._class_name = class_name

    def __iter__(self):
        return iter(self._extents[self._class_name])


class _MaskedColumns:
    """The index probe of an untraced masked evaluation.

    Answers ``sum``/``avg``/``min``/``max``/``count`` by filtering the
    frozen column by the visible set and folding it with the scan's one
    definition (:func:`~repro.constraints.evaluate.fold_aggregate`), so
    results are bit-identical to the scan.  Every other probe — and
    any aggregate whose column is not purely numeric — misses to the scan,
    which keeps its exact error semantics.
    """

    __slots__ = ("_view", "_visible", "_extents")

    def __init__(
        self, view: FrozenView, visible: frozenset, extents: _MaskedExtents
    ):
        self._view = view
        self._visible = visible
        self._extents = extents

    def aggregate_value(
        self, func: str, class_name: str, over: str | None
    ) -> Any:
        if not self._view.schema.has_class(class_name):
            return INDEX_MISS
        if over is None:
            if func != "count":
                return INDEX_MISS
            return len(self._extents[class_name])
        column = self._view.column(class_name, over)
        if column is None:
            return INDEX_MISS
        oids, values, floats = column
        kept = list(compress(values, map(self._visible.__contains__, oids)))
        if floats and func in ("sum", "avg"):
            return fold_floats(func, kept)
        return fold_aggregate(func, kept)

    def key_unique(self, class_name: str, attributes: Iterable[str]) -> None:
        return None

    def reference_count(self, referrer_class: str, attribute: str, oid: str):
        return INDEX_MISS

    def referential_verdict(
        self,
        mode: str,
        referenced_class: str,
        referrer_class: str,
        attribute: str,
    ):
        return INDEX_MISS


def masked_context(
    view: FrozenView,
    visible: frozenset,
    current: Any = None,
    self_extent_class: str | None = None,
    trace: ReasonTrace | None = None,
) -> EvalContext:
    """An evaluation context over the sub-store of ``visible`` oids.

    Extents drop masked objects; dereferencing an attribute that resolves
    to a masked object raises ``EngineError``, exactly as if the object had
    been deleted.  Untraced contexts answer aggregates from the view's
    frozen columns (:class:`_MaskedColumns` — the store's own indexes
    describe the *full* store, not the masked view); traced ones keep scan
    semantics (``indexes=None``), so traces list every member read.
    """
    reads = view.reads
    read = view.read

    def get_attr(obj: Any, name: str) -> Any:
        hit = reads.get((obj.oid, name)) if type(obj) is DBObject else None
        value, target = hit or read(obj, name)
        if target is not None and target not in visible:
            raise EngineError(
                f"reference {name!r} of {getattr(obj, 'oid', obj)!r} "
                f"resolves to masked object {target!r}"
            )
        return value

    extents = _MaskedExtents(view, visible)
    return EvalContext(
        current=current,
        extents=extents,
        self_extent=(
            _MaskedSelf(extents, self_extent_class)
            if self_extent_class is not None
            else ()
        ),
        self_extent_class=self_extent_class,
        constants=view.schema.constants,
        get_attr=get_attr,
        indexes=(
            _MaskedColumns(view, visible, extents) if trace is None else None
        ),
        trace=trace,
    )


def constraint_conflicts(
    view: FrozenView,
    constraint: Constraint,
    visible: frozenset,
    errors_conflict: bool = False,
    trace: ReasonTrace | None = None,
) -> bool:
    """Does ``constraint`` still fail on the sub-store of ``visible`` oids?

    Object constraints are checked on every visible member of the owner's
    deep extent (the core is about *objects*, not about one pre-chosen
    culprit).  ``errors_conflict`` selects the conflict mode: cores born
    from an evaluation error count errors as conflicts; cores born from a
    falsy verdict count them as resolved.
    """
    run = compiled(constraint.formula)
    if constraint.kind is ConstraintKind.OBJECT:
        owner = constraint.owner
        if owner is None or not view.schema.has_class(owner):
            return False
        # Evaluation never mutates its context, so one serves every member.
        ctx = masked_context(view, visible, trace=trace)
        for obj in view.extent(owner):
            if obj.oid not in visible:
                continue
            ctx.current = obj
            try:
                verdict = run(ctx)
            except _EVAL_FAILURES as exc:
                if errors_conflict:
                    if trace is not None:
                        trace.record(
                            "error", str(exc), env=getattr(exc, "bindings", ())
                        )
                    return True
                continue
            if not verdict:
                return True
        return False
    owner = (
        constraint.owner if constraint.kind is ConstraintKind.CLASS else None
    )
    ctx = masked_context(view, visible, self_extent_class=owner, trace=trace)
    try:
        verdict = run(ctx)
    except _EVAL_FAILURES as exc:
        if errors_conflict and trace is not None:
            trace.record("error", str(exc), env=getattr(exc, "bindings", ()))
        return errors_conflict
    return not verdict


# ---------------------------------------------------------------------------
# deletion-based shrinking
# ---------------------------------------------------------------------------


def shrink(
    members: Iterable[str],
    conflicts: Callable[[frozenset], bool],
    max_checks: int = MAX_SHRINK_CHECKS,
) -> tuple[list[str], int, bool]:
    """Shrink ``members`` to a subset-minimal set on which ``conflicts``
    still holds; returns ``(core, checks_spent, minimal)``.

    Precondition: ``conflicts(frozenset(members))`` is True.  Chunked
    deletion first (drop half, then quarters, ...), then singleton passes
    repeated to a fixpoint — the fixpoint pass is what certifies
    subset-minimality: a full sweep in which no single member could be
    removed.  ``minimal=False`` only when the check budget ran out.
    """
    current = list(dict.fromkeys(members))
    checks = 0
    chunk = len(current) // 2
    while chunk > 1:
        index = 0
        while index < len(current):
            if checks >= max_checks:
                return current, checks, False
            candidate = current[:index] + current[index + chunk :]
            checks += 1
            if conflicts(frozenset(candidate)):
                current = candidate
            else:
                index += chunk
        chunk //= 2
    while True:
        removed = False
        for member in list(current):
            if checks >= max_checks:
                return current, checks, False
            index = current.index(member)
            candidate = current[:index] + current[index + 1 :]
            checks += 1
            if conflicts(frozenset(candidate)):
                current = candidate
                removed = True
        if not removed:
            return current, checks, True


# ---------------------------------------------------------------------------
# closed-form cores of monotone aggregate violations
# ---------------------------------------------------------------------------

#: ``(aggregate, operator)`` pairs, aggregate on the left, whose violation
#: is monotone in the member set: adding a member never resolves it.
#: ``sum`` is monotone only over non-negative operands (checked per column).
_MONOTONE = {
    ("sum", "<"),
    ("sum", "<="),
    ("count", "<"),
    ("count", "<="),
    ("max", "<"),
    ("max", "<="),
    ("min", ">"),
    ("min", ">="),
}


def monotone_order(view: FrozenView, constraint: Constraint) -> list[str] | None:
    """The members of a monotone aggregate violation, largest contribution
    first — or ``None`` when ``constraint`` is not such a violation.

    The shape is one comparison of an aggregate with a constant, in either
    operand order, on a class or database constraint, for the pairs in
    :data:`_MONOTONE`; aggregated columns must be plain numbers (``sum``'s
    finite and ≥ 0).  Every prefix of the order then conflicts at least as
    much as any other set of its size, so the shortest conflicting prefix is
    subset-minimal: dropping any member removes at least as much as
    dropping the last.  Everything else (``avg``, mixed signs, NaN, ±inf,
    references, compound formulas) is left to :func:`shrink`.
    """
    formula = constraint.formula
    if constraint.kind is ConstraintKind.OBJECT or not isinstance(formula, Comparison):
        return None
    if isinstance(formula.right, Aggregate):
        formula = formula.mirrored()
    aggregate = formula.left
    if (
        not isinstance(aggregate, Aggregate)
        or not isinstance(formula.right, (NamedConstant, Literal))
        or (aggregate.func, formula.op) not in _MONOTONE
    ):
        return None
    base = aggregate.collection
    if base == "self":
        if constraint.kind is not ConstraintKind.CLASS:
            return None
        base = constraint.owner
    if base is None or not view.schema.has_class(base):
        return None
    if aggregate.over is None:
        return [obj.oid for obj in view.extent(base)]
    column = view.column(base, aggregate.over)
    if column is None:
        return None
    oids, values, _ = column
    if aggregate.func == "count":
        return list(oids)
    if aggregate.func == "sum" and not all(0 <= value < math.inf for value in values):
        return None
    ranked = sorted(range(len(oids)), key=values.__getitem__, reverse=aggregate.func != "min")
    return [oids[index] for index in ranked]


def prefix_core(
    view: FrozenView,
    constraint: Constraint,
    order: list[str],
    conflicts: Callable[[frozenset], bool],
) -> tuple[list[str], int, ReasonTrace] | None:
    """The shortest prefix of ``order`` (see :func:`monotone_order`) on
    which the falsy-born ``constraint`` conflicts, certified; returns
    ``(core, checks_spent, isolated_trace)``.

    Binary search over prefix lengths, then the certificate: the traced
    scan-semantics evaluation of the isolated core still conflicts, and one
    more probe shows that the core without its last (smallest) member does
    not.  ``None`` when either fails, for :func:`shrink` to take over.
    """
    low, high, checks = 0, len(order), 0
    while low < high:
        middle = (low + high) // 2
        checks += 1
        if conflicts(frozenset(order[:middle])):
            high = middle
        else:
            low = middle + 1
    core = order[:high]
    iso_trace = ReasonTrace()
    if not constraint_conflicts(view, constraint, frozenset(core), trace=iso_trace):
        return None
    if core:
        checks += 1
        if conflicts(frozenset(core[:-1])):
            return None
    return core, checks, iso_trace


# ---------------------------------------------------------------------------
# conflict cores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreMember:
    """One object of a conflict core, with its explanation metadata."""

    oid: str
    class_name: str
    #: Binding chain that put the object in scope during the isolated
    #: re-evaluation, as ``((var, oid), ...)``; empty for direct reads.
    bindings: tuple = ()
    #: Attribute names the verdict read from this object.
    reads: tuple = ()

    def describe(self) -> str:
        text = f"{self.oid} ({self.class_name})"
        if self.reads:
            text += f"  reads: {', '.join(self.reads)}"
        if self.bindings:
            chain = " -> ".join(f"{var}={oid}" for var, oid in self.bindings)
            text += f"  via {chain}"
        return text


@dataclass(frozen=True)
class ConflictCore:
    """A subset-minimal set of objects that conflicts with one constraint.

    ``verdict`` records the conflict mode (``"falsy"`` or ``"error"``);
    ``minimal`` is False only when shrinking hit its check budget;
    ``checks`` counts the masked re-evaluations spent.  ``trace`` is the
    reason trace of the *isolated* core (evaluated on the masked view
    containing exactly the members), and ``constants`` the schema constants
    that verdict read — both excluded from equality so differential tests
    can compare cores structurally.
    """

    constraint_name: str
    kind: str
    members: tuple
    verdict: str = "falsy"
    minimal: bool = True
    checks: int = 0
    trace: ReasonTrace | None = field(default=None, compare=False, repr=False)
    constants: tuple = field(default=(), compare=False, repr=False)
    constraint: Constraint | None = field(
        default=None, compare=False, repr=False
    )

    def oids(self) -> tuple[str, ...]:
        return tuple(member.oid for member in self.members)

    def describe(self) -> str:
        mode = "minimal" if self.minimal else "shrunk (budget hit)"
        lines = [
            f"{self.constraint_name} ({self.kind} constraint, verdict "
            f"{self.verdict}): {len(self.members)} object(s), {mode}"
        ]
        if self.members:
            lines.append("  removing any one member resolves the conflict:")
            lines.extend(f"    - {member.describe()}" for member in self.members)
        else:
            lines.append(
                "  conflict persists on the empty view: no deletion repairs "
                "it (the constraint demands objects that do not exist)"
            )
        if self.constants:
            lines.append(f"  constants read: {', '.join(self.constants)}")
        return "\n".join(lines)


def extract_core(
    store: "ObjectStore",
    constraint: Constraint,
    oid: str | None = None,
    max_checks: int = MAX_SHRINK_CHECKS,
) -> ConflictCore | None:
    """The conflict core of ``constraint`` on the store's current state.

    ``oid`` anchors object-constraint extraction to a known culprit (the
    audit's finding); it is folded into the seed support.  Returns ``None``
    when the constraint does not actually conflict on the full store (e.g.
    the violation was repaired since it was reported).
    """
    view = FrozenView(store)
    visible_all = frozenset(store._objects)
    run = compiled(constraint.formula)
    seed_trace = ReasonTrace()
    verdict_mode: str | None = None
    anchor: str | None = None

    # Seed: scan-semantics traced evaluation of the full store, so its
    # trace names every object the verdict read (an index probe would name
    # none).  The store's own indexes never answer a masked evaluation.
    if constraint.kind is ConstraintKind.OBJECT:
        owner = constraint.owner
        if owner is None or not store.schema.has_class(owner):
            return None
        candidates = view.extent(owner)
        if oid is not None:
            # The audit's culprit first, so its trace seeds the core.
            candidates = sorted(candidates, key=lambda o: o.oid != oid)
        for obj in candidates:
            trace = ReasonTrace()
            ctx = masked_context(view, visible_all, current=obj, trace=trace)
            try:
                verdict = run(ctx)
            except _EVAL_FAILURES as exc:
                trace.record(
                    "error", str(exc), env=getattr(exc, "bindings", ())
                )
                verdict_mode, seed_trace, anchor = "error", trace, obj.oid
                break
            if not verdict:
                verdict_mode, seed_trace, anchor = "falsy", trace, obj.oid
                break
    else:
        self_extent_class = (
            constraint.owner
            if constraint.kind is ConstraintKind.CLASS
            else None
        )
        ctx = masked_context(
            view,
            visible_all,
            self_extent_class=self_extent_class,
            trace=seed_trace,
        )
        try:
            if not run(ctx):
                verdict_mode = "falsy"
        except _EVAL_FAILURES as exc:
            seed_trace.record(
                "error", str(exc), env=getattr(exc, "bindings", ())
            )
            verdict_mode = "error"
    if verdict_mode is None:
        return None

    errors_conflict = verdict_mode == "error"

    def conflicts(visible: frozenset) -> bool:
        return constraint_conflicts(view, constraint, visible, errors_conflict)

    # A monotone aggregate violation has its core in closed form: the
    # shortest conflicting prefix of its members, largest first.
    order = None if errors_conflict else monotone_order(view, constraint)
    closed = (
        prefix_core(view, constraint, order, conflicts)
        if order is not None and len(order).bit_length() < max_checks
        else None
    )
    if closed is not None:
        core_oids, checks, iso_trace = closed
        minimal = True
    else:
        # Support from the trace, widened to the whole store if the
        # decisive subset alone does not conflict (conservative, rarely
        # taken).
        support = [o for o in seed_trace.support() if o in visible_all]
        if anchor is not None and anchor not in support:
            support.insert(0, anchor)
        if not conflicts(frozenset(support)):
            if not conflicts(visible_all):
                return None
            support = sorted(visible_all)

        core_oids, checks, minimal = shrink(support, conflicts, max_checks)

        # Certify + explain the isolated core: one traced evaluation on
        # the masked view containing exactly the members.
        iso_trace = ReasonTrace()
        constraint_conflicts(
            view,
            constraint,
            frozenset(core_oids),
            errors_conflict,
            trace=iso_trace,
        )
    chains, reads = iso_trace.member_index()
    members = tuple(
        CoreMember(
            oid=member,
            class_name=store.get(member).class_name,
            bindings=chains.get(member, ()),
            reads=reads.get(member, ()),
        )
        for member in sorted(core_oids)
    )
    return ConflictCore(
        constraint_name=constraint.qualified_name,
        kind=constraint.kind.value,
        members=members,
        verdict=verdict_mode or "falsy",
        minimal=minimal,
        checks=checks,
        trace=iso_trace,
        constants=iso_trace.constants_read(),
        constraint=constraint,
    )


def explain_violations(
    store: "ObjectStore", violations: Iterable[Any] | None = None
) -> list[ConflictCore]:
    """Conflict cores for the store's standing violations.

    ``violations`` defaults to a fresh ``store.audit()``.  Findings that
    carry a ``constraint`` (the audit's do) are explained directly; bare
    names are resolved against the schema.  Cores are deduplicated on
    ``(constraint, member set)`` — several findings of one class constraint
    collapse into the one core that explains them.
    """
    if violations is None:
        violations = store.audit()
    cores: list[ConflictCore] = []
    seen: set = set()
    for violation in violations:
        constraint = getattr(violation, "constraint", None)
        if constraint is None:
            name = getattr(violation, "constraint_name", None) or str(violation)
            constraint = _constraint_named(store, name)
        if constraint is None:
            continue
        core = extract_core(
            store, constraint, oid=getattr(violation, "oid", None)
        )
        if core is None:
            continue
        key = (core.constraint_name, frozenset(core.oids()))
        if key not in seen:
            seen.add(key)
            cores.append(core)
    return cores


def _constraint_named(store: "ObjectStore", name: str) -> Constraint | None:
    for constraint in _all_constraints(store):
        if constraint.qualified_name == name or constraint.name == name:
            return constraint
    return None


def _all_constraints(store: "ObjectStore") -> Iterable[Constraint]:
    for class_def in store.schema.classes.values():
        yield from class_def.own_object_constraints()
        yield from class_def.own_class_constraints()
    yield from store.schema.database_constraints
