"""Incremental (delta-driven) constraint enforcement.

The seed engine re-evaluated *every* constraint against the *whole* store at
each transaction commit.  This module implements the classic remedy —
simplified integrity checking: evaluate only the constraints that the update
delta can possibly have invalidated.

Three pieces cooperate:

* :class:`ConstraintDependencyIndex` — a static index, built once per schema
  value (memoised on the schema, which a store freezes, so a schema change
  is a new value with an index of its own), that walks each constraint's
  AST and records what it *reads*:
  ``(class, attribute)`` pairs, class extents whose membership matters, and
  references into other classes.  Reads are expanded over the subclass
  closure, because an object of a subclass lives in every ancestor's extent.
  From the read sets it builds, on first use, one :class:`CheckPlan` per
  *write shape* — a class (an insert or delete) or a ``(class, attribute)``
  pair (an update) — and per store scope: the checks such a write can
  falsify, in evaluation order, with the store's ``constraint_scope`` and
  (on ``analyze=True`` stores) the analyser's pruning already applied
  (:meth:`~ConstraintDependencyIndex.checks_for`).  The shard router's
  fast path asks the same plans.

* :class:`MutationDelta` — the dirty set.  Each ``insert``/``update``/
  ``delete`` records its write shapes and the touched object identifiers
  (with the attribute names changed per object).  Deltas merge, so a
  transaction accumulates one delta across all of its operations.

* the delta-driven validators — :func:`check_delta` (fail-fast, used for
  single-operation enforcement) and :func:`delta_violations` (collecting,
  used at transaction commit) — which walk the union of the delta's plans,
  sharing one evaluation context per commit.  Both render a failed check
  with the full check's builder, :func:`repro.engine.enforcement.violation`.

The same delta discipline underpins durability: on a durable store every
accepted commit writes the net effect of the touched set its delta
describes to the write-ahead log (:mod:`repro.engine.wal`) as one redo
record, and a recovered store re-enters this module's contract
by taking a fresh full-validation baseline (a clean
:meth:`~repro.engine.store.ObjectStore.audit` records the schema value it
validated, after which checking is delta-driven again).

Correctness argument: assuming the store satisfied all constraints before the
delta, any newly violated constraint must read something the delta wrote
(an attribute value or an extent membership), so one of the delta's shapes
plans it.  Anything the extractor cannot resolve statically (a path
through an unknown attribute, an unknown class) marks the constraint
*universal* — planned for every write shape — so approximation errs on the
side of checking.  Stores that were already inconsistent (built with
``enforce=False``) are outside this contract; use
:meth:`~repro.engine.store.ObjectStore.check_all` for a full audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator
from itertools import chain
from typing import Any, TYPE_CHECKING

from repro.constraints.ast import (
    Aggregate,
    KeyConstraint,
    Node,
    Path,
    Quantified,
    match_referential_body,
)
from repro.constraints.evaluate import compiled, evaluate
from repro.constraints.model import Constraint, ConstraintKind
from repro.constraints.scope import Resolution, Scope, Step, traverse
from repro.engine.enforcement import _EVAL_FAILURES, Violation, violation
from repro.errors import (
    ConstraintViolation,
    EvaluationError,
    SchemaError,
)
from repro.types.primitives import ClassRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.objects import DBObject
    from repro.engine.store import ObjectStore
    from repro.tm.schema import DatabaseSchema


# ---------------------------------------------------------------------------
# dirty sets
# ---------------------------------------------------------------------------


@dataclass
class MutationDelta:
    """What a batch of mutations touched.

    ``shapes`` holds the write shapes seen, each naming one
    :class:`CheckPlan`: a class name for an insert or a delete of one of
    its objects, a ``(class, attribute)`` pair for an update of that
    attribute.  ``objects`` maps oid → the set of attribute names
    changed on that object, with ``None`` meaning "all of them" (inserts).
    ``record_delete`` drops the oid from its own delta, but merging
    per-operation deltas into a transaction's accumulated delta can leave
    oids that were later deleted; validators skip identifiers that no
    longer resolve.
    """

    shapes: set[str | tuple[str, str]] = field(default_factory=set)
    objects: dict[str, set[str] | None] = field(default_factory=dict)

    def record_insert(self, obj: "DBObject") -> None:
        self.shapes.add(obj.class_name)
        self.objects[obj.oid] = None

    def record_update(self, obj: "DBObject", changed: set[str]) -> None:
        self.shapes.update((obj.class_name, name) for name in changed)
        previous = self.objects.get(obj.oid, set())
        if previous is None:
            return  # inserted in this delta: already "all attributes"
        self.objects[obj.oid] = set(previous) | changed

    def record_delete(self, obj: "DBObject") -> None:
        self.shapes.add(obj.class_name)
        self.objects.pop(obj.oid, None)

    def merge(self, other: "MutationDelta") -> None:
        self.shapes |= other.shapes
        for oid, changed in other.objects.items():
            if changed is None or self.objects.get(oid, set()) is None:
                self.objects[oid] = None
            else:
                self.objects[oid] = set(self.objects.get(oid) or set()) | changed

    def copy(self) -> "MutationDelta":
        return MutationDelta(
            shapes=set(self.shapes),
            objects={
                oid: (None if changed is None else set(changed))
                for oid, changed in self.objects.items()
            },
        )


# ---------------------------------------------------------------------------
# the constraint-dependency index
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IndexedConstraint:
    """One constraint plus the statically extracted read set.  An index
    builds one entry per constraint, so entries compare by identity."""

    constraint: Constraint
    #: The owner class and its subclasses (empty for database constraints).
    owner_extent: frozenset[str]
    #: Every ``(class, attribute)`` the formula may read, subclass-expanded.
    attrs: frozenset[tuple[str, str]]
    #: Classes whose extent *membership* the formula depends on.
    extents: frozenset[str]
    #: Reads taken directly off the constrained object (first path segment
    #: rooted at the owner).
    own: frozenset[tuple[str, str]] = frozenset()
    #: Reads that reach *other* objects — through reference dereferences,
    #: quantifier variables or aggregate items.  Changes to those can
    #: invalidate the constraint on any object of the owner, even when the
    #: read class lies inside the owner's own subclass closure (a
    #: self-referencing ``Manager.rep : Employee`` reads other employees).
    foreign: frozenset[tuple[str, str]] = frozenset()
    #: True when static analysis could not resolve part of the formula;
    #: universal constraints are checked on every delta.
    universal: bool = False
    #: ``(func, class, attribute)`` aggregates the formula evaluates over a
    #: statically known extent; the :class:`~repro.engine.indexes.IndexManager`
    #: materializes a running aggregate for each (``attribute`` is ``None``
    #: for bare counts, answered from the deep-extent index).
    aggregate_specs: frozenset[tuple[str, str, str | None]] = frozenset()
    #: ``(class, attributes)`` uniqueness checks; each gets a key hash index.
    key_specs: frozenset[tuple[str, tuple[str, ...]]] = frozenset()
    #: ``(referrer class, attribute, referenced class)`` referential
    #: quantifier reads (``exists y in D | y.a = x`` with ``a`` a reference
    #: into the referenced class); the
    #: :class:`~repro.engine.indexes.IndexManager` materializes a
    #: reference-count index for each.
    reference_specs: frozenset[tuple[str, str, str]] = frozenset()
    #: The formula's compiled closure, bound once at index build so checks
    #: skip the cache lookup (which re-hashes the AST); ``None`` when the
    #: formula does not compile — evaluation then fails at check time with
    #: the usual error shape.
    run: Any = None

    @property
    def kind(self) -> ConstraintKind:
        return self.constraint.kind

    def evaluate_with(self, ctx) -> Any:
        if self.run is not None:
            return self.run(ctx)
        return evaluate(self.constraint.formula, ctx)

    def own_attr_names(self) -> frozenset[str]:
        """Attribute names read directly off the constrained object."""
        return frozenset(attr for _cls, attr in self.own)


@dataclass(frozen=True)
class CheckPlan:
    """The checks a write of one shape can falsify, in evaluation order.

    A check is planned when it is universal or its read set meets what the
    shape writes: an insert or delete writes its class's extent and every
    attribute, an update one attribute.  ``own`` are the object checks on
    the touched object (its class's effective object constraints, all of
    them for an insert); ``extents`` the object constraints whose owner
    extents are re-checked, because the write meets a read outside the
    constrained object (``foreign`` or ``extents``); ``classes`` and
    ``database`` the class and database checks.
    """

    own: tuple[IndexedConstraint, ...] = ()
    extents: tuple[IndexedConstraint, ...] = ()
    classes: tuple[IndexedConstraint, ...] = ()
    database: tuple[IndexedConstraint, ...] = ()

    def constraints(self) -> frozenset[Constraint]:
        """Every constraint the plan checks."""
        return frozenset(
            entry.constraint
            for entry in chain(self.own, self.extents, self.classes, self.database)
        )


class _ReadSetBuilder:
    """Walks one constraint formula in its scope
    (:mod:`repro.constraints.scope`), accumulating the read set."""

    def __init__(self, schema: "DatabaseSchema", owner: str | None):
        self.schema = schema
        self.owner = owner
        self.own: set[tuple[str, str]] = set()
        self.foreign: set[tuple[str, str]] = set()
        self.extents: set[str] = set()
        self.aggregates: set[tuple[str, str, str | None]] = set()
        self.keys: set[tuple[str, tuple[str, ...]]] = set()
        self.references: set[tuple[str, str, str]] = set()
        self.universal = False

    def closure(self, class_name: str) -> list[str]:
        return [class_name, *self.schema.subclasses_of(class_name)]

    def walk(self, formula: Node) -> None:
        traverse(formula, Scope(self.schema, self.owner), self._visit)

    def _visit(self, node: Node, scope: Scope) -> Node | None:
        """Record one node's reads; ``None`` descends into its children."""
        if isinstance(node, Quantified):
            if not self.schema.has_class(node.class_name):
                self.universal = True
                return node
            self.extents.update(self.closure(node.class_name))
            self._note_referential(node)
            return None
        if isinstance(node, Aggregate):
            base = scope.base(node)
            if base is None or not self.schema.has_class(base):
                self.universal = True
                return node
            self.extents.update(self.closure(base))
            # Register the aggregate for materialization when its reads are
            # statically resolvable (the attribute is effective on the base
            # class, hence on every member of the deep extent).
            if node.over is None or self._read(scope.resolve_over(node)):
                self.aggregates.add((node.func, base, node.over))
            return node
        if isinstance(node, KeyConstraint):
            owner = scope.owner
            if owner is None or not self.schema.has_class(owner):
                self.universal = True
                return node
            self.extents.update(self.closure(owner))
            ends = [self._read(scope.resolve_key(attr)) for attr in node.attributes]
            # Reference-typed key components are left to the scan path: it
            # *dereferences* them (raising on a dangling oid), while a hash
            # index would compare raw oids — a semantic divergence.
            if all(end is not None and not isinstance(end.tm_type, ClassRef) for end in ends):
                self.keys.add((owner, node.attributes))
            return node
        if isinstance(node, Path):
            self._read(scope.resolve(node))
            return node
        return None

    def _note_referential(self, node: Quantified) -> None:
        """Register a reference spec for a referential existential.

        ``exists y in D | y.a = <expr>`` (either operand order) with ``a`` a
        reference attribute reads "who references ``<expr>``" — the shape a
        maintained referrer-count index answers in O(1), both standalone and
        as the body of the enclosing ``forall``/``exists`` verdict forms
        (see :func:`repro.constraints.ast.match_referential_quantifier`).
        The index counts *raw* a-values over the whole deep extent of D, so
        registration requires every class in D's closure to agree on the
        attribute's reference target; redeclared or non-reference slots stay
        on the scan path.
        """
        if node.kind != "exists":
            return
        match = match_referential_body(node.body, node.var)
        if match is None:
            return
        attribute, _other = match
        referenced: str | None = None
        for cls in self.closure(node.class_name):
            target = self.schema.reference_target(cls, attribute)
            if target is None:
                return
            if referenced is None:
                referenced = target
            elif target != referenced:
                return
        if referenced is not None and self.schema.has_class(referenced):
            self.references.add((node.class_name, attribute, referenced))

    def _read(self, resolution: Resolution) -> Step | None:
        """Record a resolved path's ``(class, attr)`` reads; its last step
        when it fully resolved (else the constraint is universal).  Only the
        first step of an owner-rooted path reads the constrained object
        itself; every other step reads a different object (``foreign``)."""
        for index, step in enumerate(resolution.steps):
            target = self.own if resolution.owner_rooted and index == 0 else self.foreign
            for cls in self.closure(step.class_name):
                target.add((cls, step.attribute))
            if isinstance(step.tm_type, ClassRef):
                # Reading a reference depends on the referenced object's
                # *existence* even when no attribute of it is read (a bare
                # ref comparison): deleting a member of the target extent
                # can leave the reference dangling.
                self.extents.update(self.closure(step.tm_type.class_name))
        if resolution.failure is not None:
            self.universal = True
        return resolution.end


class ConstraintDependencyIndex:
    """Read sets for every constraint of a schema, grouped by kind.

    Building the index also warms the compiled-evaluation cache
    (:func:`repro.constraints.evaluate.compiled`) for every constraint
    formula, so the first post-build check pays no lowering cost.
    """

    def __init__(self, schema: "DatabaseSchema"):
        self._schema = schema
        self.object_constraints: list[IndexedConstraint] = []
        self.class_constraints: list[IndexedConstraint] = []
        self.database_constraints: list[IndexedConstraint] = []
        self._by_constraint: dict[Constraint, IndexedConstraint] = {}
        for constraint in schema.all_constraints():
            entry = self._analyze(constraint)
            self._by_constraint[constraint] = entry
            if constraint.kind is ConstraintKind.OBJECT:
                self.object_constraints.append(entry)
            elif constraint.kind is ConstraintKind.CLASS:
                self.class_constraints.append(entry)
            else:
                self.database_constraints.append(entry)
        #: Lazily computed set of safely prunable constraints (analysis
        #: pass 4); ``None`` until a store with ``analyze=True`` asks.
        self._pruned: frozenset[Constraint] | None = None
        #: ``(shape, scope, analyze)`` → :class:`CheckPlan`, built on first
        #: use (:meth:`checks_for`).
        self._plans: dict[tuple, CheckPlan] = {}

    def _analyze(self, constraint: Constraint) -> IndexedConstraint:
        schema = self._schema
        builder = _ReadSetBuilder(schema, constraint.owner)
        try:
            builder.walk(constraint.formula)
        except SchemaError:
            builder.universal = True
        owner_extent: frozenset[str] = frozenset()
        if constraint.owner is not None and schema.has_class(constraint.owner):
            owner_extent = frozenset(builder.closure(constraint.owner))
        try:
            run = compiled(constraint.formula)
        except EvaluationError:
            run = None  # malformed formulas fail at check time, as before
        return IndexedConstraint(
            constraint=constraint,
            owner_extent=owner_extent,
            attrs=frozenset(builder.own | builder.foreign),
            extents=frozenset(builder.extents),
            own=frozenset(builder.own),
            foreign=frozenset(builder.foreign),
            universal=builder.universal,
            aggregate_specs=frozenset(builder.aggregates),
            key_specs=frozenset(builder.keys),
            reference_specs=frozenset(builder.references),
            run=run,
        )

    def entry(self, constraint: Constraint) -> IndexedConstraint | None:
        return self._by_constraint.get(constraint)

    def checks_for(self, shape, store=None) -> CheckPlan:
        """The :class:`CheckPlan` of one write shape (see
        :class:`MutationDelta`) under ``store``'s ``constraint_scope`` and,
        on an ``analyze=True`` store, without the analyser's pruned object
        constraints; ``store=None`` gives the unscoped, unpruned plan.
        Built on first use: relevance is decided once per schema value, not
        per write."""
        key = (
            (shape, None, False)
            if store is None
            else (shape, store.constraint_scope, store.analyze)
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(*key)
        return plan

    def _plan(
        self, shape, scope: "frozenset[Constraint] | None", analyze: bool
    ) -> CheckPlan:
        """The plan of one shape, by :class:`CheckPlan`'s rule."""
        schema = self._schema
        whole = isinstance(shape, str)
        if whole:
            class_name, extents = shape, {shape}
            attrs = {(shape, attr) for attr in schema.effective_attributes(shape)}
        else:
            class_name, extents, attrs = shape[0], set(), {shape}
        # The pruned set holds object constraints only.
        pruned = self.pruned_constraints() if analyze else frozenset()

        def kept(entry: IndexedConstraint) -> bool:
            constraint = entry.constraint
            return (scope is None or constraint in scope) and constraint not in pruned

        def reads(entry: IndexedConstraint, read: frozenset) -> bool:
            return (
                entry.universal
                or not read.isdisjoint(attrs)
                or not entry.extents.isdisjoint(extents)
            )

        effective = (
            self._by_constraint[constraint]
            for constraint in schema.effective_object_constraints(class_name)
        )
        return CheckPlan(
            own=tuple(
                entry
                for entry in effective
                if kept(entry) and (whole or reads(entry, entry.attrs))
            ),
            extents=tuple(
                entry
                for entry in self.object_constraints
                if entry.owner_extent and kept(entry) and reads(entry, entry.foreign)
            ),
            classes=tuple(
                entry
                for entry in self.class_constraints
                if kept(entry) and reads(entry, entry.attrs)
            ),
            database=tuple(
                entry
                for entry in self.database_constraints
                if kept(entry) and reads(entry, entry.attrs)
            ),
        )

    def pruned_constraints(self) -> frozenset[Constraint]:
        """The safely prunable object constraints (analysis pass 4), computed
        on first use and cached for the index lifetime.  Consumed only by
        stores opened with ``analyze=True``; audits never prune."""
        if self._pruned is None:
            from repro.constraints.analysis import prunable_constraints

            self._pruned = frozenset(prunable_constraints(self._schema))
        return self._pruned

    def aggregate_specs(self) -> frozenset[tuple[str, str, str | None]]:
        """Every ``(func, class, attribute)`` aggregate any constraint of the
        schema evaluates — the registration feed for maintained aggregates."""
        specs: set[tuple[str, str, str | None]] = set()
        for entry in self._by_constraint.values():
            specs |= entry.aggregate_specs
        return frozenset(specs)

    def key_specs(self) -> frozenset[tuple[str, tuple[str, ...]]]:
        """Every ``(class, attributes)`` uniqueness constraint — the
        registration feed for key hash indexes."""
        specs: set[tuple[str, tuple[str, ...]]] = set()
        for entry in self._by_constraint.values():
            specs |= entry.key_specs
        return frozenset(specs)

    def reference_specs(self) -> frozenset[tuple[str, str, str]]:
        """Every ``(referrer class, attribute, referenced class)`` referential
        quantifier read — the registration feed for reference-count
        indexes."""
        specs: set[tuple[str, str, str]] = set()
        for entry in self._by_constraint.values():
            specs |= entry.reference_specs
        return frozenset(specs)

    @classmethod
    def for_schema(cls, schema: "DatabaseSchema") -> "ConstraintDependencyIndex":
        """The index of ``schema``, memoised on the schema value."""
        return schema.memo("dependency_index", lambda: cls(schema))


# ---------------------------------------------------------------------------
# delta-driven validation
# ---------------------------------------------------------------------------


def _union(reference: tuple, parts) -> tuple:
    """The entries of ``reference`` that are in any of ``parts``, in
    ``reference``'s order."""
    chosen = set().union(*parts)
    return tuple(entry for entry in reference if entry in chosen)


def _checks(
    store: "ObjectStore", delta: MutationDelta
) -> Iterator[tuple[IndexedConstraint, "DBObject | None", str | None]]:
    """The ``(entry, object, owner)`` checks of ``delta``'s plans, in
    evaluation order: object checks on each touched object (in mutation
    order), owner-extent re-checks (each ``(constraint, object)`` pair
    once), then class checks and database checks.

    A multi-shape delta runs the union of its shapes' plans; so does a
    touched object updated on several attributes.  A write that changed
    nothing has no shape and runs no check."""
    index = store.dependency_index()
    plans: dict = {}

    def plan(shape) -> CheckPlan:
        found = plans.get(shape)
        if found is None:
            found = plans[shape] = index.checks_for(shape, store)
        return found

    seen: set[tuple[int, str]] = set()
    for oid, changed in delta.objects.items():
        if oid not in store:
            continue  # deleted later in the same delta, or rolled back
        obj = store.get(oid)
        class_name = obj.class_name
        if changed is None:
            own = plan(class_name).own
        elif len(changed) == 1:
            own = plan((class_name, next(iter(changed)))).own
        else:
            own = _union(
                plan(class_name).own,
                [plan((class_name, attr)).own for attr in changed],
            )
        for entry in own:
            seen.add((id(entry), oid))
            yield entry, obj, None
    shaped = [plan(shape) for shape in delta.shapes]
    if len(shaped) == 1:
        (whole,) = shaped
    else:
        whole = CheckPlan(
            extents=_union(index.object_constraints, [p.extents for p in shaped]),
            classes=_union(index.class_constraints, [p.classes for p in shaped]),
            database=_union(
                index.database_constraints, [p.database for p in shaped]
            ),
        )
    for entry in whole.extents:
        for obj in store.extent(entry.constraint.owner):
            key = (id(entry), obj.oid)
            if key not in seen:
                seen.add(key)
                yield entry, obj, None
    for entry in whole.classes:
        yield entry, None, entry.constraint.owner
    for entry in whole.database:
        yield entry, None, None


def _violations(store: "ObjectStore", delta: MutationDelta) -> Iterator[Violation]:
    """The check-stage walk shared by :func:`check_delta` and
    :func:`delta_violations`: every check of the delta's plans
    (:func:`_checks`), lazily yielding one
    :func:`~repro.engine.enforcement.violation` per failing check, so a
    fail-fast caller evaluates nothing past its first failure.

    No evaluation changes the store, so the walk shares one evaluation
    context, with ``current`` rebound per object, and one per class-check
    owner, as the full check does."""
    shared = store.eval_context()
    owners: dict[str, Any] = {}
    for entry, current, owner in _checks(store, delta):
        if owner is None:
            shared.current = current
            ctx = shared
        else:
            ctx = owners.get(owner)
            if ctx is None:
                ctx = owners[owner] = store.eval_context(self_extent_class=owner)
        try:
            if entry.evaluate_with(ctx):
                continue
            error = None
        except _EVAL_FAILURES as exc:
            error = exc
        yield violation(store, entry.constraint, error, current, owner)


def check_delta(store: "ObjectStore", delta: MutationDelta) -> None:
    """Fail-fast validation of the constraints affected by ``delta``.

    Raises :class:`ConstraintViolation` for the first violated constraint,
    checking object constraints, then class constraints, then database
    constraints; it carries that one :class:`Violation`.  Given a store
    that satisfied its constraints before the delta, it raises iff the full
    check (:func:`repro.engine.enforcement.all_violations`) finds a
    violation.
    """
    found = next(_violations(store, delta), None)
    if found is not None:
        raise ConstraintViolation(
            found.constraint_name,
            found.detail,
            violations=(found,),
            trace=found.trace,
        )


def delta_violations(store: "ObjectStore", delta: MutationDelta) -> list[Violation]:
    """Every violation among the constraints affected by ``delta``.

    The commit-time counterpart of
    :func:`repro.engine.enforcement.all_violations`: given a store that
    satisfied its constraints before the delta was applied, this finds a
    violation if and only if full revalidation would (it may report fewer
    violations overall — only the affected ones — but never zero when full
    validation reports some).
    """
    return list(_violations(store, delta))


# ---------------------------------------------------------------------------
# shard classification
# ---------------------------------------------------------------------------


#: Enforcement tiers a constraint can land in under a sharded layout.
SHARD_LOCAL = "local"
SHARD_MERGEABLE = "mergeable"
SHARD_GLOBAL = "global"


@dataclass(frozen=True)
class ConstraintShardPlan:
    """Where one constraint is enforced under a given class→shard placement.

    ``tier`` is one of:

    :data:`SHARD_LOCAL`
        Every read lands inside one shard — the shard core enforces it with
        no coordination.  ``shard`` names the core; ``None`` means
        *anywhere-local*: the constraint reads only the constrained object
        itself, so whichever core holds the object enforces it (the form a
        spread class's object constraints take).
    :data:`SHARD_MERGEABLE`
        Reads span shards, but the formula's cross-shard reads are covered
        by maintained index summaries (aggregates, reference counts) that
        combine as mergeable partials — the router sums per-shard
        ``sum``/``count``/min-max candidates and live/dangling totals
        instead of scanning.
    :data:`SHARD_GLOBAL`
        Reads span shards with no covering summaries (or static analysis
        gave up: ``universal``); the router evaluates against the merged
        multi-shard view.
    """

    constraint: Constraint
    entry: IndexedConstraint
    tier: str
    #: Enforcing shard for pinned-local constraints; ``None`` for
    #: anywhere-local and for both cross-shard tiers.
    shard: int | None

    @property
    def local(self) -> bool:
        return self.tier == SHARD_LOCAL


def classify_constraints(
    index: ConstraintDependencyIndex,
    placement: "dict[str, int]",
    spread: "frozenset[str] | set[str]" = frozenset(),
) -> list[ConstraintShardPlan]:
    """Classify every constraint of ``index`` against a shard layout.

    ``placement`` maps each pinned class to its home shard; ``spread`` names
    classes whose *extents* are distributed across shards (their objects
    have no single home, so any read of their extent membership or of other
    objects' attributes is a cross-shard read).  The classification is the
    static half of the routing contract: a shard core's enforcement scope
    (:func:`shard_scopes`) is exactly the local tier, and the router owns
    the two cross-shard tiers.
    """
    spread = frozenset(spread)
    plans: list[ConstraintShardPlan] = []
    for entry in (
        *index.object_constraints,
        *index.class_constraints,
        *index.database_constraints,
    ):
        constraint = entry.constraint
        if entry.universal:
            # Static analysis could not bound the read set: only the
            # router's merged view is guaranteed to contain every read.
            plans.append(ConstraintShardPlan(constraint, entry, SHARD_GLOBAL, None))
            continue
        if (
            constraint.kind is ConstraintKind.OBJECT
            and not entry.foreign
            and not entry.extents
        ):
            # Reads nothing beyond the constrained object's own attributes:
            # checkable on whichever core holds the object, spread or not.
            plans.append(ConstraintShardPlan(constraint, entry, SHARD_LOCAL, None))
            continue
        read_classes = (
            {cls for cls, _attr in entry.attrs}
            | set(entry.extents)
            | set(entry.owner_extent)
        )
        shards = {placement[cls] for cls in read_classes if cls in placement}
        unplaced = any(cls not in placement for cls in read_classes)
        if read_classes & spread or unplaced or len(shards) > 1:
            tier = (
                SHARD_MERGEABLE
                if (entry.aggregate_specs or entry.reference_specs)
                else SHARD_GLOBAL
            )
            plans.append(ConstraintShardPlan(constraint, entry, tier, None))
        else:
            # Constant-only formulas read no class at all; any single core
            # can enforce them — shard 0 by convention.
            shard = shards.pop() if shards else 0
            plans.append(ConstraintShardPlan(constraint, entry, SHARD_LOCAL, shard))
    return plans


def shard_scopes(
    plans: "list[ConstraintShardPlan]", shard_count: int
) -> list[frozenset[Constraint]]:
    """Per-shard enforcement scopes: shard ``s`` enforces the local-tier
    constraints pinned to it plus every anywhere-local constraint.  The two
    cross-shard tiers appear in no scope — the router checks them."""
    scopes: list[frozenset[Constraint]] = []
    for shard in range(shard_count):
        scopes.append(
            frozenset(
                plan.constraint
                for plan in plans
                if plan.local and plan.shard in (None, shard)
            )
        )
    return scopes
