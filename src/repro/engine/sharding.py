"""Shard-partitioned stores: shard cores behind a constraint-aware router.

An :class:`~repro.engine.store.ObjectStore` already factors cleanly into a
*shard core* — extents, maintained indexes, undo logs, a write-ahead log and
one writer lock, with no knowledge of any store beyond itself.  This module
adds the missing half: a :class:`ShardedStore` that partitions a schema's
classes over ``N`` independent cores and routes every operation to the
smallest set of shards that can decide it.

**Placement** (:func:`plan_placement`).  Classes are grouped by the edges a
constraint check may traverse without leaving its store: inheritance (an
object of a subclass is a member of every ancestor's extent) and reference
attributes (dereferencing must find the target in the same core).  Each
connected group is pinned whole to one shard, round-robin.  A class may
instead be *spread* — its extent distributed over every shard for write
scaling — but only when it is structurally alone: no inheritance relatives,
no reference attributes, never referenced.  The layout is persisted in a
``shards.json`` manifest so reopening reuses it verbatim.

**Constraint routing** (:func:`~repro.engine.incremental.classify_constraints`).
Every constraint is classified from its statically extracted read set:

* *shard-local* — all reads land in one core; that core enforces it alone
  through its ``constraint_scope`` and the router never sees it.
* *mergeable* — reads span shards but are covered by maintained index
  summaries: the router's merged probe adds per-shard counts and exact
  ``sum``/``avg`` partials, takes min/max of per-shard candidates, and
  totals per-shard live/dangling reference counts instead of scanning.
* *global* — reads span shards with no covering summary; the router
  evaluates against the merged multi-shard view.

The router shares the store's read and evaluation surface
(:class:`~repro.engine.store._StoreSurface`: ``get_attr``, ``eval_context``,
``dependency_index`` and the check stages) over its own oid locator and
extent merge, with a merged index probe in place of a core's, so
:mod:`repro.engine.enforcement` and :mod:`repro.engine.incremental` run
unmodified against the merged state, through the same accessors a core
uses.

**Commit protocol.**  The router is a planner: it picks the check and hands
the touched cores to the store's one commit tail
(:meth:`~repro.engine.store.ObjectStore._commit`: check → log → publish →
checkpoint policy, every participant undone on a failure before publish).
Single-shard operations whose affected constraints are all in the target
core's scope commit exactly like a standalone store, with the core's own
check — one core lock, one record, one group-commit fsync; the router adds
a dict lookup.  Operations affecting cross-shard constraints quiesce every
core, stage on their core and commit through the tail with the router's
check of the merged view.  A transaction commits the cores it wrote through
the tail once, checked against their merged delta.  Its log stage is data:
the single durable core's redo record, or, for two or more durable cores,
two-phase commit across the shard WALs (see :mod:`repro.engine.wal`): every
participant flushes its redo set as a ``prepare`` record, the
lowest-numbered participant durably logs the ``decide`` record, and each
participant settles with a ``resolve`` record.  Recovery feeds every shard's
decided outcomes back to the others (presumed abort for gids no log
decided), so a crash between records never commits a transaction on one
shard and discards it on another.  On ``sync=False`` stores this atomicity
is exactly as best-effort as single-store durability: the ordering of
cross-file OS writeback is not controlled, only the record ordering within
each log.
"""

from __future__ import annotations

import json
import threading
import uuid
from collections.abc import Iterable, Mapping
from contextlib import ExitStack
from pathlib import Path
from typing import Any

from repro.constraints.evaluate import INDEX_MISS, VACUOUS, exact_aggregate
from repro.engine.incremental import MutationDelta
from repro.engine.indexes import oid_shard, oid_sort_key
from repro.engine.objects import DBObject, check_schema_fit
from repro.engine.store import (
    ObjectStore,
    _StoreSurface,
    check_registration,
    redeem,
    schema_from_image,
)
from repro.engine.wal import MANIFEST_NAME, WriteAheadLog, _write_atomic, load_image
from repro.errors import EngineError, ShardingError, UnknownObjectError
from repro.tm.schema import DatabaseSchema

_MANIFEST_FORMAT = 1


def shard_directory(root: "str | Path", shard: int) -> Path:
    """The durable directory of one shard core under a sharded store root."""
    return Path(root) / f"shard-{int(shard)}"


def read_manifest(
    root: "str | Path",
) -> "tuple[int, frozenset[str], dict[str, int]] | None":
    """The persisted layout of the sharded store at ``root`` — shard count,
    spread classes and class placement — or ``None`` when the root holds
    no manifest.  Raises :class:`ShardingError` on an unreadable one."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text("utf-8"))
        return (
            int(manifest["shards"]),
            frozenset(str(name) for name in manifest.get("spread", ())),
            {
                str(name): int(shard)
                for name, shard in dict(manifest["placement"]).items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardingError(
            f"unreadable shard manifest at {str(path)!r}: {exc}"
        ) from exc


def _owner(parts, oid: str):
    """The part — a shard core, or a per-core snapshot — holding ``oid``,
    or ``None``.  ``parts`` is indexed by shard: sharded oids
    (``Class#S.N``) name their part directly; plain or foreign oids fall
    back to probing every part."""
    shard = oid_shard(oid)
    if shard is not None and 0 <= shard < len(parts) and oid in parts[shard]:
        return parts[shard]
    for part in parts:
        if oid in part:
            return part
    return None


def _merged_extent(parts, class_name: str, deep: bool) -> list:
    """Per-part extents merged in global ``(counter, oid)`` order — the
    global insertion-attempt order, since the spread insert cursor and the
    per-core sequences both only grow."""
    merged = [obj for part in parts for obj in part.extent(class_name, deep)]
    merged.sort(key=lambda obj: oid_sort_key(obj.oid))
    return merged


# ---------------------------------------------------------------------------
# placement planning
# ---------------------------------------------------------------------------


def plan_placement(
    schema: DatabaseSchema,
    shard_count: int,
    spread: "Iterable[str]" = (),
    existing: "Mapping[str, int] | None" = None,
) -> dict[str, int]:
    """Assign every class of ``schema`` to a home shard.

    Classes connected by inheritance or reference attributes must co-locate
    (a shard core's constraint checks dereference and walk extents inside
    its own store), so the unit of placement is the connected group, not the
    class.  Groups are assigned round-robin in schema declaration order —
    deterministic, so every reopen of the same schema plans the same layout.

    ``spread`` classes are excluded from the returned placement: their
    extents are distributed across all shards by the router's insert cursor.
    A spread class must be structurally alone — no parent, no subclasses,
    no reference attributes, and never the target of one; anything else
    would make the *core-local* checks of other classes read across shards.

    ``existing`` seeds group assignments (the persisted manifest of a
    reopened store, possibly missing classes added since): every group with
    a previously placed member keeps that shard, and the whole mapping is
    re-validated against the current schema.  Raises :class:`ShardingError`
    when the seed splits a connected group across shards or names a shard
    outside ``range(shard_count)``.
    """
    shard_count = int(shard_count)
    if shard_count < 1:
        raise ShardingError(f"shard count must be at least 1, got {shard_count}")
    spread = frozenset(spread)
    for name in sorted(spread):
        if name not in schema.classes:
            raise ShardingError(
                f"cannot spread unknown class {name!r} "
                f"(database {schema.name})"
            )

    parent_of = {name: name for name in schema.classes}

    def find(name: str) -> str:
        root = name
        while parent_of[root] != root:
            root = parent_of[root]
        while parent_of[name] != root:  # path compression
            parent_of[name], name = root, parent_of[name]
        return root

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent_of[root_b] = root_a

    referenced: set[str] = set()
    has_references: set[str] = set()
    for name, class_def in schema.classes.items():
        if class_def.parent is not None and class_def.parent in parent_of:
            union(name, class_def.parent)
        for attr_name in schema.effective_attributes(name):
            target = schema.reference_target(name, attr_name)
            if target is not None:
                has_references.add(name)
                if target in parent_of:
                    referenced.add(target)
                    union(name, target)

    group_sizes: dict[str, int] = {}
    for name in schema.classes:
        root = find(name)
        group_sizes[root] = group_sizes.get(root, 0) + 1

    for name in sorted(spread):
        problems = []
        if group_sizes[find(name)] > 1:
            problems.append("is connected to other classes by inheritance or references")
        if name in has_references:
            problems.append("declares reference attributes")
        if name in referenced:
            problems.append("is the target of reference attributes")
        if problems:
            raise ShardingError(
                f"class {name!r} cannot be spread across shards: it "
                + " and ".join(problems)
                + " — cross-shard checks of its neighbours would have to "
                "read a distributed extent"
            )

    group_shard: dict[str, int] = {}
    if existing:
        for name, shard in existing.items():
            if name not in parent_of or name in spread:
                continue  # class gone from the schema, or re-declared spread
            shard = int(shard)
            if not 0 <= shard < shard_count:
                raise ShardingError(
                    f"manifest places class {name!r} on shard {shard}, but "
                    f"the store has {shard_count} shard(s)"
                )
            root = find(name)
            prior = group_shard.setdefault(root, shard)
            if prior != shard:
                raise ShardingError(
                    f"placement splits connected classes across shards: "
                    f"{name!r} on shard {shard} is connected to classes on "
                    f"shard {prior}"
                )

    placement: dict[str, int] = {}
    fresh_groups = 0
    for name in schema.classes:
        if name in spread:
            continue
        root = find(name)
        if root not in group_shard:
            group_shard[root] = fresh_groups % shard_count
            fresh_groups += 1
        placement[name] = group_shard[root]
    return placement


# ---------------------------------------------------------------------------
# merged evaluation over all cores
# ---------------------------------------------------------------------------


class _MergedProbe:
    """The router's index probe: cross-shard answers from per-shard partials.

    Mirrors the :class:`~repro.engine.indexes.IndexManager` probe interface
    the evaluator consults (``aggregate_value`` / ``key_unique`` /
    ``reference_count`` / ``referential_verdict``), answering from the
    *merge* of every core's maintained summaries.  ``count`` adds up;
    ``sum``/``avg`` add the cores' exact partials, so they equal the plain
    store's value bit for bit; min/max take the extreme of per-shard
    candidates; referential verdicts come from summed live/dangling totals.
    Anything any core cannot answer degrades to :data:`INDEX_MISS` — the
    evaluator falls back to scanning the merged extent, exactly like an
    invalidated index.
    """

    __slots__ = ("_router", "_probes")

    def __init__(self, router: "ShardedStore"):
        self._router = router
        self._probes = [core._indexes for core in router.cores]

    def aggregate_value(self, func: str, class_name: str, over: str | None) -> Any:
        if func == "count":
            total = 0
            for probe in self._probes:
                value = probe.aggregate_value(func, class_name, over)
                if value is INDEX_MISS:
                    return INDEX_MISS
                total += value
            return total
        if func in ("sum", "avg"):
            parts = [
                probe.aggregate_partials(class_name, over) for probe in self._probes
            ]
            if any(part is INDEX_MISS for part in parts):
                return INDEX_MISS
            return exact_aggregate(func, *map(sum, zip(*parts)))
        pick = min if func == "min" else max
        best: Any = VACUOUS
        for probe in self._probes:
            value = probe.aggregate_value(func, class_name, over)
            if value is INDEX_MISS:
                return INDEX_MISS
            if value is VACUOUS:
                continue
            best = value if best is VACUOUS else pick(best, value)
        return best

    def key_unique(self, class_name: str, attributes: Iterable[str]) -> bool | None:
        shard = self._router.placement.get(class_name)
        if shard is None:
            # Spread (or unplanned) extent: no single core sees every
            # member, so no core's key index can vouch for uniqueness.
            return None
        # Pinned classes keep their whole deep extent (subclasses
        # co-locate), so the home core's verdict is the global verdict.
        return self._probes[shard].key_unique(class_name, attributes)

    def reference_count(self, referrer_class: str, attribute: str, oid: str) -> Any:
        total = 0
        for probe in self._probes:
            value = probe.reference_count(referrer_class, attribute, oid)
            if value is INDEX_MISS:
                return INDEX_MISS
            total += value
        return total

    def referential_verdict(
        self,
        mode: str,
        referenced_class: str,
        referrer_class: str,
        attribute: str,
    ) -> Any:
        live = 0
        for probe in self._probes:
            totals = probe.reference_totals(
                referrer_class, attribute, referenced_class
            )
            if totals is INDEX_MISS:
                return INDEX_MISS
            live_with_ref, dangling = totals
            if dangling:
                # Dangling references must surface through the scan path's
                # dereference error, exactly like a single core's verdict.
                return INDEX_MISS
            live += live_with_ref
        size = self.aggregate_value("count", referenced_class, None)
        if size is INDEX_MISS:
            return INDEX_MISS
        if mode == "all":
            return live == size
        if mode == "any":
            return live > 0
        if mode == "none":
            return live == 0
        return INDEX_MISS


# ---------------------------------------------------------------------------
# the commit router
# ---------------------------------------------------------------------------


class ShardedStore(_StoreSurface):
    """``N`` independent shard cores behind one constraint-aware router.

    Presents the :class:`~repro.engine.store.ObjectStore` surface (insert /
    update / delete / get / extent / transaction / audit / ...) while
    partitioning the contents by class — and, for *spread* classes, by a
    round-robin insert cursor — over ``shards`` cores, each a full
    standalone store with its own extents, indexes, undo log, write-ahead
    log and writer lock.

    Each core enforces exactly the constraints classified shard-local to it
    (its ``constraint_scope``); the router enforces the cross-shard rest
    against the merged view, using per-shard index summaries as mergeable
    partials where they cover the reads.  Operations whose affected
    constraints are all core-local take the *fast path* — routed straight
    to one core, no router lock, no cross-shard coordination — so disjoint
    shards accept writers concurrently and a single-shard workload keeps
    the standalone store's cost profile.  With ``shards=1`` every
    constraint is local to the only core, and the one shard routes like
    many: only an op right after a schema or baseline change is routed.

    Every write commits through the store's one commit tail
    (:meth:`ObjectStore._commit`); cross-shard *transactions* that wrote
    to several durable shards log atomically via two-phase commit across
    the shard WALs; see the module docstring for the protocol and
    its ``sync=False`` caveat.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        shards: int = 1,
        *,
        spread: "Iterable[str]" = (),
        enforce: bool = True,
        analyze: bool = False,
        placement: "Mapping[str, int] | None" = None,
        _cores: "list[ObjectStore] | None" = None,
    ):
        #: The frozen schema value the router and every core share; only
        #: :meth:`change_schema` replaces it.
        self.schema = schema.freeze()
        self.shards = int(shards)
        self.spread = frozenset(spread)
        self.enforce = enforce
        self.analyze = analyze
        #: The router checks every constraint the cores do not (and, on its
        #: merged view, re-checking a local one is merely redundant): no
        #: scope filter.  Present so enforcement treats the router and a
        #: plain store uniformly.
        self.constraint_scope: "frozenset | None" = None
        self.placement = plan_placement(
            schema, self.shards, self.spread, existing=placement
        )
        if _cores is not None:
            if len(_cores) != self.shards:
                raise ShardingError(
                    f"expected {self.shards} shard cores, got {len(_cores)}"
                )
            self.cores = list(_cores)
        else:
            # One registration check for the whole store (open() runs it
            # before recovering the cores it passes in).
            if analyze:
                check_registration(schema)
            self.cores = [
                ObjectStore(schema, enforce=enforce, wal=None, oid_namespace=shard)
                for shard in range(self.shards)
            ]
        # Every core prunes entailed constraints from its hot path exactly
        # as the router does (open() recovers the cores with the plain
        # store's defaults).
        for core in self.cores:
            core.analyze = analyze
        #: Router lock: serializes cross-shard (global) operations, routing
        #: rebuilds and transactions.  Fast-path operations never take it.
        self._lock = threading.RLock()
        self._txn_depth = 0
        self._txn_owner: int | None = None
        self._spread_lock = threading.Lock()
        #: Per-spread-class insert cursor (next shard, round-robin).
        self._spread_seq: dict[str, int] = {}
        self._attr_types: dict[tuple[str, str], Any] = {}
        #: The schema value of the last clean full validation of the
        #: *merged* store; mirrors the plain store's validated baseline.
        self._validated_schema: DatabaseSchema | None = None
        #: Write shape → every constraint its plan checks is local to the
        #: class's home core(s): an insert or delete (class), or an update
        #: of each attribute ((class, attr)), may skip the router.
        self._fast: dict = {}
        #: Operation counters (observability; the stress harness reports
        #: them alongside per-shard group-commit stats).
        self.fast_path_ops = 0
        self.routed_global_ops = 0
        self.two_phase_commits = 0
        self._rebuild_routing()

    # -- routing -------------------------------------------------------------

    def _rebuild_routing(self) -> None:
        """(Re)derive constraint scopes and the fast-path table from the
        current schema.  Called from ``__init__`` before the store is
        shared, and by :meth:`change_schema` on a quiesced store."""
        from repro.engine.incremental import classify_constraints, shard_scopes

        self.placement = plan_placement(
            self.schema, self.shards, self.spread, existing=self.placement
        )
        index = self.dependency_index()
        tiers = classify_constraints(index, self.placement, self.spread)
        scopes = shard_scopes(tiers, self.shards)
        total = len(index._by_constraint)
        for core, scope in zip(self.cores, scopes):
            # A scope covering every constraint filters nothing: drop it so
            # the core's hot path pays no membership tests (always the case
            # at shards=1).
            core.constraint_scope = None if len(scope) == total else scope
        fast: dict = {}
        for class_name in self.schema.classes:
            if class_name in self.spread:
                # A spread object may land on any core, so every affected
                # constraint must be in *every* core's scope.
                allowed: frozenset = (
                    frozenset.intersection(*scopes) if scopes else frozenset()
                )
            else:
                allowed = scopes[self.placement.get(class_name, 0)]
            attrs = self.schema.effective_attributes(class_name)
            for shape in (class_name, *((class_name, attr) for attr in attrs)):
                fast[shape] = index.checks_for(shape).constraints() <= allowed
        self._fast = fast

    def _fast_ready(self) -> bool:
        """Whether the fast path may run: the merged store holds a clean
        validation baseline under the current schema value (the routing
        tables are rebuilt whenever that value is replaced).  A missing
        baseline (first ever mutation, or a schema change since) forces
        one routed operation, which fully revalidates and re-baselines —
        mirroring the plain store's incremental fallback."""
        return self._validated_schema is self.schema

    def _in_transaction(self) -> bool:
        return self._txn_depth > 0 and self._txn_owner == threading.get_ident()

    def _core_for_insert(self, class_name: str) -> ObjectStore:
        if class_name in self.spread:
            with self._spread_lock:
                seq = self._spread_seq.get(class_name, 0)
                self._spread_seq[class_name] = seq + 1
            return self.cores[seq % self.shards]
        return self.cores[self.placement.get(class_name, 0)]

    def _locate(self, oid: str) -> ObjectStore:
        """The core holding ``oid`` (see :func:`_owner`)."""
        core = _owner(self.cores, oid)
        if core is None:
            raise UnknownObjectError(f"no object with identifier {oid!r}")
        return core

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(core) for core in self.cores)

    def __contains__(self, oid: str) -> bool:
        return _owner(self.cores, oid) is not None

    def get(self, oid: str) -> DBObject:
        return self._locate(oid).get(oid)

    @property
    def _objects(self) -> dict[str, DBObject]:
        """The merged oid → object mapping, in global insertion order.
        Materialized per call — meant for audits and explanation passes,
        not hot paths."""
        merged: dict[str, DBObject] = {}
        for core in self.cores:
            merged.update(core._objects)
        return dict(sorted(merged.items(), key=lambda item: oid_sort_key(item[0])))

    def objects(self) -> "Iterable[DBObject]":
        return list(self._objects.values())

    def extent(self, class_name: str, deep: bool = True) -> list[DBObject]:
        """See :meth:`ObjectStore.extent`.  Pinned classes answer from their
        home core (their whole deep extent co-locates); spread classes merge
        per-core extents (:func:`_merged_extent`)."""
        home = self.placement.get(class_name)
        if home is not None:
            return self.cores[home].extent(class_name, deep)
        return _merged_extent(self.cores, class_name, deep)

    def _probe(self) -> "_MergedProbe":
        """The merged index probe of the router's evaluation contexts:
        cross-shard aggregates answered from per-shard partials."""
        return _MergedProbe(self)

    # -- enforcement plumbing ------------------------------------------------

    def audit(self) -> list:
        """Validate the merged store; a clean pass re-baselines the router
        *and* every core (each local scope holds on its core whenever the
        whole holds on the merge)."""
        from repro.engine.enforcement import all_violations

        schema = self.schema
        found = all_violations(self)
        if not found:
            self._validated_schema = schema
            for core in self.cores:
                core._validated_schema = schema
        return found

    def explain_violations(self, violations=None) -> list:
        """See :meth:`ObjectStore.explain_violations`.  The audit and every
        shrink probe run on a :meth:`_quiesced` store."""
        from repro.engine.explain import explain_violations

        with self._quiesced():
            return explain_violations(self, violations)

    def _quiesced(self) -> "_Quiesced":
        """A context manager holding the router lock, then every core's
        writer lock in shard order — the one global acquisition order, so
        quiescing can never deadlock with fast-path writers (which take one
        core lock) or transactions (which take the router lock first)."""
        return _Quiesced(self)

    # -- mutation ------------------------------------------------------------

    def insert(
        self,
        class_name: str,
        state: "Mapping[str, Any] | None" = None,
        **kwargs: Any,
    ) -> DBObject:
        core = self._core_for_insert(class_name)
        return self._dispatch(
            core,
            lambda: self._fast.get(class_name, False),
            core._insert_locked,
            class_name,
            state,
            kwargs,
        )

    def update(self, target: "DBObject | str", **changes: Any) -> DBObject:
        oid = target.oid if isinstance(target, DBObject) else target
        core = self._locate(oid)

        def fast() -> bool:
            class_name = core.get(oid).class_name
            return all(self._fast.get((class_name, attr), False) for attr in changes)

        return self._dispatch(core, fast, core._update_locked, target, changes)

    def delete(self, target: "DBObject | str") -> None:
        oid = target.oid if isinstance(target, DBObject) else target
        core = self._locate(oid)
        return self._dispatch(
            core,
            lambda: self._fast.get(core.get(oid).class_name, False),
            core._delete_locked,
            target,
        )

    def _dispatch(self, core: ObjectStore, fast, stage, *args: Any) -> Any:
        """Plan one mutation, staged on ``core`` by ``stage``: inside a
        transaction it joins the core's bracket (the transaction validates
        at commit); on the fast path — every constraint ``fast()`` says the
        op affects is local to ``core``, under a clean baseline — ``core``
        commits it with its own check, counted; otherwise it is routed
        (:meth:`_global_op`)."""
        if self._in_transaction():
            return core._write(stage, *args)
        if self._fast_ready() and fast():
            self.fast_path_ops += 1
            return core._write(stage, *args)
        return self._global_op(core, stage, args)

    def _global_op(self, core: ObjectStore, stage, args: tuple) -> Any:
        """Run one operation on ``core`` under cross-shard validation: on a
        :meth:`_quiesced` store, stage it on ``core`` and commit it through
        the store's commit tail with the router's check of the merged view
        in place of the core's own — delta-driven under a clean validated
        baseline, a full revalidation otherwise.  It logs like a plain
        auto-commit op, and a rejection raises the plain store's exception
        shapes.  The commit's ticket is redeemed with the locks released."""
        with self._quiesced():
            self.routed_global_ops += 1
            undo: dict = {}
            delta = MutationDelta()
            result = stage(undo, delta, *args)
            owed = ObjectStore._commit(
                ((core, undo),), delta, self._check_op, ObjectStore._log_commit
            )
        redeem(owed)
        return result

    def change_schema(self, schema: DatabaseSchema) -> None:
        """Replace the schema of the router and every core with ``schema``
        (see :meth:`ObjectStore.change_schema`): on a quiesced store each
        core logs its own ``schema`` record and adopts the value, then the
        router adopts it and rebuilds its routing tables.  The next routed
        operation fully revalidates, as on a plain store.  Should a later
        core's append fail, the value is adopted everywhere all the same:
        a reopen reads the schema from the first shard's log, which holds
        it."""
        owed: list = []
        with self._quiesced():
            if self._txn_depth:
                raise EngineError("cannot change the schema inside a transaction")
            # Refuse a schema the placement cannot hold, or a stored object
            # does not fit, before anything is logged.
            plan_placement(schema, self.shards, self.spread, existing=self.placement)
            for core in self.cores:
                check_schema_fit(self.schema, schema, core._table())
            try:
                for core in self.cores:
                    owed.append((core, core._change_schema_locked(schema)))
            except BaseException:
                for core, ticket in owed:
                    if ticket is not None:
                        core._wal.abandon_ticket(ticket)
                if owed:
                    self._adopt(schema)
                raise
            self._adopt(schema)
        redeem(owed)

    def set_constant(self, name: str, value: Any) -> None:
        """Rebind a schema constant: :meth:`change_schema` with a copy of
        the schema that binds ``name`` to ``value``."""
        with self._lock:
            schema = self.schema.copy()
            schema.set_constant(name, value)
            self.change_schema(schema)

    def _adopt(self, schema: DatabaseSchema) -> None:
        """Make ``schema`` the value of the router and of every core that
        did not adopt it itself (store quiesced)."""
        for core in self.cores:
            if core.schema is not schema:
                core._adopt(schema)
        self.schema = schema.freeze()
        self._attr_types = {}
        self._rebuild_routing()

    # -- transactions ---------------------------------------------------------

    def transaction(self, validate: bool = True) -> "_ShardedTransaction":
        """A deferred-validation transaction spanning all shards.

        Opens a transaction on every core (a core it leaves unwritten logs
        nothing, and no core checks its own: only the router's outermost
        exit commits, through the tail); operations inside route by
        placement with no per-op enforcement.  At exit the router validates
        the merged delta and either rolls every core back or commits —
        atomically across the durable shards that were written, via
        two-phase commit when there is more than one.  Nested transactions nest per core, exactly like
        the plain store's."""
        return _ShardedTransaction(self, validate=validate)

    # -- durability -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: "str | Path",
        schema: DatabaseSchema | None = None,
        shards: int | None = None,
        *,
        spread: "Iterable[str]" = (),
        enforce: bool = True,
        analyze: bool = False,
        sync: bool = False,
        checkpoint_every: int = 10_000,
        verify: bool = True,
        faults: Any = None,
    ) -> "ShardedStore":
        """Open (or create) the sharded durable store rooted at ``root``.

        A sharded root holds a ``shards.json`` manifest plus one
        ``shard-<i>`` directory per core.  When the manifest exists, the
        persisted shard count, spread set and class placement are reused
        verbatim (``shards`` may be omitted, and must match when given);
        otherwise ``schema`` and ``shards`` create a fresh layout.

        Recovery loads every shard's log image once to pool the decided
        outcomes of two-phase commits, then builds each core from its image
        with that pool resolving its in-doubt prepares — a transaction
        prepared on one shard commits iff *some* shard's log holds its
        durable ``decide``, and is discarded otherwise (presumed abort).  The
        schema is parsed once (from shard 0's image) and shared by every
        core.  With ``verify`` the merged store is audited after recovery.

        ``faults`` is a single :class:`~repro.engine.faults.FaultInjector`
        shared by every shard, or a mapping of shard index to injector for
        targeting one shard's files (testing only).
        """
        root = Path(root)
        spread = frozenset(spread)
        placement: "dict[str, int] | None" = None
        manifest = read_manifest(root)
        if manifest is not None:
            manifest_shards, manifest_spread, placement = manifest
            if shards is not None and int(shards) != manifest_shards:
                raise ShardingError(
                    f"store at {str(root)!r} has {manifest_shards} shard(s); "
                    f"requested {int(shards)}"
                )
            shards = manifest_shards
            spread = spread | manifest_spread
        elif shards is None:
            shards = 1

        def injector_for(shard: int) -> Any:
            if isinstance(faults, Mapping):
                return faults.get(shard)
            return faults

        shard_count = int(shards)
        if shard_count < 1:
            raise ShardingError(f"shard count must be at least 1, got {shard_count}")
        directories = [shard_directory(root, shard) for shard in range(shard_count)]
        images = [load_image(directory) for directory in directories]
        outcomes: dict[str, bool] = {}
        for image in images:
            if image is not None:
                outcomes.update(image.decisions)
        if schema is None:
            seed = next((image for image in images if image is not None), None)
            if seed is None:
                raise EngineError(
                    f"no durable store at {str(root)!r}; pass a schema to "
                    "create one"
                )
            schema = schema_from_image(seed)
        placement = plan_placement(schema, shard_count, spread, existing=placement)
        if analyze:
            check_registration(schema)
        root.mkdir(parents=True, exist_ok=True)
        layout = json.dumps(
            {
                "format": _MANIFEST_FORMAT,
                "database": schema.name,
                "shards": shard_count,
                "spread": sorted(spread),
                "placement": placement,
            },
            indent=2,
            sort_keys=True,
        ).encode("utf-8") + b"\n"
        manifest_path = root / MANIFEST_NAME
        # Rewritten only when the layout changed, and atomically: a crash
        # mid-write must never leave a torn manifest the root cannot open.
        if not manifest_path.exists() or manifest_path.read_bytes() != layout:
            _write_atomic(manifest_path, layout)
        cores = [
            ObjectStore._recover(
                WriteAheadLog(directory, sync, checkpoint_every, injector_for(shard)),
                image,
                schema,
                verify=False,
                resolutions=outcomes,
                enforce=enforce,
                oid_namespace=shard,
            )
            for shard, (directory, image) in enumerate(zip(directories, images))
        ]
        store = cls(
            schema,
            shard_count,
            spread=spread,
            enforce=enforce,
            analyze=analyze,
            placement=placement,
            _cores=cores,
        )
        # Recover each spread class's insert cursor: total size keeps the
        # round-robin balanced; the exact phase only affects fairness.
        for name in store.spread:
            store._spread_seq[name] = len(store.extent(name))
        if verify:
            store._raise_violations("recovery", store.audit())
        return store

    @property
    def durable(self) -> bool:
        """Whether any shard core writes through to a write-ahead log.
        Cores are homogeneous (all durable or none), so this mirrors
        :attr:`ObjectStore.durable` exactly."""
        return any(core.wal is not None for core in self.cores)

    def checkpoint(self) -> None:
        """Checkpoint every durable core (snapshot + log compaction).

        Raises :class:`~repro.errors.EngineError` on a fully in-memory
        sharded store and inside a transaction — the same contract as
        :meth:`ObjectStore.checkpoint`, so :class:`StoreAPI` callers see
        one behaviour whichever flavor they hold."""
        if not self.durable:
            raise EngineError("store has no write-ahead log attached")
        # The router lock first, as change_schema takes it: another thread's
        # transaction is waited out, only this thread's own is refused.
        with self._lock:
            if self._txn_depth:
                raise EngineError("cannot checkpoint inside a transaction")
            for core in self.cores:
                if core.wal is not None:
                    core.checkpoint()

    def close(self) -> None:
        for core in self.cores:
            core.close()

    def snapshot(self) -> "MergedSnapshot":
        """An immutable point-in-time view of the *merged* committed store.

        A cut that is consistent across cores requires quiescing them:
        the router briefly acquires every core's writer lock (in shard
        order, the global acquisition order), takes one per-core snapshot
        under each, and releases.  Acquisition is therefore O(shards) lock
        hops — heavier than a single core's O(1) snapshot, but still
        non-blocking for readers once taken, and it never waits on fsyncs
        (commits release their writer lock before redeeming group-commit
        tickets)."""
        with self._quiesced():
            return MergedSnapshot([core.snapshot() for core in self.cores])

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard observability: object counts and group-commit telemetry
        (fsyncs, sync commits, fsyncs per commit, mean commits per fsync
        batch) for each core's write-ahead log."""
        stats = []
        for shard, core in enumerate(self.cores):
            entry: dict[str, Any] = {"shard": shard, "objects": len(core)}
            wal = core.wal
            if wal is not None:
                fsyncs = wal.fsyncs
                commits = wal.sync_commits
                entry["fsyncs"] = fsyncs
                entry["sync_commits"] = commits
                entry["fsyncs_per_commit"] = fsyncs / commits if commits else 0.0
                entry["mean_batch"] = commits / fsyncs if fsyncs else 0.0
            stats.append(entry)
        return stats


class _Quiesced:
    """See :meth:`ShardedStore._quiesced`.  A plain class, not a generator:
    snapshot reads pay for it on every call."""

    __slots__ = ("_router",)

    def __init__(self, router: ShardedStore):
        self._router = router

    def __enter__(self) -> None:
        router = self._router
        router._lock.acquire()
        held = 0
        try:
            for core in router.cores:
                core._lock.acquire()
                held += 1
        except BaseException:
            for core in reversed(router.cores[:held]):
                core._lock.release()
            router._lock.release()
            raise

    def __exit__(self, *exc_info: object) -> None:
        router = self._router
        for core in reversed(router.cores):
            core._lock.release()
        router._lock.release()


# ---------------------------------------------------------------------------
# cross-shard transactions
# ---------------------------------------------------------------------------


class _ShardedTransaction:
    """One router-level transaction: a bracket on every core, committed as
    one through the store's commit tail — checked against the merged delta,
    logged by two-phase commit when it wrote two or more durable cores.
    Returned by :meth:`ShardedStore.transaction`."""

    def __init__(self, router: ShardedStore, validate: bool = True):
        self.router = router
        self.validate = validate
        self._core_txns: list = []
        self._outer = False

    def __enter__(self) -> "_ShardedTransaction":
        router = self.router
        router._lock.acquire()
        try:
            self._outer = router._txn_depth == 0
            if self._outer:
                router._txn_owner = threading.get_ident()
            txns: list = []
            try:
                for core in router.cores:
                    txns.append(core.transaction().__enter__())
            except BaseException as exc:
                # A refused entry exits the brackets already opened.
                for txn in reversed(txns):
                    txn.__exit__(type(exc), exc, exc.__traceback__)
                raise
            self._core_txns = txns
            router._txn_depth += 1
        except BaseException:
            if router._txn_depth == 0:
                router._txn_owner = None
            router._lock.release()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        router = self.router
        owed: list = []
        try:
            if exc_type is not None or not self._outer:
                # Rollbacks and inner commits are each core's own, exactly
                # like the plain store's nested transactions; the stack
                # exits every bracket even if one exit raises.
                exits = ExitStack()
                for txn in self._core_txns:
                    exits.push(txn)
                exits.__exit__(exc_type, exc, tb)
                return False
            try:
                owed = self._commit_cores()
            finally:
                # Every core lock is released, even if one release raises.
                with ExitStack() as releases:
                    for txn in self._core_txns:
                        releases.callback(txn.store._lock.release)
        finally:
            router._txn_depth -= 1
            if router._txn_depth == 0:
                router._txn_owner = None
            router._lock.release()
        redeem(owed)
        return False

    def _commit_cores(self) -> list:
        """The outermost commit: unwind every core bracket's bookkeeping,
        then run the store's commit tail once over the cores this
        transaction wrote, checked against their merged delta.  Its log
        stage is the single durable core's redo record, or
        :meth:`_commit` for two or more."""
        merged = MutationDelta()
        written = []
        for txn in self._core_txns:
            core = txn.store
            undo = txn._unwind()
            merged.merge(core._delta)
            core._delta = txn._outer_delta
            if undo:
                written.append((core, undo))
        durable = sum(core._wal is not None for core, _undo in written)
        return ObjectStore._commit(
            written,
            merged,
            self._check,
            self._commit if durable > 1 else ObjectStore._log_commit,
        )

    def _check(self, delta) -> None:
        if self.validate:
            self.router._check_transaction(delta)

    def _commit(self, participants) -> list:
        """Two-phase commit: the log stage of a transaction that wrote two
        or more durable cores.  Every participant flushes its redo set as a
        ``prepare`` record; once every prepare is durable, the
        lowest-numbered participant durably logs the ``decide``; then each
        participant logs a ``resolve``, durable before this returns (the
        tail's checkpoint policy may fold the decide away).  Owes no ticket.

        A failure before the decide was attempted resolves every prepared
        participant as aborted — no decide can exist anywhere, so presumed
        abort is sound.  After it, the decide's bytes may have reached the
        coordinator's log, so the outcome belongs to recovery alone: every
        prepare stays in doubt on disk and its log is poisoned, so
        nothing builds on a state the reopen may contradict.  Either way
        the memory image is the tail's to undo."""
        stores = [store for store, _undo in participants]
        gid = uuid.uuid4().hex
        prepared: list = []
        # Prepare tickets issued and not yet redeemed.
        tickets: list = []
        decide_attempted = False
        try:
            for store, undo in participants:
                prepared.append(store)
                ticket = store._wal.prepare_transaction(
                    gid, store._redo(undo), store._oid_seq
                )
                tickets.append((store, ticket))
            # Every prepare record durable before the decide: a decide
            # record must never outrun a participant's prepared ops.
            while tickets:
                store, ticket = tickets.pop(0)
                store._await_durability(ticket)
            coordinator = stores[0]._wal
            decide_attempted = True
            coordinator.log_decide(gid, True)
            ticket = coordinator.commit_flush()
            if ticket is not None:
                coordinator.wait_durable(ticket)
        except BaseException:
            for store, ticket in tickets:
                store._wal.abandon_ticket(ticket)
            for store in prepared:
                try:
                    if decide_attempted:
                        store._wal.poison(
                            "two-phase decide outcome unknown; "
                            "prepare is in-doubt until reopen"
                        )
                    else:
                        store._wal.log_resolve(gid, False)
                        store._wal.abandon_ticket(store._wal.commit_flush())
                except BaseException:
                    pass  # presumed abort covers an unlogged resolve
            raise
        for store in stores:
            try:
                store._wal.log_resolve(gid, True)
                store._await_durability(store._wal.commit_flush())
            except BaseException:
                pass  # the durable decide already fixes the outcome
        self.router.two_phase_commits += 1
        return [None] * len(stores)


# ---------------------------------------------------------------------------
# merged snapshots
# ---------------------------------------------------------------------------


class MergedSnapshot:
    """A consistent cross-shard cut: one per-core snapshot per shard, taken
    while :meth:`ShardedStore.snapshot` held every core's writer lock.

    Read accessors mirror :class:`~repro.engine.concurrency.Snapshot`:
    ``get`` routes by the oid's shard namespace (falling back to probing
    every member), ``extent`` merges per-core extents in global
    ``(counter, oid)`` order, and closing releases every member's version
    pin.  Immutable and safe to read from any thread, like its members.
    """

    __slots__ = ("_members",)

    def __init__(self, members: list):
        self._members = list(members)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for member in self._members:
            member.close()

    def __enter__(self) -> "MergedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reads -------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The schema value the cut was taken under (every member's)."""
        return self._members[0].schema

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, str) and _owner(self._members, oid) is not None

    def get(self, oid: str):
        member = _owner(self._members, oid)
        if member is None:
            raise UnknownObjectError(
                f"no object with identifier {oid!r} in the merged snapshot"
            )
        return member.get(oid)

    def get_attr(self, obj: Any, name: str) -> Any:
        """Reference-dereferencing attribute read across the cut, by the
        member that owns ``obj``: references never cross cores (a core
        type-checks them against its own objects), so the owner resolves
        every one at this cut."""
        member = _owner(self._members, obj.oid)
        # Not ``or``: a snapshot's truth value is its O(history) length.
        return (self._members[0] if member is None else member).get_attr(obj, name)

    def extent(self, class_name: str, deep: bool = True) -> list:
        return _merged_extent(self._members, class_name, deep)

    def objects(self):
        for member in self._members:
            yield from member.objects()

    def __len__(self) -> int:
        return sum(len(member) for member in self._members)
