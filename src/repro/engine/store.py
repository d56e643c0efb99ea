"""The object store: extents, mutation, dereferencing, enforcement hooks."""

from __future__ import annotations

import bisect
import os
import shutil
import tempfile
import threading
import weakref
from pathlib import Path
from collections.abc import Iterable, Mapping
from typing import Any

from repro.constraints.evaluate import EvalContext
from repro.engine.concurrency import ConcurrencyControl, Snapshot
from repro.engine.faults import FaultInjector
from repro.engine import incremental
from repro.engine.incremental import ConstraintDependencyIndex, MutationDelta
from repro.engine.indexes import IndexManager, oid_sort_key
from repro.engine.objects import DBObject, check_schema_fit, check_types
from repro.engine.wal import (
    RecoveredImage,
    WriteAheadLog,
    apply_resolutions,
    collector_paused,
    load_image,
)
from repro.errors import (
    ConstraintViolation,
    EngineError,
    SchemaError,
    UnknownClassError,
    UnknownObjectError,
)
from repro.tm.schema import DatabaseSchema
from repro.types.primitives import ClassRef


class _StoreSurface:
    """The read, evaluation and validation surface shared by
    :class:`ObjectStore` and the shard router
    (:class:`~repro.engine.sharding.ShardedStore`): reference-dereferencing
    attribute reads, evaluation contexts, and the check stages of the
    commit tail.  The host class provides ``schema``, ``enforce``,
    ``_attr_types``, ``_validated_schema``, ``get``/``__contains__``/
    ``extent``, :meth:`audit` (a clean audit records the schema value it
    validated) and ``_probe`` (the index probe its evaluation contexts
    consult)."""

    def get_attr(self, obj: Any, name: str) -> Any:
        """Attribute accessor for the constraint evaluator.

        Dereferences reference attributes: reading ``publisher`` from an Item
        yields the Publisher *object*, so paths like ``publisher.name``
        traverse the store.
        """
        if isinstance(obj, DBObject):
            if name not in obj.state:
                raise EngineError(
                    f"{obj.class_name} object {obj.oid} has no attribute {name!r}"
                )
            value = obj.state[name]
            key = (obj.class_name, name)
            if key in self._attr_types:
                tm_type = self._attr_types[key]
            else:
                try:
                    tm_type = self.schema.attribute_type(obj.class_name, name)
                except SchemaError:
                    tm_type = None
                self._attr_types[key] = tm_type
            if isinstance(tm_type, ClassRef) and isinstance(value, str):
                return self.get(value)
            return value
        raise EngineError(f"cannot read attribute {name!r} from {obj!r}")

    def eval_context(
        self,
        current: Any = None,
        self_extent_class: str | None = None,
        bindings: dict[str, Any] | None = None,
    ) -> EvalContext:
        """An :class:`EvalContext` wired to this store's extents/constants.

        ``self_extent`` is *lazy*: most aggregate and key checks are
        answered by the index probe (``indexes``) without ever
        materializing the extent, which is what keeps those checks O(1)."""
        return EvalContext(
            current=current,
            bindings=bindings or {},
            extents=_ExtentView(self),
            self_extent=(
                _LazyExtent(self, self_extent_class) if self_extent_class else ()
            ),
            self_extent_class=self_extent_class,
            constants=self.schema.constants,
            get_attr=self.get_attr,
            indexes=self._probe(),
        )

    def dependency_index(self):
        """The constraint-dependency index of this store's schema value."""
        return ConstraintDependencyIndex.for_schema(self.schema)

    def _check_op(self, delta: MutationDelta) -> None:
        """The check stage of an auto-commit op (plain or routed): re-check
        what the delta can have invalidated, fail-fast (fully, when there is
        no validated baseline)."""
        if not self.enforce:
            return
        if self._validated_schema is not self.schema:
            # Full-store validation: no validated baseline exists (no full
            # pass yet, or the schema changed since the last one).
            self._raise_violations("full revalidation", self.audit())
            return
        incremental.check_delta(self, delta)

    def _check_transaction(self, delta: "MutationDelta | None") -> None:
        """The check stage of an outermost transaction (plain, or the
        router's over the merged delta of every core): every violation the
        delta can have caused — delta-driven when this store holds a
        validated baseline for the current schema, a full audit otherwise
        (a schema adopted since the last clean audit can invalidate
        constraints with no data delta).  Raises one
        :class:`ConstraintViolation` naming them all, with conflict cores
        extracted before the commit tail's undo destroys the violating
        state they explain."""
        if not self.enforce:
            return
        if delta is None or self._validated_schema is not self.schema:
            violations = self.audit()
        else:
            violations = incremental.delta_violations(self, delta)
        self._raise_violations("transaction", violations)

    def _raise_violations(self, label: str, violations: list) -> None:
        """Raise one :class:`ConstraintViolation` labelled ``label`` that
        names every one of ``violations`` and carries their conflict cores;
        a no-op when there are none."""
        if violations:
            raise ConstraintViolation(
                label,
                "; ".join(violation.describe() for violation in violations),
                violations=violations,
                cores=self._cores_for(violations),
            )

    def check_all(self) -> list[str]:
        """Validate the entire store; returns violation descriptions
        (:meth:`audit` keeps the structured objects)."""
        return [violation.describe() for violation in self.audit()]

    def _cores_for(self, violations) -> tuple:
        """Cores attached to a failure-path exception.  Best-effort by
        contract: explanation must never mask the violation being raised,
        so any error inside extraction degrades to 'no cores'."""
        from repro.engine.explain import explain_violations

        try:
            return tuple(explain_violations(self, violations))
        except Exception:  # pragma: no cover - defensive, see docstring
            return ()


class ObjectStore(_StoreSurface):
    """An in-memory object database over a TM schema.

    Every mutating operation type-checks the affected state and — unless the
    store is created with ``enforce=False`` or the mutation happens inside a
    deferred transaction — re-checks the constraints that the mutation could
    have invalidated, raising :class:`ConstraintViolation` and leaving the
    store unchanged on failure.

    Enforcement is *delta-driven*: each mutation records a
    :class:`~repro.engine.incremental.MutationDelta` and only the
    constraints whose statically extracted read set intersects the delta
    are re-checked (see :mod:`repro.engine.incremental`).  Without a
    validated baseline — no full pass yet, or the schema changed since the
    last one — the store revalidates fully instead.

    The store maintains auxiliary state through an
    :class:`~repro.engine.indexes.IndexManager` — per-class deep-extent
    indexes, running aggregates, key hash indexes and reference-count
    indexes — kept transactionally consistent with every mutation and
    rollback, so ``extent()`` is O(|result|) and aggregate/key/referential
    constraint checks answer in O(1) instead of re-scanning extents.

    This is a *simplified* check in Martinenghi's sense: it is correct iff
    it agrees with the full check.  :class:`repro.engine.oracle.Oracle` is
    that full check, and the differential test suites hold the store to it.

    With ``wal`` set (a directory path or a pre-configured
    :class:`~repro.engine.wal.WriteAheadLog`) the store is *durable*: every
    accepted commit — an auto-commit op or an outermost transaction —
    appends its touched set's post-images to an append-only log as one redo
    record, rejected and aborted work writes nothing, and periodic snapshot
    checkpoints bound the log.  :meth:`ObjectStore.open` recovers
    such a directory after a crash or restart.  ``wal=None`` honours the
    ``REPRO_WAL`` environment toggle (a throwaway log under a temp
    directory, so an unmodified test suite exercises the write-through
    path); ``wal=False`` disables durability unconditionally.

    **Concurrency.**  The store is safe under concurrent load: every
    mutating operation (and every transaction, for its whole extent) runs
    under one coarse reentrant writer lock, while readers call
    :meth:`snapshot` for an immutable point-in-time view of the committed
    store that never takes that lock (see
    :mod:`repro.engine.concurrency`).  Durable ``sync=True`` commits
    release the writer lock before waiting for their fsync, so concurrent
    committers coalesce into one fsync per batch (group commit — see
    :mod:`repro.engine.wal`).  Direct reads of the *live* store
    (:meth:`extent`, :meth:`get`, iteration) are only safe from the writer
    thread or quiesced stores; concurrent readers must go through
    snapshots.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        enforce: bool = True,
        wal: "WriteAheadLog | str | Path | bool | None" = None,
        analyze: bool = False,
        oid_namespace: int | None = None,
    ):
        #: The schema value this store enforces, frozen on adoption; only
        #: :meth:`change_schema` replaces it.
        self.schema = schema.freeze()
        self.enforce = enforce
        #: Shard namespace stamped into minted oids (``Class#S.N``); ``None``
        #: keeps the plain ``Class#N`` shape.  Set by the commit router
        #: (:mod:`repro.engine.sharding`) so oid minting never serializes
        #: across shards — each core's ``_oid_seq`` is independent and its
        #: oids parse back to their own counter (:func:`oid_counter`).
        self.oid_namespace = oid_namespace
        self._oid_prefix = "" if oid_namespace is None else f"{int(oid_namespace)}."
        #: Constraints this store is responsible for enforcing; ``None``
        #: means all of them (the default, standalone behaviour).  A shard
        #: core is scoped to the constraints its shard can check alone —
        #: the router owns everything else.  Checked by identity against
        #: the schema's constraint objects, so the set must be built from
        #: the same schema instance this store holds.
        self.constraint_scope: "frozenset | None" = None
        #: Opt-in schema static analysis (:mod:`repro.constraints.analysis`):
        #: registration rejects schemas with error-level findings (malformed
        #: constraints, individually-UNSAT constraints, contradictory
        #: constraint sets), and incremental enforcement skips constraints
        #: the analyser proved redundant (entailed by a keeper with a
        #: covering read set).  Audits and full revalidation never prune.
        self.analyze = analyze
        if analyze:
            check_registration(schema)
        self._objects: dict[str, DBObject] = {}
        #: Oids a rollback re-registered at the end of ``_objects`` since
        #: the table was last in insertion order (see :meth:`_table`).
        self._misplaced: list[str] = []
        self._direct_extents: dict[str, set[str]] = {
            name: set() for name in schema.classes
        }
        #: Last issued oid counter value (oids are ``Class#N``); monotonic
        #: for the lifetime of the durable directory, never reused.
        self._oid_seq = 0
        self._deferred = False
        #: Dirty set of the enclosing transaction; None outside transactions.
        self._delta = None
        #: Undo log of the enclosing transaction (oid → pre-image, ``None``
        #: for an insert); None outside transactions.  Auto-commit ops
        #: stage into a one-entry undo log of their own (:meth:`_write`).
        self._undo: dict[str, tuple[DBObject, dict] | None] | None = None
        #: Undo logs of *every* open transaction level, outermost first —
        #: ``_undo`` is its last element while a transaction is open.  Lets
        #: a same-thread :meth:`snapshot` reconstruct the committed state
        #: from under a nested transaction.
        self._undo_stack: list[dict] = []
        #: Coarse writer lock: one mutator (or transaction) at a time.
        #: Reentrant, so transactions hold it across their operations.
        self._lock = threading.RLock()
        #: Snapshot-read machinery; inert until the first snapshot() call.
        self._concurrency = ConcurrencyControl(schema)
        #: The image the store was recovered from; ``None`` for fresh
        #: stores.  Carries the recovery findings for the CLI.
        self._recovery_info: RecoveredImage | None = None
        #: (class, attribute) → declared type, for the dereferencing hot
        #: path.  Valid for one schema value: :meth:`change_schema` clears it.
        self._attr_types: dict[tuple[str, str], Any] = {}
        #: The schema value the last *full* validation known to hold on
        #: this store ran under; ``None`` until one has run.  Incremental
        #: enforcement needs a validated starting point (even an empty store
        #: can violate an ``exists``-style constraint), and a new schema
        #: value can invalidate constraints with no data delta at all (a
        #: rebound constant).  When it is not the current schema,
        #: enforcement falls back to full revalidation, and any clean full
        #: pass re-baselines.
        self._validated_schema: DatabaseSchema | None = None
        #: Maintained auxiliary indexes (deep extents, running aggregates,
        #: key hash maps, reference counts).  Created last: the manager
        #: reads the store's schema and (empty) contents.
        self._indexes = IndexManager(self)
        #: Durability write-through; ``None`` on purely in-memory stores.
        self._wal: WriteAheadLog | None = None
        from_environment = False
        if wal is None:
            wal = _wal_from_environment()
            from_environment = wal is not None
        elif wal is False:
            wal = None
        elif not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        if wal is not None:
            if wal.has_data():
                raise EngineError(
                    f"durable state already exists at {str(wal.path)!r}; "
                    "use ObjectStore.open() to recover it"
                )
            from repro.tm.printer import schema_to_source

            try:
                source = schema_to_source(schema)
            except Exception:
                # The REPRO_WAL toggle is best-effort: a schema the TM
                # printer cannot render (integration-internal virtual
                # classes) skips durability instead of failing the store.
                if not from_environment:
                    raise
                source = None
            if source is not None:
                wal.initialize(source, schema.name, (), 0)
                self._wal = wal

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, oid: str) -> bool:
        return oid in self._objects

    def get(self, oid: str) -> DBObject:
        if oid not in self._objects:
            raise UnknownObjectError(f"no object with identifier {oid!r}")
        return self._objects[oid]

    def objects(self) -> Iterable[DBObject]:
        """Every stored object, in insertion order."""
        return self._table().values()

    def _table(self) -> dict[str, DBObject]:
        """``_objects`` in insertion order.  The readers that depend on the
        table's order go through here: :meth:`objects` (and so audits,
        index rebuilds, the CLI and the server), :meth:`checkpoint`,
        snapshot activation (:meth:`_committed_view`) and the schema-fit
        check of :meth:`change_schema`.  A rollback that resurrects deleted
        objects appends them at the end of the table; moving them back is
        deferred to the next such reader, so that a rejected delete costs
        O(touched), not O(store).  The re-placement rebinds ``_objects``,
        so it runs under the writer lock: a reader on another thread must
        not swap the table while a writer attaches to it."""
        if self._misplaced:
            with self._lock:
                if self._misplaced:
                    self._restore_object_order()
        return self._objects

    def extent(self, class_name: str, deep: bool = True) -> list[DBObject]:
        """The objects whose most specific class is ``class_name`` (or a
        subclass, when ``deep``).  Order is insertion order.

        O(|result|) (plus an O(k log k) sort for shallow extents, where k is
        the extent size): deep extents resolve from the maintained deep-extent
        index, shallow ones from ``_direct_extents``.
        """
        if not self.schema.has_class(class_name):
            raise UnknownClassError(
                f"no class {class_name!r} in database {self.schema.name}"
            )
        objects = self._objects
        if not deep:
            # Direct extents are plain oid sets; engine oids embed the global
            # insertion counter, so insertion order is recoverable without
            # touching the rest of the store (malformed oids sort first
            # rather than raising, matching the index layer's degradation).
            oids = sorted(
                self._direct_extents.get(class_name, ()), key=oid_sort_key
            )
            return [objects[oid] for oid in oids]
        return [objects[oid] for oid in self._indexes.deep_extent_oids(class_name)]

    def _probe(self):
        """The index probe of this store's evaluation contexts."""
        return self._indexes

    # -- mutation -----------------------------------------------------------------

    def insert(self, class_name: str, state: Mapping[str, Any] | None = None, **kwargs: Any) -> DBObject:
        """Create an object of ``class_name`` with the given attribute values.

        All effective attributes must be provided; values are type-checked
        (with safe coercions such as int→real applied).
        """
        return self._write(self._insert_locked, class_name, state, kwargs)

    def _insert_locked(
        self,
        undo: dict,
        delta: MutationDelta,
        class_name: str,
        state: Mapping[str, Any] | None,
        kwargs: Mapping[str, Any],
    ) -> DBObject:
        if class_name not in self.schema.classes:
            raise UnknownClassError(
                f"no class {class_name!r} in database {self.schema.name}"
            )
        full_state = dict(state or {})
        full_state.update(kwargs)
        checked = check_types(self.schema, self._objects, class_name, full_state)
        self._check_writable()
        self._oid_seq += 1
        oid = f"{class_name}#{self._oid_prefix}{self._oid_seq}"
        obj = DBObject(oid, class_name, checked)
        self._attach(obj)
        undo[oid] = None
        delta.record_insert(obj)
        return obj

    def update(self, target: DBObject | str, **changes: Any) -> DBObject:
        """Change attribute values of an existing object."""
        return self._write(self._update_locked, target, changes)

    def _update_locked(
        self,
        undo: dict,
        delta: MutationDelta,
        target: DBObject | str,
        changes: Mapping[str, Any],
    ) -> DBObject:
        obj = self.get(target.oid if isinstance(target, DBObject) else target)
        unknown = set(changes) - set(self.schema.effective_attributes(obj.class_name))
        if unknown:
            raise EngineError(
                f"class {obj.class_name} has no attributes {sorted(unknown)}"
            )
        new_state = dict(obj.state)
        new_state.update(changes)
        checked = check_types(self.schema, self._objects, obj.class_name, new_state)
        self._check_writable()
        old_state = obj.state
        undo[obj.oid] = (obj, old_state)
        obj.state = checked
        self._indexes.on_update(obj, old_state, checked)
        delta.record_update(obj, set(changes))
        return obj

    def delete(self, target: DBObject | str) -> None:
        """Remove an object, re-checking the constraints the removal can
        invalidate (database constraints, aggregate/key class constraints
        over the shrunk extent and object constraints that referenced the
        removed object)."""
        self._write(self._delete_locked, target)

    def _delete_locked(
        self, undo: dict, delta: MutationDelta, target: DBObject | str
    ) -> None:
        obj = self.get(target.oid if isinstance(target, DBObject) else target)
        self._check_writable()
        undo[obj.oid] = (obj, obj.state)
        self._detach(obj)
        delta.record_delete(obj)

    def _write(self, stage, *args: Any) -> Any:
        """Run one mutation: ``stage`` applies it under the writer lock,
        recording its pre-image in a one-entry undo log and its effect in a
        delta of its own.  Outside a transaction the op then commits through
        :meth:`_commit`, exactly like an outermost transaction; inside one
        its undo entry and delta join the transaction's, whose outermost
        commit checks and logs them."""
        undo: dict[str, tuple[DBObject, dict] | None] = {}
        delta = MutationDelta()
        with self._lock:
            result = stage(undo, delta, *args)
            if self._deferred:
                self._join_transaction(undo, delta)
                return result
            owed = self._commit(
                ((self, undo),), delta, self._check_op, self._log_commit
            )
        redeem(owed)
        return result

    def _join_transaction(self, undo: dict, delta: MutationDelta) -> None:
        """Hand a staged op to the enclosing transaction: fold its
        pre-image into the transaction's undo log (first touch wins) and
        its delta into the transaction's dirty set."""
        for oid, entry in undo.items():
            self._undo.setdefault(oid, entry)
        if self._delta is not None:
            self._delta.merge(delta)

    def _attach(self, obj: DBObject) -> None:
        """Register ``obj`` in the object table, its direct extent and the
        indexes (setdefault: the class may postdate the store)."""
        self._objects[obj.oid] = obj
        self._direct_extents.setdefault(obj.class_name, set()).add(obj.oid)
        self._indexes.on_insert(obj)

    def _detach(self, obj: DBObject) -> None:
        """The inverse of :meth:`_attach`."""
        del self._objects[obj.oid]
        self._direct_extents[obj.class_name].discard(obj.oid)
        self._indexes.on_delete(obj)

    # -- enforcement --------------------------------------------------------------------

    def _restore_object_order(self) -> None:
        """Move the misplaced entries of ``_objects`` — removed objects a
        rollback re-registered at the end of the dict — back to their
        insertion-order positions.  Engine oids embed the insertion counter
        (``Class#N``), so the order is recoverable without a snapshot.  The
        key is the same ``(counter, oid)`` pair the extent indexes sort by,
        so ``objects()`` and every extent agree on one deterministic order
        even when a counter cannot be parsed.  The rest of the table is
        already in that order (later inserts carry higher counters), so
        each entry is placed by bisection: O(k log n) keys and one dict
        rebuild, not a re-sort of all n entries."""
        misplaced = set(self._misplaced)
        self._misplaced = []
        objects = self._objects
        ordered = [item for item in objects.items() if item[0] not in misplaced]
        for oid in misplaced:
            if oid in objects:
                bisect.insort(ordered, (oid, objects[oid]), key=_item_sort_key)
        self._objects = dict(ordered)

    @staticmethod
    def _log_commit(participants) -> list:
        """The log stage of a commit with at most one durable participant
        (an auto-commit op, a routed op, a plain transaction, or a
        cross-shard one that wrote a single durable core): each
        participant's redo set as one flushed ``commit`` record.  A
        participant with an empty undo log writes nothing."""
        return [
            store._wal.commit_transaction(store._redo(undo), store._oid_seq)
            if undo
            else None
            for store, undo in participants
        ]

    def _redo(self, undo: dict) -> list[bytes]:
        """The rendered redo entries of a committed touched set, read off
        its undo log and the live store: a ``put`` of the snapshot row of
        every surviving touched object (rendered here, at its commit, and
        kept on the object), a ``delete`` for one that existed before, and
        nothing for an object inserted and deleted inside the commit."""
        ops = []
        for oid, entry in undo.items():
            obj = self._objects.get(oid)
            if obj is None:
                if entry is not None:
                    ops.append(self._wal.log_delete(oid))
            elif entry is None:
                ops.append(self._wal.log_insert(obj))
            else:
                ops.append(self._wal.log_update(obj))
        return ops

    @staticmethod
    def _commit(participants, delta, check, log) -> list:
        """The one commit tail.  ``participants`` is a sequence of
        ``(store, undo)`` pairs, each store's writer lock held: the store
        itself for its auto-commit ops and outermost transaction exits; the
        touched core for the shard router's routed ops, and every core it
        wrote for a cross-shard transaction.  The stages:

        1. **check** — ``check(delta)`` raises on a violation (computing
           traces and cores first, while the violating state still
           exists); every participant is undone and the failure
           propagates, with nothing logged;
        2. **log** — ``log(durable)`` writes each durable participant's
           redo set and flushes, returning one group-commit ticket each
           (two-phase commit when the router passes several); a failure
           means the commit's durable fate is unknown, so every participant
           is undone — memory never runs ahead of the durable prefix;
        3. **publish** — each touched set joins its store's snapshot
           history, so snapshots only ever show commits the durable prefix
           can replay;
        4. **checkpoint policy** — per durable participant, see
           :meth:`_wal_checkpoint_policy`.  It runs only once the log stage
           returned, so after every two-phase ``resolve`` is durable: a
           checkpoint may fold the coordinator's ``decide`` away.

        Returns the ``(store, ticket)`` pairs to :func:`redeem` once the
        writer locks are released.
        """
        try:
            check(delta)
        except BaseException:
            for store, undo in participants:
                store._apply_undo(undo)
            raise
        durable = [pair for pair in participants if pair[0]._wal is not None]
        tickets: "list | tuple" = ()
        if durable:
            try:
                tickets = log(durable)
            except BaseException:
                for store, undo in participants:
                    store._apply_undo(undo)
                raise
        for store, undo in participants:
            store._publish(undo)
        # At most one ticket is ever owed (two-phase commit redeems its own
        # before returning), so a failing policy can only abandon that one.
        owed = []
        for (store, _undo), ticket in zip(durable, tickets):
            owed.append((store, store._wal_checkpoint_policy(ticket)))
        return owed

    def _apply_undo(self, undo: dict) -> None:
        """Restore every touched object to its logged pre-image.

        Pre-images keep object identity: an updated object gets its old
        state dict back in place, and a deleted object is re-registered as
        the *same* :class:`DBObject` instance, so references held outside
        the store stay valid across a rollback.  A re-registered object
        lands at the end of the object table; :meth:`_table` moves it back
        to its insertion-order place when a reader next needs the order.

        Maintained indexes roll back alongside, via the *inverse* mutation
        hook per touched object — an insert is undone as a delete, a delete
        as an insert, an update as the reverse state transition — keeping
        rollback O(touched), index maintenance included.  Reference-count
        indexes participate through the same hooks: a resurrected object
        re-joins the referenced side (its referrers stop dangling) and
        re-counts its own reference slots, in whichever order the undo log
        replays the touched objects.
        """
        for oid, entry in undo.items():
            if entry is None:
                if oid in self._objects:
                    self._detach(self._objects[oid])
            else:
                obj, state = entry
                if oid in self._objects:
                    if obj.state is not state:
                        self._indexes.on_update(obj, obj.state, state)
                    obj.state = state
                else:
                    obj.state = state
                    self._attach(obj)
                    self._misplaced.append(oid)

    def audit(self) -> list:
        """Validate the entire store; returns structured
        :class:`~repro.engine.enforcement.Violation` objects.

        A clean full pass re-baselines: the store is known consistent under
        the schema value it ran under, so incremental enforcement may
        resume."""
        from repro.engine.enforcement import all_violations

        schema = self.schema
        found = all_violations(self)
        if not found:
            self._validated_schema = schema
        return found

    def explain_violations(self, violations=None) -> list:
        """Subset-minimal conflict cores for the store's standing
        violations (defaults to a fresh :meth:`audit`); see
        :mod:`repro.engine.explain`.  Each core is a set of objects that
        still conflicts with its constraint in isolation, while removing
        any single member resolves the conflict.

        Holds the writer lock across the audit and every shrink probe, so
        each core describes one state of the store."""
        from repro.engine.explain import explain_violations

        with self._lock:
            return explain_violations(self, violations)

    # -- durability ---------------------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log; ``None`` on in-memory stores."""
        return self._wal

    @property
    def durable(self) -> bool:
        """Whether this store writes through to a write-ahead log.

        Part of the :class:`~repro.engine.api.StoreAPI` surface: callers
        probe it before :meth:`checkpoint`, which refuses on in-memory
        stores."""
        return self._wal is not None

    @classmethod
    def open(
        cls,
        path: str | Path,
        schema: DatabaseSchema | None = None,
        *,
        enforce: bool = True,
        sync: bool = False,
        checkpoint_every: int = 10_000,
        verify: bool = True,
        faults: "FaultInjector | None" = None,
        analyze: bool = False,
        oid_namespace: int | None = None,
    ) -> "ObjectStore":
        """Open the durable store at ``path``, recovering existing state.

        When the directory holds a snapshot, recovery replays it plus every
        intact commit record of the write-ahead log (a torn tail is
        discarded — see :mod:`repro.engine.wal`), rebuilds the maintained
        indexes from the recovered contents, truncates any torn log tail, and resumes
        appending.  The schema comes from the snapshot; passing ``schema``
        overrides it (the caller owns compatibility).

        When the directory is empty or missing, ``schema`` is required and
        a fresh durable store is created.  A sharded store root is refused
        (open it with :meth:`ShardedStore.open`).

        With ``verify`` (the default) recovery ends with a full constraint
        audit — raising :class:`ConstraintViolation` (with structured
        ``violations``) if the recovered state is inconsistent, and
        re-baselining incremental enforcement when clean.  Disable it to
        inspect stores whose history ran with ``enforce=False``.

        ``faults`` threads a :class:`~repro.engine.faults.FaultInjector`
        through every file operation of the attached log (testing only;
        ``None`` is a true no-op).

        ``analyze`` opts into schema static analysis at registration and
        redundancy pruning on the incremental hot path (see
        :class:`ObjectStore`).

        ``oid_namespace`` restores a shard core's oid prefix (see
        ``__init__``).  In-doubt two-phase prepares found in the log stay
        unapplied and unlogged — only a router that has seen *every*
        shard's log may decide them.
        """
        return cls._recover(
            WriteAheadLog(
                path, sync=sync, checkpoint_every=checkpoint_every, faults=faults
            ),
            load_image(path),
            schema,
            verify=verify,
            enforce=enforce,
            analyze=analyze,
            oid_namespace=oid_namespace,
        )

    @classmethod
    def _recover(
        cls,
        wal: WriteAheadLog,
        image: "RecoveredImage | None",
        schema: DatabaseSchema | None,
        *,
        verify: bool,
        resolutions: "Mapping[str, bool] | None" = None,
        **options: Any,
    ) -> "ObjectStore":
        """The store over ``wal`` holding ``image``, the one recovery read
        :func:`~repro.engine.wal.load_image` made of its directory (a fresh
        store when ``image`` is ``None``), built with the constructor
        ``options``.

        ``resolutions`` is the commit router's hook for two-phase commits:
        a mapping of global transaction ids to their decided outcomes.
        Prepared-but-unresolved redo sets in the image are applied
        (``True``) or discarded (``False``, also the presumed-abort default
        for gids missing from the mapping) and a ``resolve`` record is
        logged for each."""
        if image is None:
            if schema is None:
                raise EngineError(
                    f"no durable store at {str(wal.path)!r}; pass a schema to "
                    "create one"
                )
            return cls(schema, wal=wal, **options)
        if schema is None:
            # Callers overriding ``schema`` own the whole schema, replayed
            # changes included.
            schema = schema_from_image(image)
        resolved: list[tuple[str, bool]] = []
        if resolutions is not None:
            resolved = apply_resolutions(image, resolutions)
        store = cls(schema, wal=False, **options)
        store._load_image(image)
        wal.resume(image)
        for gid, ok in resolved:
            wal.log_resolve(gid, ok)
        if resolved:
            ticket = wal.commit_flush()
            if ticket is not None:
                wal.wait_durable(ticket)
        # Keep the image as diagnostics (replay counts, findings) but drop
        # its table, which the store now owns: the diagnostics must not
        # alias the live objects.
        image.objects = {}
        store._recovery_info = image
        store._wal = wal
        if verify:
            store._raise_violations("recovery", store.audit())
        return store

    @collector_paused()
    def _load_image(self, image: RecoveredImage) -> None:
        """Adopt recovered contents wholesale, in oid order, then rebuild
        the maintained indexes from them (the same O(store) rebuild a
        schema change runs — recovery is a rebuild trigger, not a replay of
        per-mutation hooks).  An image arrives in that order — snapshot
        rows in table order, then the log's inserts in commit order — so
        one pass over the sort keys, each oid's counter parsed once,
        confirms it, and the image's table becomes the store's; only an
        image out of order is sorted first.  Like the parse in
        :func:`~repro.engine.wal.load_image`, the build runs with the
        collector paused: it creates no garbage cycles, so the collector
        would only walk the growing store again and again."""
        objects = image.objects
        last = None
        for key in map(oid_sort_key, objects):
            if last is not None and key < last:
                objects = dict(sorted(objects.items(), key=_item_sort_key))
                last = oid_sort_key(next(reversed(objects)))
                break
            last = key
        self._objects = objects
        direct = self._direct_extents
        for obj in objects.values():
            members = direct.get(obj.class_name)
            if members is None:
                members = direct[obj.class_name] = set()
            members.add(obj.oid)
        top = last[0] if last is not None else 0
        self._oid_seq = max(self._oid_seq, image.counter, top)
        self._indexes.rebuild()

    def checkpoint(self) -> None:
        """Write a snapshot of the live store and compact the log.

        Amortizes recovery: replay restarts from the snapshot instead of
        the history's beginning.  Only callable outside transactions — a
        snapshot must never capture uncommitted state."""
        with self._lock:
            if self._wal is None:
                raise EngineError("store has no write-ahead log attached")
            if self._deferred:
                raise EngineError("cannot checkpoint inside a transaction")
            from repro.tm.printer import schema_to_source

            self._wal.write_snapshot(
                schema_to_source(self.schema),
                self.schema.name,
                self.objects(),
                self._oid_seq,
            )

    def close(self) -> None:
        """Flush and release the write-ahead log (no-op when in-memory)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()

    def _check_writable(self) -> None:
        """Refuse mutations on a poisoned (fail-stopped) durable store.

        Raises :class:`~repro.errors.StorePoisonedError` before any
        in-memory state is touched.  Reads — snapshots included — keep
        working; reopening the directory recovers the durable prefix."""
        if self._wal is not None:
            self._wal.check_poisoned()

    def _wal_checkpoint_policy(self, ticket: "int | None") -> "int | None":
        """The last stage of every commit point, *after* publication: the
        commit is flushed and accepted, so a checkpoint failure only
        abandons the unredeemed ticket (keeping group-commit accounting
        balanced) and propagates — it never rolls the commit back.

        Returns the ticket to redeem once the writer lock is released
        (``None`` when no fsync is owed)."""
        try:
            if self._wal.should_checkpoint():
                self.checkpoint()
        except BaseException:
            self._wal.abandon_ticket(ticket)
            raise
        return ticket

    def _await_durability(self, ticket: "int | None") -> None:
        """Redeem a group-commit ticket.  Called with the writer lock
        released, so concurrent committers batch into one fsync."""
        if ticket is not None and self._wal is not None:
            self._wal.wait_durable(ticket)

    def change_schema(self, schema: DatabaseSchema) -> None:
        """Replace the store's schema with ``schema`` — the one schema write
        path.  Typically ``schema`` is ``store.schema.copy()`` changed.

        Under the writer lock, refused inside a transaction (rollback does
        not undo schema changes), on a poisoned log and when a stored
        object does not fit ``schema`` (:func:`check_schema_fit`): a durable store
        appends and flushes one ``schema`` record first, and only then
        adopts the value — freezing it, dropping the attribute-type cache
        and rebuilding the maintained indexes — and runs the checkpoint
        policy.  A failed append leaves the store on its old schema.  The
        store does not re-audit eagerly: the next commit finds its
        validated baseline belongs to another schema value and
        revalidates fully."""
        with self._lock:
            check_schema_fit(self.schema, schema, self._table())
            ticket = self._change_schema_locked(schema)
        self._await_durability(ticket)

    def set_constant(self, name: str, value: Any) -> None:
        """Rebind a schema constant: :meth:`change_schema` with a copy of
        the schema that binds ``name`` to ``value``."""
        with self._lock:
            schema = self.schema.copy()
            schema.set_constant(name, value)
            ticket = self._change_schema_locked(schema)
        self._await_durability(ticket)

    def _change_schema_locked(self, schema: DatabaseSchema) -> "int | None":
        """:meth:`change_schema` under the writer lock; returns the ticket
        to redeem once the lock is released."""
        if self._deferred:
            raise EngineError("cannot change the schema inside a transaction")
        self._check_writable()
        ticket = None
        if self._wal is not None:
            from repro.tm.printer import schema_to_source

            self._wal.log_schema(schema_to_source(schema))
            ticket = self._wal.commit_flush()
        self._adopt(schema)
        if self._wal is not None:
            ticket = self._wal_checkpoint_policy(ticket)
        return ticket

    def _adopt(self, schema: DatabaseSchema) -> None:
        """Make ``schema`` this store's schema value (writer lock held)."""
        self.schema = schema.freeze()
        self._concurrency.adopt(schema)
        self._attr_types = {}
        self._indexes.rebuild()

    @property
    def recovery_info(self) -> "RecoveredImage | None":
        """Diagnostics of the recovery this store was opened from
        (``None`` for fresh stores) — replay counts, schema drift, and the
        ``findings`` recovery worked around.  Its ``objects`` are emptied
        once adopted: only the diagnostics are retained."""
        return self._recovery_info

    # -- concurrency --------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """An immutable point-in-time view of the committed store.

        Safe to take and read from any thread while writers keep
        committing; acquisition is O(1) and lock-free once the snapshot
        machinery is active (the first call activates it under the writer
        lock — O(store), once).  A snapshot never observes uncommitted
        state: taken mid-transaction — even from the writing thread — it
        sees the committed pre-state.  See :mod:`repro.engine.concurrency`.
        """
        control = self._concurrency
        if not control.active:
            with self._lock:
                control.activate(self._committed_view())
        return control.snapshot()

    def _committed_view(self) -> list[tuple[str, str, Mapping[str, Any]]]:
        """The committed contents (called under the writer lock): the live
        objects, patched back to their pre-images through every open
        transaction level, innermost first so outermost pre-images win."""
        view: dict[str, tuple[str, Mapping[str, Any]]] = {
            oid: (obj.class_name, obj.state)
            for oid, obj in self._table().items()
        }
        for undo in reversed(self._undo_stack):
            for oid, entry in undo.items():
                if entry is None:
                    view.pop(oid, None)
                else:
                    obj, state = entry
                    view[oid] = (obj.class_name, state)
        return [(oid, cls, state) for oid, (cls, state) in view.items()]

    def _publish(self, undo: dict) -> None:
        """Thread a committed touched set into the snapshot history: the
        post-state of every object in ``undo`` (tombstones for deletions),
        read off the live store under the writer lock.  A no-op until a
        first snapshot activates the machinery."""
        if not self._concurrency.active or not undo:
            return
        changes = []
        for oid, entry in undo.items():
            obj = self._objects.get(oid)
            if obj is not None:
                changes.append((oid, obj.class_name, obj.state))
            elif entry is not None:
                changes.append((oid, entry[0].class_name, None))
            # entry None + object gone: inserted and deleted inside one
            # transaction — no committed version ever existed.
        self._concurrency.publish(changes)

    # -- transactions -------------------------------------------------------------------

    def transaction(self, validate: bool = True):
        """A snapshot transaction with deferred constraint checking.

        Inside the ``with`` block constraints are not enforced; at exit the
        whole store is validated and rolled back (raising
        :class:`ConstraintViolation`) if any constraint is broken.

        ``validate=False`` skips the commit-time validation entirely — the
        caller owns consistency.
        """
        from repro.engine.transactions import Transaction

        return Transaction(self, validate=validate)


def _item_sort_key(item: tuple[str, Any]) -> tuple[int, int, str]:
    """:func:`oid_sort_key` of an item keyed by oid."""
    return oid_sort_key(item[0])


def schema_from_image(image: RecoveredImage) -> DatabaseSchema:
    """The schema a recovered image describes: the source of its last
    ``schema`` record, or of its snapshot when the log holds none."""
    from repro.tm.parser import parse_database

    return parse_database(image.schema_source)


def redeem(owed) -> None:
    """Redeem the ``(store, ticket)`` pairs a commit owes.  Called with
    every writer lock released, so concurrent committers batch into one
    fsync."""
    for store, ticket in owed:
        store._await_durability(ticket)


def check_registration(schema: DatabaseSchema) -> None:
    """Refuse a schema with error-level static-analysis findings
    (:mod:`repro.constraints.analysis`): the registration check of an
    ``analyze=True`` store."""
    from repro.constraints.analysis import registration_errors

    problems = registration_errors(schema)
    if problems:
        raise SchemaError(
            "static analysis rejected the schema: "
            + "; ".join(d.render() for d in problems)
        )


def _wal_from_environment() -> WriteAheadLog | None:
    """A throwaway write-ahead log when ``REPRO_WAL`` is set.

    Lets an unmodified test suite exercise the durability write-through on
    every store it builds (CI runs the tier-1 suite once this way).  The
    temp directory lives exactly as long as the log object.
    """
    if not os.environ.get("REPRO_WAL"):
        return None
    directory = tempfile.mkdtemp(prefix="repro-wal-")
    wal = WriteAheadLog(directory, checkpoint_every=0)
    weakref.finalize(wal, shutil.rmtree, directory, True)
    return wal


class _LazyExtent:
    """A deep extent resolved only when iterated — the scan fallback for
    aggregate/key checks the index probe could not answer."""

    __slots__ = ("_store", "_class_name")

    def __init__(self, store: _StoreSurface, class_name: str):
        self._store = store
        self._class_name = class_name

    def __iter__(self):
        return iter(self._store.extent(self._class_name))


class _ExtentView(Mapping):
    """Lazy class-name → extent mapping for evaluation contexts."""

    def __init__(self, store: _StoreSurface):
        self._store = store

    def __getitem__(self, class_name: str) -> list[DBObject]:
        return self._store.extent(class_name)

    def __iter__(self):
        return iter(self._store.schema.classes)

    def __len__(self) -> int:
        return len(self._store.schema.classes)

    def __contains__(self, class_name: object) -> bool:
        return class_name in self._store.schema.classes
