"""Concurrent serving: immutable snapshot reads beside a single writer.

The paper's interoperation workbench assumes *many* agents consulting and
updating shared component stores.  This module makes an
:class:`~repro.engine.store.ObjectStore` safe and fast under that load with
two cooperating pieces:

* a **coarse writer lock** (owned by the store): every mutating operation —
  and every transaction, for its whole extent — runs under one reentrant
  lock, so there is exactly one writer at a time and the existing
  enforcement/index/undo machinery needs no internal locking;

* **multi-version snapshot reads** (this module): readers call
  ``store.snapshot()`` and get an immutable, point-in-time view of the
  *committed* store.  Snapshot acquisition is O(1) and never takes the
  writer lock, so readers are not serialized behind writers — the read path
  is lock-free (a microscopic registry lock orders snapshot bookkeeping
  between readers; it is never held across I/O or store work).

Versioned history
-----------------

:class:`ConcurrencyControl` keeps, per oid, a chain of
:class:`_ObjectVersion` records stamped with half-open validity intervals
``[born, died)`` over a monotonically increasing *committed version*
counter.  The store publishes each committed change set (auto-committed
single mutations, or a transaction's touched set at its outermost commit)
under the writer lock:

1. the previous head version (if any) gets ``died = v+1``,
2. a new head with ``born = v+1`` is appended (tombstones append nothing),
3. the committed version counter is bumped to ``v+1`` **last**.

A reader that pinned version ``v`` only accepts records with
``born <= v < died``, so partially published change sets are invisible by
construction — no reader lock, no retry loop.  State dicts are shared, not
copied: the store never mutates a state dict in place (updates and
rollbacks swap whole dicts), so a published reference is immutable.

Because publication happens at *commit points only*, a snapshot can never
observe uncommitted inserts, in-flight transaction states, or the
re-registration shuffle of a rollback resurrection: none of those are ever
published.  Extents materialized from a snapshot are sorted by the same
``(counter, oid)`` key the live extent indexes use, so snapshot and live
reads agree on one deterministic order.

Costs: publication is O(touched) per commit; snapshot acquisition is O(1);
``Snapshot.get`` is O(chain length) (chains stay short — see GC);
``Snapshot.extent`` is O(class members) plus the sort.  Version chains and
class-member lists grow with write traffic and are pruned by a small
garbage collector once no live snapshot can see the dead versions
(amortized over commits, proportional to what was touched since the last
sweep).

Activation is lazy: until the first ``snapshot()`` call the layer records
nothing and publishing is a no-op, so purely single-threaded stores pay
almost nothing.  The first call freezes the committed store under the
writer lock (O(store), once); from then on maintenance is O(touched).

What is and isn't linearizable is documented in
``docs/architecture.md`` — in short: single mutations, transaction
commits and schema changes are linearizable (they serialize on the writer
lock), and snapshots are consistent prefixes of that order.  A snapshot
pins the schema value it was taken under: the store's schema is a frozen
value that ``change_schema`` replaces whole, so a snapshot taken before a
rebind or an added attribute keeps reading under the old schema.

Fail-stop interaction: when a durable store's write-ahead log poisons
itself (a commit-point IO failure — see :mod:`repro.engine.faults` and
:meth:`repro.engine.wal.WriteAheadLog.poison`), mutations start raising
:class:`~repro.errors.StorePoisonedError` *before* touching the store, so
nothing new is ever published — but this layer keeps serving: snapshots
taken before or after the poisoning remain valid, lock-free reads of the
last committed (and durably replayable) state.  Read-only degradation is
a property of the write path; the read path never notices.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, TYPE_CHECKING

from repro.engine.indexes import oid_sort_key
from repro.errors import (
    EngineError,
    SchemaError,
    UnknownClassError,
    UnknownObjectError,
)
from repro.types.primitives import ClassRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.tm.schema import DatabaseSchema

#: Publish calls between garbage-collection sweeps.
_GC_EVERY = 64
#: Compact a class-member list only once this fraction of it is dead.
_MEMBER_DEAD_FRACTION = 4


class _ObjectVersion:
    """One committed version of one object: valid for ``born <= v < died``."""

    __slots__ = ("born", "died", "class_name", "state")

    def __init__(self, born: int, class_name: str, state: Mapping[str, Any]):
        self.born = born
        #: ``None`` while this is the live head.
        self.died: int | None = None
        self.class_name = class_name
        self.state = state

    def visible_at(self, version: int) -> bool:
        return self.born <= version and (self.died is None or self.died > version)


class SnapshotObject:
    """An immutable object as seen by one :class:`Snapshot`.

    Carries the oid, the most specific class, and the state mapping *as of
    the snapshot version*.  The state dict is shared with the store's
    history (never mutated in place) — treat it as read-only.
    """

    __slots__ = ("oid", "class_name", "state")

    def __init__(self, oid: str, class_name: str, state: Mapping[str, Any]):
        self.oid = oid
        self.class_name = class_name
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotObject({self.oid!r}, {self.class_name!r})"


def _release_version(control: "ConcurrencyControl", version: int) -> None:
    """Finalizer: un-pin ``version`` when a snapshot is dropped."""
    with control._registry_lock:
        count = control._pinned.get(version, 0) - 1
        if count <= 0:
            control._pinned.pop(version, None)
        else:
            control._pinned[version] = count


class Snapshot:
    """An immutable point-in-time view of the committed store.

    Obtained from :meth:`ObjectStore.snapshot`; cheap to take (O(1)) and
    safe to read from any thread while writers keep committing.  Holding a
    snapshot pins its version against garbage collection — drop the
    reference (or call :meth:`close`) when done; snapshots also work as
    context managers.
    """

    def __init__(
        self, control: "ConcurrencyControl", version: int, schema: "DatabaseSchema"
    ):
        self._control = control
        self.version = version
        #: The schema value the snapshot was taken under.
        self.schema = schema
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_version, control, version
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the version pin eagerly (idempotent)."""
        if not self._closed:
            self._closed = True
            self._finalizer()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reads -------------------------------------------------------------

    def _lookup(self, oid: str) -> _ObjectVersion | None:
        chain = self._control._history.get(oid)
        if chain is None:
            return None
        # Newest last; scan backwards — the hit is almost always the head.
        for index in range(len(chain) - 1, -1, -1):
            record = chain[index]
            if record.visible_at(self.version):
                return record
        return None

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, str) and self._lookup(oid) is not None

    def get(self, oid: str) -> SnapshotObject:
        record = self._lookup(oid)
        if record is None:
            raise UnknownObjectError(
                f"no object with identifier {oid!r} at snapshot version "
                f"{self.version}"
            )
        return SnapshotObject(oid, record.class_name, record.state)

    def get_attr(self, obj: SnapshotObject, name: str) -> Any:
        """Attribute read with reference dereferencing *inside the
        snapshot*: a reference-typed attribute resolves to the referenced
        object as of this snapshot's version.

        Mirrors ``ObjectStore.get_attr``: only attributes *declared* as
        references dereference — a string attribute that happens to hold
        oid-shaped text stays a string."""
        if name not in obj.state:
            raise EngineError(
                f"{obj.class_name} object {obj.oid} has no attribute {name!r}"
            )
        value = obj.state[name]
        if isinstance(value, str):
            try:
                tm_type = self.schema.attribute_type(
                    obj.class_name, name
                )
            except SchemaError:
                tm_type = None
            if isinstance(tm_type, ClassRef):
                record = self._lookup(value)
                if record is not None:
                    return SnapshotObject(value, record.class_name, record.state)
        return value

    def extent(self, class_name: str, deep: bool = True) -> list[SnapshotObject]:
        """The class extent at this version, in ``(counter, oid)`` order.

        ``deep`` resolves the subclass closure through the schema the
        snapshot was taken under.
        """
        schema = self.schema
        if not schema.has_class(class_name):
            raise UnknownClassError(
                f"no class {class_name!r} in database {schema.name}"
            )
        names: Iterable[str] = (
            schema.subclass_closure(class_name) if deep else (class_name,)
        )
        members = self._control._class_members
        results: list[tuple[tuple[int, str], SnapshotObject]] = []
        for name in names:
            oids = members.get(name)
            if not oids:
                continue
            # list() of a list is a single C-level copy: atomic under the
            # GIL even while the writer appends to the original.
            for oid in list(oids):
                record = self._lookup(oid)
                if record is not None and record.class_name == name:
                    results.append(
                        (
                            oid_sort_key(oid),
                            SnapshotObject(oid, record.class_name, record.state),
                        )
                    )
        results.sort(key=lambda pair: pair[0])
        return [obj for _, obj in results]

    def objects(self) -> Iterator[SnapshotObject]:
        """Every object visible at this version (arbitrary order)."""
        for oid in list(self._control._history):
            record = self._lookup(oid)
            if record is not None:
                yield SnapshotObject(oid, record.class_name, record.state)

    def __len__(self) -> int:
        count = 0
        for oid in list(self._control._history):
            if self._lookup(oid) is not None:
                count += 1
        return count


class ConcurrencyControl:
    """The store-side half: committed-version history and snapshot factory.

    Owned by an :class:`~repro.engine.store.ObjectStore`; the store calls
    :meth:`publish` at every commit point *under the writer lock* and
    :meth:`snapshot` from any thread.  All writer-side structures are only
    mutated under the store's writer lock; readers rely on the publication
    ordering documented in the module docstring instead of locks.
    """

    def __init__(self, schema: "DatabaseSchema"):
        #: The store's schema value, swapped by :meth:`adopt`.
        self.schema = schema
        self.active = False
        #: Committed version counter; bumped *after* a change set is fully
        #: threaded into the history.
        self._version = 0
        #: oid → version chain, oldest first.
        self._history: dict[str, list[_ObjectVersion]] = {}
        #: most-specific class → oids that ever joined it (append-only
        #: between compactions, so readers can copy it atomically).
        self._class_members: dict[str, list[str]] = {}
        self._member_index: dict[str, set[str]] = {}
        #: Dead oids per class since the last member compaction.
        self._member_dead: dict[str, int] = {}
        #: Version → live snapshot count (guarded by ``_registry_lock``).
        self._pinned: dict[int, int] = {}
        self._registry_lock = threading.Lock()
        self._publishes_since_gc = 0
        #: Oids touched since the last GC sweep — bounds the sweep to
        #: O(recently touched), not O(store).
        self._dirty_since_gc: set[str] = set()

    # -- activation --------------------------------------------------------

    def activate(self, committed: Iterable[tuple[str, str, Mapping[str, Any]]]) -> None:
        """Freeze the committed store as version 0 (idempotent).

        Called under the writer lock with the committed view — the live
        contents patched back to their pre-images when a transaction is in
        flight on the calling thread.
        """
        if self.active:
            return
        for oid, class_name, state in committed:
            self._history[oid] = [_ObjectVersion(0, class_name, state)]
            self._join(class_name, oid)
        self.active = True

    def _join(self, class_name: str, oid: str) -> None:
        index = self._member_index.setdefault(class_name, set())
        if oid not in index:
            index.add(oid)
            self._class_members.setdefault(class_name, []).append(oid)

    # -- the writer side ---------------------------------------------------

    def publish(
        self, changes: Iterable[tuple[str, str, Mapping[str, Any] | None]]
    ) -> None:
        """Thread one committed change set into the history.

        ``changes`` is ``(oid, most specific class, post-state)`` per
        touched object, post-state ``None`` for a delete.  Called under the
        writer lock, at commit points only — never for uncommitted state.
        No-op until :meth:`activate`.
        """
        if not self.active:
            return
        version = self._version + 1
        published = False
        for oid, class_name, state in changes:
            chain = self._history.get(oid)
            head = chain[-1] if chain else None
            if head is not None and head.died is None:
                if state is not None and head.state is state:
                    continue  # no-op touch (e.g. rollback-restored object)
                head.died = version
                if state is None:
                    self._member_dead[head.class_name] = (
                        self._member_dead.get(head.class_name, 0) + 1
                    )
            elif state is None:
                continue  # deleting an object no snapshot ever saw
            published = True
            self._dirty_since_gc.add(oid)
            if state is not None:
                record = _ObjectVersion(version, class_name, state)
                if chain is None:
                    self._history[oid] = [record]
                else:
                    chain.append(record)
                self._join(class_name, oid)
        if published:
            # The bump is last: readers pin versions <= self._version, so
            # the half-threaded change set above was invisible throughout.
            self._version = version
        self._publishes_since_gc += 1
        if self._publishes_since_gc >= _GC_EVERY:
            self.collect()

    # -- the reader side ---------------------------------------------------

    def adopt(self, schema: "DatabaseSchema") -> None:
        """Let later snapshots read under ``schema``.  Called under the
        writer lock; the registry lock makes a snapshot's version and
        schema one pair that held together."""
        with self._registry_lock:
            self.schema = schema

    def snapshot(self) -> Snapshot:
        """Pin and return the current committed version and schema — O(1),
        no writer lock (see :func:`_release_version` for the un-pin)."""
        with self._registry_lock:
            version = self._version
            schema = self.schema
            self._pinned[version] = self._pinned.get(version, 0) + 1
        return Snapshot(self, version, schema)

    # -- garbage collection ------------------------------------------------

    def _min_live_version(self) -> int:
        with self._registry_lock:
            if self._pinned:
                return min(min(self._pinned), self._version)
            return self._version

    def collect(self) -> None:
        """Prune versions no live snapshot can see.  Writer-side (called
        under the writer lock); readers tolerate it because pruned lists
        are *replaced*, never mutated: a reader that already grabbed the
        old list keeps reading intact (if stale-for-others) records.
        """
        self._publishes_since_gc = 0
        if not self._dirty_since_gc:
            return
        horizon = self._min_live_version()
        dirty, self._dirty_since_gc = self._dirty_since_gc, set()
        for oid in dirty:
            chain = self._history.get(oid)
            if chain is None:
                continue
            live = [
                record
                for record in chain
                if record.died is None or record.died > horizon
            ]
            if not live:
                del self._history[oid]
                continue
            if len(live) != len(chain):
                self._history[oid] = live
            if any(record.died is not None for record in live):
                # Dead versions survive only because a pinned snapshot can
                # still see them: re-queue the oid so a later sweep (once
                # the horizon has advanced) reclaims them even if it is
                # never touched again.
                self._dirty_since_gc.add(oid)
        self._compact_members()

    def _compact_members(self) -> None:
        for class_name, dead in list(self._member_dead.items()):
            members = self._class_members.get(class_name)
            if not members or dead * _MEMBER_DEAD_FRACTION < len(members):
                continue
            alive = [oid for oid in members if oid in self._history]
            self._class_members[class_name] = alive
            self._member_index[class_name] = set(alive)
            self._member_dead[class_name] = 0
