"""Maintained auxiliary state: deep extents, running aggregates, key indexes.

PR 1 made enforcement *delta-driven*: only the constraints whose read set
intersects a mutation's dirty set are re-checked.  But the residual check for
an aggregate or key class constraint still cost O(extent) — the evaluator
re-scanned the class to recompute a sum or probe uniqueness — and
``ObjectStore.extent()`` scanned every object in the store.  Following the
simplified-integrity-checking literature (incremental checking pays off only
when the residual check is constant-time in store size), this module keeps
four kinds of auxiliary state transactionally consistent with the store:

* **deep-extent indexes** — class name → ordered oid set, maintained over the
  subclass closure on every insert/delete, so ``extent()`` is O(|result|)
  instead of O(|store|);

* **maintained aggregates** (:class:`RunningAggregate`) — a running
  sum/count per ``(class, attribute)`` pair some constraint aggregates over,
  plus min/max via a value-count table and lazily-cleaned heaps.  Registered
  from the PR-1 constraint-dependency index
  (:meth:`~repro.engine.incremental.ConstraintDependencyIndex.aggregate_specs`),
  so an aggregate-reading constraint commit is O(1);

* **key hash indexes** (:class:`KeyIndex`) — key tuple → multiplicity with a
  running duplicate count, so a uniqueness constraint answers in O(1) per
  mutation instead of re-hashing the whole extent;

* **reference-count indexes** (:class:`ReferenceIndex`) — per constraint-read
  ``(referrer class, attribute) → referenced class`` pair, ``referenced oid →
  referrer count`` plus running live/dangling totals.  Registered from the
  dependency index's referential quantifier patterns
  (:meth:`~repro.engine.incremental.ConstraintDependencyIndex.reference_specs`),
  so ``forall p in Publisher exists i in Item | i.publisher = p`` — the
  paper's dominant database-constraint shape — answers in O(1) instead of
  O(|Publisher|·|Item|).

Consistency contract
--------------------

The store routes every mutation through :meth:`IndexManager.on_insert` /
:meth:`~IndexManager.on_update` / :meth:`~IndexManager.on_delete` *after*
applying it to ``_objects``, and rolls indexes back with the *inverse* hook
on its one rollback path — replaying an undo log
(:meth:`~repro.engine.store.ObjectStore._apply_undo`) for a failed single
operation and a rolled-back transaction alike — keeping rollback
O(touched).  Index deltas need no separate log: each hook is
deterministic in the (pre-image, post-image) pair the undo log already
carries.

Nothing here watches the schema.  A store's schema is a frozen value, and
the store's one schema write path
(:meth:`~repro.engine.store.ObjectStore.change_schema`) calls
:meth:`IndexManager.rebuild` once it adopts the next value, re-deriving
every index from the new schema and the live store contents.

Graceful degradation: an index that meets a value it cannot maintain (a
non-numeric aggregate operand, an unhashable key component, a NaN or
infinity, a non-string reference slot) marks itself invalid and answers
:data:`~repro.constraints.evaluate.INDEX_MISS` (aggregates, references) or
``None`` (keys); evaluation falls back to the extent scan with the exact
pre-index semantics.  Reference indexes additionally answer
:data:`~repro.constraints.evaluate.INDEX_MISS` while any counted reference
dangles — only the scan reproduces dangling-dereference errors.  The next
rebuild (a schema change, or recovery) retries.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Mapping
from typing import Any, TYPE_CHECKING

from repro.constraints.evaluate import (
    INDEX_MISS,
    VACUOUS,
    exact_aggregate,
    scaled_float,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.objects import DBObject
    from repro.engine.store import ObjectStore

#: Attribute lookup miss inside maintenance (states normally carry every
#: effective attribute; a miss invalidates the affected index).
_ABSENT = object()


def _oid_numbers(oid: str) -> tuple[int | None, int | None]:
    """The ``(counter, shard)`` pair of an engine oid: ``(N, None)`` for
    ``Class#N``, ``(N, S)`` for ``Class#S.N`` and ``(None, None)`` for an
    oid in neither shape.  The one parser of the oid tail."""
    tail = str(oid).rsplit("#", 1)[-1]
    namespace, dot, sequence = tail.rpartition(".")
    # Branch on the dot instead of trying ``int(tail)`` first: this runs
    # once per extent level on every insert, and an exception-per-call for
    # the sharded oid shape would tax exactly the hot path sharding is
    # meant to speed up.
    try:
        if dot:
            return int(sequence), int(namespace)
        return int(tail), None
    except ValueError:
        return None, None


def oid_counter(oid: str, default: int | None = None) -> int:
    """The insertion counter embedded in an engine oid.

    Plain stores mint ``Class#N``; shard cores mint ``Class#S.N`` where
    ``S`` is the shard namespace (:mod:`repro.engine.sharding`) and ``N``
    the shard-local counter.  Both shapes recover ``N`` — each shard's
    counter is monotonic on its own, which is what the ordered extent
    indexes and WAL counter recovery rely on.  An oid in neither shape has
    no recoverable counter; with a ``default`` the caller degrades (the
    index layer passes ``-1`` so malformed oids sort first and ordering
    falls back to "unsorted" instead of crashing the whole index layer),
    without one the ``ValueError`` propagates.
    """
    counter = _oid_numbers(oid)[0]
    if counter is not None:
        return counter
    if default is None:
        raise ValueError(f"oid {oid!r} carries no insertion counter")
    return default


def oid_shard(oid: str) -> int | None:
    """The shard namespace embedded in a sharded oid (``Class#S.N``), or
    ``None`` for plain ``Class#N`` oids and anything malformed.  The commit
    router uses this to route oid-addressed operations without a lookup."""
    return _oid_numbers(oid)[1]


def oid_sort_key(oid: str) -> tuple[int, int, str]:
    """Deterministic insertion-order sort key for engine oids.

    Primary key is the embedded insertion counter; shard-prefixed oids
    (``Class#S.N``) tie-break on the *numeric* shard namespace (so shard 10
    sorts after shard 2, which a plain string comparison would get wrong
    and a round-robin spread layout relies on: the k-th accepted insert of
    a spread class lands at ``(k // shards, k % shards)``, which is
    increasing in k exactly when the namespace ranks numerically); the oid
    string breaks the remaining ties so that malformed oids (counter
    ``-1``) still sort the same way everywhere — the maintained extent
    indexes, the store's object-table restoration and the scan-only
    :class:`~repro.engine.oracle.Oracle` must agree on one order, or
    extents would diverge after a rollback resurrection.
    """
    counter, shard = _oid_numbers(oid)
    return (
        -1 if counter is None else counter,
        -1 if shard is None else shard,
        oid,
    )


class OrderedOidSet:
    """An oid set that iterates in insertion order.

    Adds are O(1): oids normally arrive in increasing counter order (the
    store's counter is monotonic), so the backing dict preserves insertion
    order by itself.  A rollback can *resurrect* an oid out of order; that
    marks the set unsorted and the next read re-sorts lazily — O(k log k) on
    this extent only, not on the store.  An oid with no parseable counter
    (not shaped ``Class#N``) also just marks the set unsorted — degrading
    the ordering guarantee, never raising out of the index layer.
    """

    __slots__ = ("_oids", "_last", "_unsorted")

    def __init__(self) -> None:
        self._oids: dict[str, None] = {}
        self._last = 0
        self._unsorted = False

    def add(self, oid: str) -> None:
        counter = oid_counter(oid, default=-1)
        if counter < self._last or counter < 0:
            self._unsorted = True
        else:
            self._last = counter
        self._oids[oid] = None

    def discard(self, oid: str) -> None:
        self._oids.pop(oid, None)

    def fill(self, oids: list[str]) -> None:
        """Make ``oids`` — already in insertion order — the members, parsing
        one counter (the last one's) instead of one per oid."""
        self._oids = dict.fromkeys(oids)
        self._last = oid_counter(oids[-1], default=-1) if oids else 0
        self._unsorted = False

    def _ensure_sorted(self) -> None:
        if self._unsorted:
            self._oids = dict.fromkeys(sorted(self._oids, key=oid_sort_key))
            self._last = (
                oid_counter(next(reversed(self._oids)), default=-1)
                if self._oids
                else 0
            )
            self._unsorted = False

    def __len__(self) -> int:
        return len(self._oids)

    def __contains__(self, oid: object) -> bool:
        return oid in self._oids

    def __iter__(self):
        self._ensure_sorted()
        return iter(self._oids)


class RunningAggregate:
    """Sum/count — and, when requested, min/max — of one attribute over the
    deep extent of one class, maintained in O(1) per mutation.

    The sum is kept exact, as the partials of
    :func:`~repro.constraints.evaluate.exact_aggregate`: ints in ``total``,
    finite floats scaled by ``2**1074`` in ``scaled``.  Adding and removing
    are integer operations, so no history of mutations can drift the value
    away from the scan's.

    Min/max use a value→multiplicity table plus two heaps with *lazy
    deletion*: removals only decrement the table, and queries pop heap heads
    until a live value surfaces.  Heaps are compacted (rebuilt from the live
    value table) when churn makes them four times larger than the live set.
    """

    __slots__ = (
        "class_name", "over", "funcs", "count", "total", "scaled", "floats",
        "valid", "_counts", "_min_heap", "_max_heap",
    )

    def __init__(self, class_name: str, over: str, funcs: Iterable[str]):
        self.class_name = class_name
        self.over = over
        self.funcs = frozenset(funcs)
        self.count = 0
        self.total = 0
        self.scaled = 0
        #: How many of the live values are floats.
        self.floats = 0
        self.valid = True
        #: value → live multiplicity; only tracked when min/max is needed.
        self._counts: dict[Any, int] | None = (
            {} if self.funcs & {"min", "max"} else None
        )
        self._min_heap: list = []
        self._max_heap: list = []

    def _usable(self, value: Any) -> bool:
        # NaN breaks both removal (identity-keyed dict lookups) and heap
        # ordering, any non-finite float the exact sum, any non-number
        # running sums.  Each invalidates.
        return isinstance(value, int) or (
            isinstance(value, float) and math.isfinite(value)
        )

    def add(self, value: Any) -> None:
        if not self.valid:
            return
        if not self._usable(value):
            self.valid = False
            return
        self.count += 1
        if isinstance(value, float):
            self.scaled += scaled_float(value)
            self.floats += 1
        else:
            self.total += value
        if self._counts is not None:
            self._counts[value] = self._counts.get(value, 0) + 1
            heapq.heappush(self._min_heap, value)
            heapq.heappush(self._max_heap, -value)
            if len(self._min_heap) > 4 * len(self._counts) + 64:
                self._compact()

    def remove(self, value: Any) -> None:
        if not self.valid:
            return
        if not self._usable(value):
            self.valid = False
            return
        self.count -= 1
        if isinstance(value, float):
            self.scaled -= scaled_float(value)
            self.floats -= 1
        else:
            self.total -= value
        if self.count < 0:
            self.valid = False
            return
        if self._counts is not None:
            live = self._counts.get(value, 0)
            if live <= 0:
                self.valid = False  # removal of a value never added
            elif live == 1:
                del self._counts[value]
            else:
                self._counts[value] = live - 1

    def partials(self) -> tuple[int, int, int, int]:
        """``(count, total, scaled, floats)``: the exact partials of
        :func:`~repro.constraints.evaluate.exact_aggregate`, which add
        across extents (the shard router merges them)."""
        return self.count, self.total, self.scaled, self.floats

    def _compact(self) -> None:
        counts = self._counts or {}
        self._min_heap = list(counts)
        heapq.heapify(self._min_heap)
        self._max_heap = [-value for value in counts]
        heapq.heapify(self._max_heap)

    def _live_extreme(self, heap: list, sign: int) -> Any:
        counts = self._counts or {}
        while heap:
            candidate = sign * heap[0]
            if counts.get(candidate, 0) > 0:
                return candidate
            heapq.heappop(heap)
        return INDEX_MISS  # count > 0 but no live heap entry: inconsistent

    def value(self, func: str) -> Any:
        """The aggregate's current value, or :data:`INDEX_MISS`."""
        if not self.valid:
            return INDEX_MISS
        if func in ("count", "sum", "avg"):
            return exact_aggregate(
                func, self.count, self.total, self.scaled, self.floats
            )
        if self.count == 0:
            return VACUOUS  # min/max over an empty extent
        if func == "min" and self._counts is not None:
            return self._live_extreme(self._min_heap, 1)
        if func == "max" and self._counts is not None:
            return self._live_extreme(self._max_heap, -1)
        return INDEX_MISS


class KeyIndex:
    """Key-tuple multiplicities over the deep extent of one class, with a
    running duplicate count: uniqueness is ``duplicates == 0``, O(1).

    Key components are taken from raw object states.  Keys containing
    reference-typed attributes are never registered (see the dependency
    index): the scan path dereferences them — raising on dangling oids —
    while this index would compare raw oid strings.
    """

    __slots__ = ("class_name", "attributes", "valid", "_counts", "_duplicates")

    def __init__(self, class_name: str, attributes: Iterable[str]):
        self.class_name = class_name
        self.attributes = tuple(attributes)
        self.valid = True
        self._counts: dict[tuple, int] = {}
        self._duplicates = 0

    def _key(self, state: Mapping[str, Any]) -> tuple | None:
        key = tuple(state.get(attr, _ABSENT) for attr in self.attributes)
        return None if _ABSENT in key else key

    def add(self, state: Mapping[str, Any]) -> None:
        if not self.valid:
            return
        key = self._key(state)
        if key is None:
            self.valid = False
            return
        try:
            live = self._counts.get(key, 0)
        except TypeError:  # unhashable key component
            self.valid = False
            return
        self._counts[key] = live + 1
        if live >= 1:
            self._duplicates += 1

    def remove(self, state: Mapping[str, Any]) -> None:
        if not self.valid:
            return
        key = self._key(state)
        if key is None:
            self.valid = False
            return
        try:
            live = self._counts.get(key, 0)
        except TypeError:
            self.valid = False
            return
        if live <= 0:
            self.valid = False  # removal of a key never added
        elif live == 1:
            del self._counts[key]
        else:
            self._counts[key] = live - 1
            self._duplicates -= 1

    def unique(self) -> bool | None:
        """Whether all key tuples are distinct; ``None`` when invalidated."""
        if not self.valid:
            return None
        return self._duplicates == 0


class ReferenceIndex:
    """Referrer counts for one ``(referrer class, attribute)`` reference pair.

    For every constraint-read reference pair ``D.a : R`` this keeps
    ``referenced oid → number of live objects in the deep extent of D whose
    raw a-value is that oid``, split into two running totals:

    * ``_live_with_ref`` — distinct *live* referenced objects with at least
      one referrer.  ``forall x in R exists y in D | y.a = x`` is then
      ``_live_with_ref == |deep extent of R|`` — one O(1) comparison; the
      negated and existential forms read the same counter.
    * ``_dangling`` — distinct counted oids whose object has been deleted.
      Any dangling entry disables the probes (:data:`INDEX_MISS`): the scan
      path *dereferences* ``y.a`` and may raise on a dangler depending on
      extent order, so only the scan can reproduce those semantics.

    Liveness is probed against the store's object table (``_contains``) at
    transition time; hooks run after the store applied the mutation, so a
    newly inserted object (or rollback resurrection) already counts as live
    and a deleted one no longer does.  Type checking guarantees every
    counted oid once named a member of R's subclass closure, so referenced-
    side membership changes only arrive through :meth:`join`/:meth:`leave`
    hooks of classes in that closure.

    Degradation mirrors the other indexes: a value that cannot be counted
    (a non-string where an oid belongs, a removal never added) marks the
    index invalid; probes answer :data:`INDEX_MISS` and evaluation falls
    back to the extent scan until the next rebuild.
    """

    __slots__ = (
        "referrer_class", "attribute", "referenced_class", "valid",
        "_counts", "_live_with_ref", "_dangling", "_contains",
    )

    def __init__(
        self,
        referrer_class: str,
        attribute: str,
        referenced_class: str,
        contains: "Callable[[str], bool]",
    ):
        self.referrer_class = referrer_class
        self.attribute = attribute
        self.referenced_class = referenced_class
        self.valid = True
        self._counts: dict[str, int] = {}
        self._live_with_ref = 0
        self._dangling = 0
        self._contains = contains

    # -- referrer-side transitions (objects of D's closure) ---------------------

    def add_referrer(self, value: Any) -> None:
        if not self.valid:
            return
        if not isinstance(value, str):
            self.valid = False  # a reference slot holds an oid string
            return
        live = self._counts.get(value, 0)
        self._counts[value] = live + 1
        if live == 0:
            if self._contains(value):
                self._live_with_ref += 1
            else:
                self._dangling += 1

    def remove_referrer(self, value: Any) -> None:
        if not self.valid:
            return
        if not isinstance(value, str):
            self.valid = False
            return
        live = self._counts.get(value, 0)
        if live <= 0:
            self.valid = False  # removal of a referrer never added
        elif live == 1:
            del self._counts[value]
            if self._contains(value):
                self._live_with_ref -= 1
            else:
                self._dangling -= 1
        else:
            self._counts[value] = live - 1

    # -- referenced-side transitions (objects of R's closure) -------------------

    def join(self, oid: str) -> None:
        """``oid`` (re)entered the store: referrers to it are live again."""
        if self.valid and self._counts.get(oid, 0) > 0:
            self._dangling -= 1
            self._live_with_ref += 1

    def leave(self, oid: str) -> None:
        """``oid`` left the store: referrers to it now dangle."""
        if self.valid and self._counts.get(oid, 0) > 0:
            self._live_with_ref -= 1
            self._dangling += 1

    # -- probes -----------------------------------------------------------------

    def count_for(self, oid: str) -> Any:
        """Referrer count of one oid, or :data:`INDEX_MISS`."""
        if not self.valid or self._dangling:
            return INDEX_MISS
        return self._counts.get(oid, 0)

    def verdict(self, mode: str, referenced_extent_size: int) -> Any:
        """Whole-formula verdict against R's deep-extent size, or
        :data:`INDEX_MISS`.  ``mode``: ``all`` (every member referenced),
        ``any`` (some member referenced), ``none`` (no member referenced)."""
        if not self.valid or self._dangling:
            return INDEX_MISS
        if mode == "all":
            return self._live_with_ref == referenced_extent_size
        if mode == "any":
            return self._live_with_ref > 0
        if mode == "none":
            return self._live_with_ref == 0
        return INDEX_MISS


class IndexManager:
    """Owns and maintains all auxiliary indexes of one store.

    Construction (and every rebuild, once per schema change) registers what
    to materialize from the store's constraint-dependency index and replays
    the current store contents.  See the module docstring for the consistency
    contract with mutations and rollback.
    """

    def __init__(self, store: "ObjectStore"):
        self._store = store
        #: Rebuild counter, exposed for tests and benchmarks.
        self.rebuilds = 0
        self.rebuild()

    # -- construction ---------------------------------------------------------------

    def rebuild(self) -> None:
        """Re-derive every index from the schema and live store contents.

        O(store) — runs once per schema change (or explicit call), never on
        the per-mutation path.
        """
        store = self._store
        schema = store.schema
        self.rebuilds += 1
        self._extents: dict[str, OrderedOidSet] = {
            name: OrderedOidSet() for name in schema.classes
        }
        # Registration flow: the constraint-dependency index names every
        # aggregate and key any constraint evaluates; merge per-(class, attr)
        # so one structure serves all functions requested over it.
        dependency_index = store.dependency_index()
        wanted_funcs: dict[tuple[str, str], set[str]] = {}
        for func, class_name, over in dependency_index.aggregate_specs():
            if over is None:
                continue  # bare counts are answered from the extent index
            wanted_funcs.setdefault((class_name, over), set()).add(func)
        self._aggregates: dict[tuple[str, str], RunningAggregate] = {
            (class_name, over): RunningAggregate(class_name, over, funcs)
            for (class_name, over), funcs in wanted_funcs.items()
        }
        self._keys: dict[tuple[str, tuple[str, ...]], KeyIndex] = {
            (class_name, attributes): KeyIndex(class_name, attributes)
            for class_name, attributes in dependency_index.key_specs()
        }
        # Liveness closes over the *store*, not the current ``_objects``
        # dict: ``_restore_object_order()`` replaces that dict wholesale
        # after a resurrection, and a bound ``__contains__`` would keep
        # probing the abandoned one.
        def contains(oid: str) -> bool:
            return oid in store._objects

        self._references: dict[tuple[str, str], ReferenceIndex] = {
            (referrer, attribute): ReferenceIndex(
                referrer, attribute, referenced, contains
            )
            for referrer, attribute, referenced
            in dependency_index.reference_specs()
        }
        # Feed maps: which structures an object of each class contributes to
        # (its own class and every ancestor — deep-extent membership).  A
        # reference index has two feeds: the referrer side (classes below D,
        # whose a-values are counted) and the referenced side (classes below
        # R, whose store membership flips counted oids live/dangling).
        self._extent_feeds: dict[str, tuple[OrderedOidSet, ...]] = {}
        self._agg_feeds: dict[str, tuple[RunningAggregate, ...]] = {}
        self._key_feeds: dict[str, tuple[KeyIndex, ...]] = {}
        self._referrer_feeds: dict[str, tuple[ReferenceIndex, ...]] = {}
        self._referenced_feeds: dict[str, tuple[ReferenceIndex, ...]] = {}
        for name in schema.classes:
            chain = set(schema.ancestry(name))
            self._extent_feeds[name] = tuple(
                self._extents[ancestor] for ancestor in schema.ancestry(name)
            )
            self._agg_feeds[name] = tuple(
                agg for agg in self._aggregates.values() if agg.class_name in chain
            )
            self._key_feeds[name] = tuple(
                key for key in self._keys.values() if key.class_name in chain
            )
            self._referrer_feeds[name] = tuple(
                ref
                for ref in self._references.values()
                if ref.referrer_class in chain
            )
            self._referenced_feeds[name] = tuple(
                ref
                for ref in self._references.values()
                if ref.referenced_class in chain
            )
        # The extents are filled in bulk: ``objects()`` yields the store in
        # insertion order, so each extent's members arrive in order too.
        members: dict[str, list[str]] = {name: [] for name in self._extents}
        member_feeds = {
            name: tuple(members[ancestor] for ancestor in schema.ancestry(name))
            for name in schema.classes
        }
        for obj in store.objects():
            for extent in member_feeds.get(obj.class_name, ()):
                extent.append(obj.oid)
            # Replay skips the referenced-side join: liveness is probed
            # against the already-complete store, so add_referrer classifies
            # every oid correctly on its own (danglers included) and a join
            # would double-count objects replayed after their referrers.
            self._index_state(obj, replay=True)
        for name, oids in members.items():
            self._extents[name].fill(oids)

    # -- mutation hooks -----------------------------------------------------------
    #
    # Each hook runs *after* the store applied the mutation to ``_objects``.

    def on_insert(self, obj: "DBObject") -> None:
        for extent in self._extent_feeds.get(obj.class_name, ()):
            extent.add(obj.oid)
        self._index_state(obj)

    def on_delete(self, obj: "DBObject") -> None:
        # Referenced-side leave before referrer-side remove: a self-pointing
        # object must first flip its own counted entry to dangling so its
        # referrer removal declassifies the same state it observes.
        for reference in self._referenced_feeds.get(obj.class_name, ()):
            reference.leave(obj.oid)
        for reference in self._referrer_feeds.get(obj.class_name, ()):
            reference.remove_referrer(obj.state.get(reference.attribute, _ABSENT))
        for extent in self._extent_feeds.get(obj.class_name, ()):
            extent.discard(obj.oid)
        for aggregate in self._agg_feeds.get(obj.class_name, ()):
            aggregate.remove(obj.state.get(aggregate.over, _ABSENT))
        for key in self._key_feeds.get(obj.class_name, ()):
            key.remove(obj.state)

    def on_update(
        self,
        obj: "DBObject",
        old_state: Mapping[str, Any],
        new_state: Mapping[str, Any],
    ) -> None:
        """Transition hook; also used in reverse by rollback (the hook is
        symmetric in its explicit state pair, whatever ``obj.state`` holds)."""
        for aggregate in self._agg_feeds.get(obj.class_name, ()):
            old = old_state.get(aggregate.over, _ABSENT)
            new = new_state.get(aggregate.over, _ABSENT)
            if old is new:
                continue  # untouched attributes keep their value's identity
            aggregate.remove(old)
            aggregate.add(new)
        for key in self._key_feeds.get(obj.class_name, ()):
            if any(
                old_state.get(attr, _ABSENT) is not new_state.get(attr, _ABSENT)
                for attr in key.attributes
            ):
                key.remove(old_state)
                key.add(new_state)
        for reference in self._referrer_feeds.get(obj.class_name, ()):
            old = old_state.get(reference.attribute, _ABSENT)
            new = new_state.get(reference.attribute, _ABSENT)
            if old is new:
                continue
            reference.remove_referrer(old)
            reference.add_referrer(new)

    def _index_state(self, obj: "DBObject", replay: bool = False) -> None:
        """An inserted object's contributions to the aggregates, key and
        reference indexes (its extent membership aside)."""
        for aggregate in self._agg_feeds.get(obj.class_name, ()):
            aggregate.add(obj.state.get(aggregate.over, _ABSENT))
        for key in self._key_feeds.get(obj.class_name, ()):
            key.add(obj.state)
        if not replay:
            # Referenced-side join before referrer-side add: a resurrected
            # self-pointer must reclassify pre-existing referrers before
            # counting its own (already-live) reference.
            for reference in self._referenced_feeds.get(obj.class_name, ()):
                reference.join(obj.oid)
        for reference in self._referrer_feeds.get(obj.class_name, ()):
            reference.add_referrer(obj.state.get(reference.attribute, _ABSENT))

    # -- probes (the EvalContext fast path) ----------------------------------------

    def aggregate_value(self, func: str, class_name: str, over: str | None) -> Any:
        """A materialized aggregate value, or :data:`INDEX_MISS`.

        ``count`` — with or without an ``over`` attribute — equals the deep
        extent's size (every member carries its effective attributes), so it
        is answered from the extent index even when no running aggregate was
        registered for the pair.
        """
        if func == "count":
            extent = self._extents.get(class_name)
            return INDEX_MISS if extent is None else len(extent)
        if over is None:
            return INDEX_MISS
        aggregate = self._aggregates.get((class_name, over))
        if aggregate is None:
            return INDEX_MISS
        return aggregate.value(func)

    def aggregate_partials(self, class_name: str, over: str | None) -> Any:
        """The exact sum partials (:meth:`RunningAggregate.partials`) of
        ``over`` across ``class_name``'s deep extent, or
        :data:`INDEX_MISS`."""
        aggregate = self._aggregates.get((class_name, over))
        if aggregate is None or not aggregate.valid:
            return INDEX_MISS
        return aggregate.partials()

    def key_unique(self, class_name: str, attributes: Iterable[str]) -> bool | None:
        """A materialized uniqueness verdict, or ``None`` (no usable index)."""
        key = self._keys.get((class_name, tuple(attributes)))
        if key is None:
            return None
        return key.unique()

    def reference_count(
        self, referrer_class: str, attribute: str, oid: str
    ) -> Any:
        """How many live members of ``referrer_class``'s deep extent hold
        ``oid`` in ``attribute``, or :data:`INDEX_MISS` (no index registered
        for the pair, invalidated, or dangling references present — the scan
        path alone reproduces dangling-dereference semantics)."""
        reference = self._references.get((referrer_class, attribute))
        if reference is None:
            return INDEX_MISS
        return reference.count_for(oid)

    def referential_verdict(
        self,
        mode: str,
        referenced_class: str,
        referrer_class: str,
        attribute: str,
    ) -> Any:
        """A whole-formula referential verdict, or :data:`INDEX_MISS`.

        ``mode`` ``all`` answers ``forall x in C exists y in D | y.a = x``,
        ``none`` its negated body, ``any`` the doubly-existential form.  The
        probe only applies when ``referenced_class`` is exactly the declared
        target of ``D.a`` — the maintained live-referenced counter is scoped
        to that class's deep extent; other quantification classes scan."""
        reference = self._references.get((referrer_class, attribute))
        if reference is None or reference.referenced_class != referenced_class:
            return INDEX_MISS
        extent = self._extents.get(referenced_class)
        if extent is None:
            return INDEX_MISS
        return reference.verdict(mode, len(extent))

    def reference_totals(
        self,
        referrer_class: str,
        attribute: str,
        referenced_class: str,
    ) -> tuple[int, int] | Any:
        """The raw ``(live_with_ref, dangling)`` running totals of one
        reference pair, or :data:`INDEX_MISS`.

        These are the *mergeable partials* behind cross-shard referential
        checking (:mod:`repro.engine.sharding`): referrer classes are pinned
        to one shard, so summing each shard's totals and comparing against
        the merged referenced-extent size reproduces
        :meth:`referential_verdict` exactly — any dangling entry anywhere
        still forces the scan path, same as the single-store probe.
        """
        reference = self._references.get((referrer_class, attribute))
        if reference is None or reference.referenced_class != referenced_class:
            return INDEX_MISS
        if not reference.valid:
            return INDEX_MISS
        return (reference._live_with_ref, reference._dangling)

    def deep_extent_oids(self, class_name: str) -> OrderedOidSet:
        """The maintained deep extent of ``class_name`` in insertion order
        (a class of the schema the indexes were last built for)."""
        return self._extents[class_name]
