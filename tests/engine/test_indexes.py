"""Tests for the index-maintenance subsystem (repro.engine.indexes).

The acceptance properties: after *any* sequence of inserts, updates, deletes
and rollbacks, every maintained index agrees with a from-scratch naive scan
(deep/shallow extents, running aggregates, key maps), and the store
accepts/rejects exactly the same transactions as the naive full-check
:class:`~repro.engine.oracle.Oracle`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObjectStore
from repro.constraints.evaluate import INDEX_MISS, VACUOUS
from repro.engine.indexes import (
    IndexManager,
    KeyIndex,
    OrderedOidSet,
    RunningAggregate,
    oid_sort_key,
)
from repro.engine.oracle import Oracle
from repro.errors import ConstraintViolation
from repro.fixtures import cslibrary_schema
from repro.tm.parser import parse_database

INDEXLAB_SOURCE = """
Database IndexLab

constants
  CEILING = 1000000

Class Base
attributes
  name  : string
  score : int
class constraints
  cc_key: key name
  cc_sum: (sum (collect x for x in self) over score) < CEILING
  cc_min: (min (collect x for x in self) over score) >= 0
  cc_max: (max (collect x for x in self) over score) < CEILING
end Base

Class Sub isa Base
attributes
  extra : int
class constraints
  cc_avg: (avg (collect x for x in self) over extra) < CEILING
end Sub
"""


#: A real attribute under a sum and an avg constraint, for full-range
#: float histories: the running aggregate must stay exact through any mix
#: of magnitudes, cancellations and removals.
FLOATLAB_SOURCE = """
Database FloatLab

constants
  CAP = 2

Class Reading
attributes
  price : real
class constraints
  cc_sum: (sum (collect x for x in self) over price) < CAP
  cc_avg: (avg (collect x for x in self) over price) < CAP
end Reading
"""


def indexlab_schema():
    return parse_database(INDEXLAB_SOURCE)


class _Abort(Exception):
    """Raised inside a transaction to force a rollback."""


# ---------------------------------------------------------------------------
# naive ground truth
# ---------------------------------------------------------------------------


def assert_indexes_match_naive_scan(store: ObjectStore) -> None:
    """Every index must agree with a from-scratch scan of the raw store (in
    the insertion order ``objects()`` restores after a rollback)."""
    manager = store._indexes
    assert manager is not None
    schema = store.schema
    live = list(store.objects())

    for class_name in schema.classes:
        deep = [
            obj.oid
            for obj in live
            if schema.is_subclass_of(obj.class_name, class_name)
        ]
        assert list(manager.deep_extent_oids(class_name)) == deep
        assert [obj.oid for obj in store.extent(class_name)] == deep
        shallow = [obj.oid for obj in live if obj.class_name == class_name]
        assert [obj.oid for obj in store.extent(class_name, deep=False)] == shallow

    for (class_name, over), aggregate in manager._aggregates.items():
        values = [
            obj.state[over]
            for obj in live
            if schema.is_subclass_of(obj.class_name, class_name)
        ]
        assert aggregate.valid
        for func in sorted(aggregate.funcs | {"sum", "count"}):
            if func in ("min", "max") and func not in aggregate.funcs:
                continue
            got = manager.aggregate_value(func, class_name, over)
            if func == "sum":
                assert got == sum(values)
            elif func == "count":
                assert got == len(values)
            elif not values:
                assert got is VACUOUS
            elif func == "avg":
                assert got == sum(values) / len(values)
            elif func == "min":
                assert got == min(values)
            else:
                assert got == max(values)

    for (class_name, attributes), _key in manager._keys.items():
        tuples = [
            tuple(obj.state[attr] for attr in attributes)
            for obj in live
            if schema.is_subclass_of(obj.class_name, class_name)
        ]
        assert manager.key_unique(class_name, attributes) == (
            len(set(tuples)) == len(tuples)
        )


# ---------------------------------------------------------------------------
# op interpreter shared by the property tests
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert_base",
                "insert_sub",
                "update",
                "delete",
                "txn_commit",
                "txn_abort",
            ]
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=10,
)


def _apply_one(store: ObjectStore, kind: str, a: int, b: int, c: int) -> str | None:
    """Run one op; returns ``"rejected"`` when enforcement refused it."""

    def mutate(seed: int) -> None:
        extent = store.extent("Base")
        choice = seed % 4
        if choice == 0 or not extent:
            store.insert("Base", name=f"n{(seed + c) % 9}", score=c)
        elif choice == 1:
            store.insert(
                "Sub", name=f"n{(seed + c) % 9}", score=c, extra=seed % 50
            )
        elif choice == 2:
            store.update(extent[seed % len(extent)], score=c, name=f"n{b % 9}")
        else:
            store.delete(extent[seed % len(extent)])

    try:
        if kind == "txn_commit":
            with store.transaction():
                for offset in range(3):
                    mutate(a + offset)
        elif kind == "txn_abort":
            try:
                with store.transaction():
                    for offset in range(3):
                        mutate(a + offset)
                    raise _Abort()
            except _Abort:
                pass
        elif kind == "insert_base":
            store.insert("Base", name=f"n{b % 9}", score=c)
        elif kind == "insert_sub":
            store.insert("Sub", name=f"n{b % 9}", score=c, extra=a % 50)
        else:
            extent = store.extent("Base")
            if not extent:
                return None
            target = extent[a % len(extent)]
            if kind == "update":
                store.update(target, score=c, name=f"n{b % 9}")
            else:
                store.delete(target)
    except ConstraintViolation:
        return "rejected"
    return None


class TestIndexesMatchNaiveScans:
    """Acceptance property 1: after any random sequence of insert / update /
    delete / rollback, every index agrees with a from-scratch naive scan."""

    @given(ops=OPS)
    @settings(max_examples=120, deadline=None)
    def test_random_histories(self, ops):
        store = ObjectStore(indexlab_schema())
        for kind, a, b, c in ops:
            _apply_one(store, kind, a, b, c)
            assert_indexes_match_naive_scan(store)

    def test_aborted_transaction_restores_indexes_and_order(self):
        store = ObjectStore(indexlab_schema())
        for index in range(6):
            store.insert("Base", name=f"n{index}", score=index)
        before = [obj.oid for obj in store.extent("Base")]
        with pytest.raises(_Abort):
            with store.transaction():
                store.delete(before[2])  # resurrection must restore order
                store.insert("Base", name="n9", score=9)
                store.update(store.extent("Base")[0], score=40)
                raise _Abort()
        assert [obj.oid for obj in store.extent("Base")] == before
        assert_indexes_match_naive_scan(store)

    def test_rejected_single_operations_roll_indexes_back(self):
        store = ObjectStore(indexlab_schema())
        store.insert("Base", name="a", score=1)
        store.insert("Base", name="b", score=2)
        with pytest.raises(ConstraintViolation, match="cc_key"):
            store.insert("Base", name="a", score=3)
        with pytest.raises(ConstraintViolation, match="cc_key"):
            store.update(store.extent("Base")[1], name="a")
        with pytest.raises(ConstraintViolation, match="cc_min"):
            store.update(store.extent("Base")[0], score=-5)
        assert_indexes_match_naive_scan(store)


class TestOracleEquivalence:
    """Acceptance property 2: the indexed store and the scan-only oracle
    accept/reject identical transactions and leave identical states
    behind."""

    @staticmethod
    def _snapshot(store):
        return {
            obj.oid: (obj.class_name, dict(obj.state))
            for obj in store.objects()
        }

    @given(ops=OPS)
    @settings(max_examples=120, deadline=None)
    def test_verdicts_and_states_match(self, ops):
        indexed = ObjectStore(indexlab_schema())
        oracle = Oracle(indexlab_schema())
        for kind, a, b, c in ops:
            verdict_indexed = _apply_one(indexed, kind, a, b, c)
            verdict_oracle = _apply_one(oracle, kind, a, b, c)
            assert verdict_indexed == verdict_oracle
            assert self._snapshot(indexed) == self._snapshot(oracle)
        assert_indexes_match_naive_scan(indexed)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete", "txn"]),
                st.integers(min_value=0, max_value=40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_full_range_float_verdicts_and_states_match(self, ops):
        stores = [
            ObjectStore(parse_database(FLOATLAB_SOURCE)),
            Oracle(parse_database(FLOATLAB_SOURCE)),
        ]

        def apply(store, kind, index, price, other):
            extent = store.extent("Reading")
            target = extent[index % len(extent)] if extent else None
            try:
                if kind == "insert" or target is None:
                    store.insert("Reading", price=price)
                elif kind == "update":
                    store.update(target, price=price)
                elif kind == "delete":
                    store.delete(target)
                else:
                    with store.transaction():
                        store.insert("Reading", price=price)
                        store.update(target, price=other)
            except ConstraintViolation:
                return "rejected"
            return None

        for op in ops:
            verdicts = [apply(store, *op) for store in stores]
            assert verdicts[0] == verdicts[1]
            assert self._snapshot(stores[0]) == self._snapshot(stores[1])

    def test_exact_sum_survives_cancellation(self, tmp_path):
        """A float running total drifts under removal: after inserting
        -1e16 and 1.5 it read 2.0 once the -1e16 was deleted, rejecting a
        delete the scan accepts.  The live store, the oracle and a reopened
        store (which re-sums in another order) must all agree."""
        durable = ObjectStore.open(tmp_path / "db", parse_database(FLOATLAB_SOURCE))
        stores = [
            ObjectStore(parse_database(FLOATLAB_SOURCE)),
            Oracle(parse_database(FLOATLAB_SOURCE)),
            durable,
        ]
        for store in stores:
            big = store.insert("Reading", price=-1e16)
            store.insert("Reading", price=1.5)
            store.delete(big)
            assert [obj.state["price"] for obj in store.extent("Reading")] == [1.5]
        assert stores[0]._indexes.aggregate_value("sum", "Reading", "price") == 1.5
        durable.close()
        reopened = ObjectStore.open(tmp_path / "db")
        assert reopened._indexes.aggregate_value("sum", "Reading", "price") == 1.5
        for store in (stores[0], stores[1], reopened):
            with pytest.raises(ConstraintViolation, match="cc_sum"):
                store.insert("Reading", price=0.5)
            store.insert("Reading", price=0.25)
            assert store.audit() == []
        reopened.close()

    def test_invalidated_aggregate_falls_back_to_scan_semantics(self):
        """An aggregate over a non-numeric attribute cannot be maintained;
        the index invalidates itself and evaluation must fall back to the
        scan with identical accept/reject behaviour."""
        source = """
        Database Words

        Class Word
        attributes
          text : string
        class constraints
          cc_min: (min (collect x for x in self) over text) >= 'b'
        end Word
        """
        verdicts = []
        for store in (ObjectStore(parse_database(source)), Oracle(parse_database(source))):
            store.insert("Word", text="cat")
            try:
                store.insert("Word", text="ant")  # 'ant' < 'b': violation
                verdicts.append("accepted")
            except ConstraintViolation:
                verdicts.append("rejected")
            assert len(store.extent("Word")) == 1
        assert verdicts == ["rejected", "rejected"]


class TestRegistrationAndRebuild:
    def test_registration_flow_from_dependency_index(self):
        """The dependency index names what to materialize: cc2's running sum,
        ScientificPubl.cc1's running avg, and cc1's key map."""
        store = ObjectStore(cslibrary_schema())
        manager = store._indexes
        assert ("Publication", "ourprice") in manager._aggregates
        assert ("ScientificPubl", "rating") in manager._aggregates
        assert "avg" in manager._aggregates[("ScientificPubl", "rating")].funcs
        assert ("Publication", ("isbn",)) in manager._keys
        assert manager.key_unique("Publication", ("isbn",)) is True
        # No index was registered for attributes nothing aggregates over.
        assert manager.aggregate_value("sum", "Publication", "title") is INDEX_MISS

    def test_key_over_reference_attribute_is_not_materialized(self):
        """The scan path *dereferences* reference-typed key components
        (raising on dangling oids); a hash index over raw oid strings would
        silently diverge, so such keys stay on the scan path."""
        source = """
        Database Refs

        Class Owner
        attributes
          name : string
        end Owner

        Class Pet
        attributes
          owner : Owner
        class constraints
          cc_key: key owner
        end Pet
        """
        store = ObjectStore(parse_database(source))
        assert store._indexes._keys == {}
        owner = store.insert("Owner", name="a")
        store.insert("Pet", owner=owner)
        with pytest.raises(ConstraintViolation, match="cc_key"):
            store.insert("Pet", owner=owner)  # duplicate, via the scan path

    def test_count_answered_from_extent_index(self):
        store = ObjectStore(indexlab_schema())
        store.insert("Base", name="a", score=1)
        store.insert("Sub", name="b", score=2, extra=3)
        assert store._indexes.aggregate_value("count", "Base", None) == 2
        assert store._indexes.aggregate_value("count", "Sub", None) == 1

    def test_schema_change_triggers_one_rebuild(self):
        schema = indexlab_schema()
        store = ObjectStore(schema)
        store.insert("Base", name="a", score=1)
        manager = store._indexes
        rebuilds = manager.rebuilds
        store.set_constant("CEILING", 2_000_000)
        assert manager.rebuilds == rebuilds + 1
        store.insert("Base", name="b", score=2)
        assert manager.rebuilds == rebuilds + 1
        assert_indexes_match_naive_scan(store)

    def test_class_added_after_population_is_indexed_after_rebuild(self):
        from repro.types.primitives import StringType

        store = ObjectStore(indexlab_schema())
        store.insert("Base", name="a", score=1)
        grown = store.schema.copy()
        grown.new_class("Leaf", parent="Sub").add_attribute("kind", StringType())
        store.change_schema(grown)
        leaf = store.insert("Leaf", name="b", score=2, extra=1, kind="x")
        assert leaf in store.extent("Base")
        assert leaf in store.extent("Sub")
        assert_indexes_match_naive_scan(store)

    def test_indexed_extents_match_the_oracle_scan(self):
        for store in (ObjectStore(indexlab_schema()), Oracle(indexlab_schema())):
            store.insert("Base", name="a", score=1)
            sub = store.insert("Sub", name="b", score=2, extra=3)
            assert [o.oid for o in store.extent("Base")] == ["Base#1", "Sub#2"]
            assert [o.oid for o in store.extent("Base", deep=False)] == ["Base#1"]
            assert sub in store.extent("Sub")


class TestStructures:
    def test_ordered_oid_set_tolerates_malformed_oids(self):
        """Regression: an oid not shaped ``Class#N`` used to raise a raw
        ValueError out of ``OrderedOidSet.add``, crashing the whole index
        layer.  The documented contract is degradation: the set marks itself
        unsorted (malformed oids sort first, deterministically) and keeps
        working."""
        oids = OrderedOidSet()
        oids.add("C#2")
        oids.add("no-counter-here")  # previously: ValueError
        oids.add("C#1")
        assert "no-counter-here" in oids
        assert len(oids) == 3
        listing = list(oids)
        assert listing[0] == "no-counter-here"
        assert listing[1:] == ["C#1", "C#2"]
        oids.discard("no-counter-here")
        assert list(oids) == ["C#1", "C#2"]
        oids.add("C#3")
        assert list(oids) == ["C#1", "C#2", "C#3"]

    def test_oid_counter_default_fallback(self):
        from repro.engine.indexes import oid_counter

        assert oid_counter("C#7") == 7
        assert oid_counter("junk", -1) == -1
        with pytest.raises(ValueError):
            oid_counter("junk")

    def test_manager_survives_malformed_oid_insert(self):
        """An object with a hand-made oid reaching the index hooks must not
        crash maintenance; extents still include it."""
        from repro.engine.objects import DBObject

        store = ObjectStore(indexlab_schema())
        store.insert("Base", name="a", score=1)
        rogue = DBObject("rogue-oid", "Base", {"name": "b", "score": 2})
        store._objects[rogue.oid] = rogue
        store._direct_extents["Base"].add(rogue.oid)
        store._indexes.on_insert(rogue)  # previously: ValueError
        assert rogue.oid in store._indexes.deep_extent_oids("Base")
        assert {obj.oid for obj in store.extent("Base")} == {"Base#1", "rogue-oid"}

    def test_ordered_oid_set_resorts_after_out_of_order_add(self):
        oids = OrderedOidSet()
        for counter in (1, 3, 5):
            oids.add(f"C#{counter}")
        oids.add("C#2")  # a resurrection
        assert list(oids) == ["C#1", "C#2", "C#3", "C#5"]
        oids.discard("C#3")
        assert list(oids) == ["C#1", "C#2", "C#5"]

    def test_extent_order_matches_oracle_after_delete_rollback(self):
        """Regression: after a rollback resurrects deleted objects, the
        indexed extent (OrderedOidSet lazy re-sort), the store's object
        table (``objects()``'s lazy re-placement) and the oracle's scan must agree
        on one deterministic insertion-oid order."""
        stores = [ObjectStore(indexlab_schema()), Oracle(indexlab_schema())]
        for store in stores:
            for index in range(6):
                store.insert("Base", name=f"n{index}", score=index)
            victims = [store.extent("Base")[i].oid for i in (1, 3)]
            with pytest.raises(_Abort):
                with store.transaction():
                    for victim in victims:
                        store.delete(victim)
                    store.insert("Base", name="ephemeral", score=9)
                    raise _Abort()
        indexed_order = [obj.oid for obj in stores[0].extent("Base")]
        scan_order = [obj.oid for obj in stores[1].extent("Base")]
        assert indexed_order == scan_order
        assert [obj.oid for obj in stores[0].objects()] == scan_order
        assert indexed_order == sorted(
            indexed_order, key=lambda oid: int(oid.rsplit("#", 1)[-1])
        )
        # Repeated reads stay stable (the lazy re-sort is idempotent).
        assert [obj.oid for obj in stores[0].extent("Base")] == indexed_order

    def test_extent_order_deterministic_with_malformed_oids(self):
        """Two oids without parseable counters share the fallback sort rank;
        the oid string breaks the tie, so extents and the object table
        settle on one order however the hand-made oids arrived and however
        the rollback reordered the object table."""
        from repro.engine.objects import DBObject

        stores = [ObjectStore(indexlab_schema()), ObjectStore(indexlab_schema())]
        for store, rogues in zip(stores, (["zz-rogue", "aa-rogue"], ["aa-rogue", "zz-rogue"])):
            store.insert("Base", name="a", score=1)
            for rogue_oid in rogues:
                rogue = DBObject(rogue_oid, "Base", {"name": rogue_oid, "score": 2})
                store._objects[rogue.oid] = rogue
                store._direct_extents["Base"].add(rogue.oid)
                store._indexes.on_insert(rogue)
            # Every engine path keeps the object table in sort-key order
            # (inserts mint increasing counters, recovery sorts); restore
            # that invariant after the hand injection, as recovery would.
            store._objects = dict(
                sorted(store._objects.items(), key=lambda item: oid_sort_key(item[0]))
            )
            # Delete + rollback re-places the victim in both representations.
            victim = store.insert("Base", name="b", score=3)
            with pytest.raises(_Abort):
                with store.transaction():
                    store.delete(victim)
                    raise _Abort()
        orders = [[obj.oid for obj in store.extent("Base")] for store in stores]
        assert orders[0] == orders[1]
        assert orders[0][:2] == ["aa-rogue", "zz-rogue"]
        assert [[obj.oid for obj in store.objects()] for store in stores] == orders

    def test_running_aggregate_minmax_with_churn(self):
        aggregate = RunningAggregate("C", "x", {"min", "max"})
        for value in (5, 1, 9, 1):
            aggregate.add(value)
        aggregate.remove(1)
        aggregate.remove(9)
        assert aggregate.value("min") == 1
        assert aggregate.value("max") == 5
        assert aggregate.value("sum") == 6
        assert aggregate.value("avg") == 3
        aggregate.remove(1)
        aggregate.remove(5)
        assert aggregate.value("min") is VACUOUS
        assert aggregate.value("sum") == 0

    def test_running_aggregate_invalidates_on_unmaintainable_values(self):
        aggregate = RunningAggregate("C", "x", {"min"})
        aggregate.add("not a number")
        assert not aggregate.valid
        assert aggregate.value("sum") is INDEX_MISS
        nan_aggregate = RunningAggregate("C", "x", {"min"})
        nan_aggregate.add(float("nan"))
        assert not nan_aggregate.valid

    def test_key_index_duplicate_counting(self):
        key = KeyIndex("C", ("a", "b"))
        key.add({"a": 1, "b": 2})
        key.add({"a": 1, "b": 3})
        assert key.unique() is True
        key.add({"a": 1, "b": 2})
        assert key.unique() is False
        key.remove({"a": 1, "b": 2})
        assert key.unique() is True

    def test_key_index_invalidates_on_unhashable_component(self):
        key = KeyIndex("C", ("a",))
        key.add({"a": [1, 2]})
        assert key.unique() is None
