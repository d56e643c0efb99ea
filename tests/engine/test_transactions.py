"""Transaction edge cases: undo-log rollback, nested/re-entrant transactions,
and the dirty-set lifecycle around commit and rollback."""

import pytest

from repro import ObjectStore
from repro.engine.oracle import Oracle
from repro.errors import ConstraintViolation
from repro.tm.parser import parse_database
from repro.fixtures import (
    bookseller_schema,
    bookseller_store,
    cslibrary_schema,
    cslibrary_store,
)

#: Every delete is rejected: each class must keep at least four objects.
MINIMUM_SOURCE = """
Database MinimumDB

Class Item
attributes
  name : string
class constraints
  cc_items: (count (collect x for x in self)) >= 4
end Item

Class Tag
attributes
  label : string
class constraints
  cc_tags: (count (collect x for x in self)) >= 4
end Tag
"""


class TestRollbackRestoresExtents:
    def test_failed_deferred_check_restores_extents_and_identity(self):
        store, named = bookseller_store()
        before_publishers = [o.oid for o in store.extent("Publisher", deep=False)]
        before_items = [o.oid for o in store.extent("Item")]
        victim = store.extent("Monograph")[0]
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                store.delete(victim)
                store.update(named["vldb95"], libprice=1.0)
                # Publisher without an Item: db1 fails at commit.
                store.insert("Publisher", name="Ghost", location="Nowhere")
        assert sorted(o.oid for o in store.extent("Publisher", deep=False)) == sorted(
            before_publishers
        )
        assert sorted(o.oid for o in store.extent("Item")) == sorted(before_items)
        # The deleted object is re-registered as the *same* instance, so
        # references held outside the store stay valid.
        assert store.get(victim.oid) is victim
        assert named["vldb95"].state["libprice"] != 1.0

    def test_rollback_of_delete_preserves_extent_order(self):
        store, _ = cslibrary_store()
        before = [obj.oid for obj in store.extent("Publication")]
        first = store.extent("Publication")[0]
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.delete(first)
                raise RuntimeError("abort")
        assert [obj.oid for obj in store.extent("Publication")] == before

    def test_rollback_of_insert_then_delete(self):
        store, _ = cslibrary_store()
        size = len(store)
        with pytest.raises(RuntimeError):
            with store.transaction():
                obj = store.insert(
                    "Publication",
                    title="ephemeral",
                    isbn="ISBN-E1",
                    publisher="ACM",
                    shopprice=10.0,
                    ourprice=9.0,
                )
                store.delete(obj)
                raise RuntimeError("abort")
        assert len(store) == size
        assert obj.oid not in store

    @pytest.mark.parametrize("namespace", [None, 3], ids=["plain", "shard-core"])
    def test_rejected_deletes_keep_object_order(self, namespace):
        """A rejected delete re-places the resurrected object; the object
        table keeps its order, which is the oracle's, for the first, a
        middle and the last object, and for several at once."""
        store = ObjectStore(parse_database(MINIMUM_SOURCE), oid_namespace=namespace)
        oracle = Oracle(parse_database(MINIMUM_SOURCE))
        for target in (store, oracle):
            with target.transaction():
                for index in range(4):
                    target.insert("Item", name=f"i{index}")
                    target.insert("Tag", label=f"t{index}")

        def names(target):
            return [obj.state.get("name") or obj.state["label"] for obj in target.objects()]

        before = [obj.oid for obj in store.objects()]
        assert names(store) == names(oracle)
        for position in (0, 3, len(before) - 1):
            for target in (store, oracle):
                with pytest.raises(ConstraintViolation):
                    target.delete(list(target.objects())[position])
            assert [obj.oid for obj in store.objects()] == before
            assert names(store) == names(oracle)
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                for position in (len(before) - 1, 4, 0):
                    store.delete(before[position])
        assert [obj.oid for obj in store.objects()] == before

    def test_commit_clears_dirty_state(self):
        store, named = bookseller_store()
        with store.transaction():
            store.update(named["vldb95"], libprice=12.0)
        assert store._delta is None
        assert store._undo is None
        assert not store._deferred


class TestNestedTransactions:
    def test_inner_commit_defers_to_outer(self):
        store, _ = bookseller_store()
        with store.transaction():
            with store.transaction():
                # Violates db1 until the matching Item arrives; the inner
                # commit must not validate.
                publisher = store.insert(
                    "Publisher", name="Morgan", location="SF"
                )
            store.insert(
                "Monograph",
                title="New readings",
                isbn="ISBN-400",
                publisher=publisher,
                authors=frozenset(),
                shopprice=20.0,
                libprice=18.0,
                subjects=frozenset(),
            )
        assert len(store.extent("Publisher", deep=False)) == 4

    def test_inner_rollback_keeps_outer_work(self):
        store, named = bookseller_store()
        with store.transaction():
            store.update(named["vldb95"], libprice=12.5)
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.update(named["vldb95"], libprice=1.0)
                    raise RuntimeError("inner abort")
            # Inner rollback restored the outer transaction's value...
            assert named["vldb95"].state["libprice"] == 12.5
        # ...and the outer commit kept it.
        assert named["vldb95"].state["libprice"] == 12.5

    def test_outer_rollback_undoes_committed_inner(self):
        store, named = bookseller_store()
        original = named["vldb95"].state["libprice"]
        with pytest.raises(RuntimeError):
            with store.transaction():
                with store.transaction():
                    store.update(named["vldb95"], libprice=2.0)
                raise RuntimeError("outer abort")
        assert named["vldb95"].state["libprice"] == original

    def test_outer_commit_validates_inner_violation(self):
        store, _ = bookseller_store()
        size = len(store)
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                with store.transaction():
                    store.insert(
                        "Publisher", name="Lonely", location="Nowhere"
                    )
        assert len(store) == size

    def test_reentrant_sequential_transactions(self):
        store, named = bookseller_store()
        for price in (11.0, 12.0, 13.0):
            with store.transaction():
                store.update(named["vldb95"], libprice=price)
        assert named["vldb95"].state["libprice"] == 13.0

    @staticmethod
    def _nested_history(store) -> list:
        """Nested commits and rollbacks on a one-pair Bookseller store;
        returns each step's verdict."""

        def add_pair(name):
            publisher = store.insert("Publisher", name=name, location="X")
            store.insert(
                "Monograph",
                title=f"{name} readings",
                isbn=f"ISBN-{name}",
                publisher=publisher,
                authors=frozenset(),
                shopprice=20.0,
                libprice=18.0,
                subjects=frozenset(),
            )
            return publisher

        verdicts = []

        def step(body):
            try:
                body()
                verdicts.append("committed")
            except ConstraintViolation:
                verdicts.append("rejected")
            except RuntimeError:
                verdicts.append("aborted")

        def commit_pair():
            with store.transaction():
                with store.transaction():
                    add_pair("A")

        def inner_abort():
            with store.transaction():
                add_pair("B")
                try:
                    with store.transaction():
                        store.delete(store.extent("Item")[0])
                        raise RuntimeError("inner abort")
                except RuntimeError:
                    pass
                store.update(store.extent("Item")[-1], libprice=1.0)

        def outer_abort():
            with store.transaction():
                with store.transaction():
                    add_pair("C")
                raise RuntimeError("outer abort")

        def lonely_inner():
            with store.transaction():
                with store.transaction():
                    store.insert("Publisher", name="Lonely", location="Nowhere")

        def retire():
            with store.transaction():
                publisher = store.extent("Publisher")[0]
                for item in store.extent("Item"):
                    if item.state["publisher"] == publisher.oid:
                        store.delete(item)
                with store.transaction():
                    store.delete(publisher)

        for body in (commit_pair, inner_abort, outer_abort, lonely_inner, retire):
            step(body)
        return verdicts

    def test_nested_histories_match_the_oracle(self):
        stores = [ObjectStore(bookseller_schema()), Oracle(bookseller_schema())]
        verdicts = [self._nested_history(store) for store in stores]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0] == ["committed", "committed", "aborted", "rejected", "committed"]
        contents = [
            [(o.oid, o.class_name, dict(o.state)) for o in store.objects()]
            for store in stores
        ]
        assert contents[0] == contents[1]

    @staticmethod
    def _reference_index_state(store):
        """White-box image of the db1 reference-count index."""
        reference = store._indexes._references[("Item", "publisher")]
        return (
            dict(reference._counts),
            reference._live_with_ref,
            reference._dangling,
            reference.valid,
        )

    def test_outer_rollback_removes_nested_insert(self):
        """Regression (insert pre-images through the undo merge): an object
        inserted inside an *inner* transaction — whose commit merges its
        undo log outward via ``setdefault`` with a ``None`` pre-image —
        must be removed again when the outer transaction rolls back, with
        store contents, extents, and reference-count indexes all restored."""
        store, named = bookseller_store()
        before_state = {oid: obj.state for oid, obj in store._objects.items()}
        before_extents = {
            name: sorted(oids) for name, oids in store._direct_extents.items()
        }
        before_refs = self._reference_index_state(store)
        with pytest.raises(RuntimeError):
            with store.transaction():
                with store.transaction():
                    publisher = store.insert(
                        "Publisher", name="Morgan", location="SF"
                    )
                    inserted = store.insert(
                        "Monograph",
                        title="Ghost readings",
                        isbn="ISBN-GHOST",
                        publisher=publisher,
                        authors=frozenset(),
                        shopprice=20.0,
                        libprice=18.0,
                        subjects=frozenset(),
                    )
                # The outer transaction also touches the merged-in object:
                # its first-touch pre-image must stay the insert's None.
                store.update(inserted, libprice=17.0)
                raise RuntimeError("outer abort")
        assert publisher.oid not in store
        assert inserted.oid not in store
        assert {oid: obj.state for oid, obj in store._objects.items()} == before_state
        assert {
            name: sorted(oids) for name, oids in store._direct_extents.items()
        } == before_extents
        assert self._reference_index_state(store) == before_refs
        assert [o.oid for o in store.extent("Item")] == sorted(
            (o.oid for o in store.extent("Item")),
            key=lambda oid: int(oid.rsplit("#", 1)[-1]),
        )
        assert store.check_all() == []

    def test_outer_commit_failure_removes_nested_insert(self):
        """Same merge path, but the outer rollback comes from commit-time
        validation failing rather than an exception."""
        store, _ = bookseller_store()
        size = len(store)
        before_refs = self._reference_index_state(store)
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                with store.transaction():
                    store.insert("Publisher", name="Lonely", location="Nowhere")
        assert len(store) == size
        assert self._reference_index_state(store) == before_refs
        assert store.check_all() == []


class TestCommitFailureAttribution:
    def test_commit_failure_carries_structured_violations(self):
        """Regression: a commit-time ``ConstraintViolation("transaction",
        ...)`` must keep the per-constraint findings, not just a joined
        message."""
        store, named = bookseller_store()
        with pytest.raises(ConstraintViolation) as info:
            with store.transaction():
                # Two independent violations: a Publisher without an Item
                # (db1) and a library price above the shop price (Item.oc1).
                store.insert("Publisher", name="Lonely", location="Nowhere")
                store.update(named["vldb95"], libprice=10_000.0)
        exc = info.value
        assert exc.constraint_name == "transaction"
        assert exc.violations, "structured violations were dropped"
        assert "Bookseller.db1" in exc.constraint_names
        assert "Bookseller.Item.oc1" in exc.constraint_names
        for violation in exc.violations:
            assert violation.constraint_name and violation.describe()

    def test_full_revalidation_carries_structured_violations(self):
        """A constant rebind leaves no validated baseline, so the next
        operation falls back to full revalidation; its rejection still
        attributes the violated constraint, with structured findings and
        conflict cores."""
        store, named = bookseller_store()
        store.set_constant("PROBE", 1)
        with pytest.raises(ConstraintViolation) as info:
            store.update(named["vldb95"], libprice=10_000.0)
        exc = info.value
        assert exc.constraint_name == "full revalidation"
        assert exc.constraint_names == ("Bookseller.Item.oc1",)
        assert [v.constraint_name for v in exc.violations] == ["Bookseller.Item.oc1"]
        assert [core.constraint_name for core in exc.cores] == ["Bookseller.Item.oc1"]
        assert [core.oids() for core in exc.cores] == [(named["vldb95"].oid,)]
        assert named["vldb95"].state["libprice"] == 92.0

    def test_single_operation_failure_keeps_plain_attribution(self):
        store, named = bookseller_store()
        with pytest.raises(ConstraintViolation) as info:
            store.update(named["vldb95"], libprice=10_000.0)
        assert info.value.constraint_names == ("Bookseller.Item.oc1",)


class TestUnenforcedStores:
    def test_transaction_on_unenforced_store_skips_validation(self):
        schema = cslibrary_schema()
        store = ObjectStore(schema, enforce=False)
        with store.transaction():
            store.insert(
                "Publication",
                title="Overpriced",
                isbn="X",
                publisher="Basement Press",  # violates oc2, tolerated
                shopprice=1.0,
                ourprice=2.0,
            )
        assert len(store) == 1
        assert store.check_all() != []
