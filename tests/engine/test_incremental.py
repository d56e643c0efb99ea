"""Tests for delta-driven enforcement (repro.engine.incremental): the
constraint-dependency index, dirty sets, and equivalence with the full-check
oracle (repro.engine.oracle)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObjectStore
from repro.engine.incremental import ConstraintDependencyIndex, MutationDelta
from repro.engine.oracle import Oracle
from repro.errors import ConstraintViolation, EngineError, SchemaError
from repro.fixtures import bookseller_schema, bookseller_store, cslibrary_schema


def _entry(index, qualified_name):
    for entry in (
        index.object_constraints
        + index.class_constraints
        + index.database_constraints
    ):
        if entry.constraint.qualified_name.endswith(qualified_name):
            return entry
    raise AssertionError(f"no constraint {qualified_name} in index")


class TestDependencyIndex:
    def test_object_constraint_reads_own_attributes(self):
        index = ConstraintDependencyIndex(cslibrary_schema())
        oc1 = _entry(index, "Publication.oc1")  # ourprice <= shopprice
        assert ("Publication", "ourprice") in oc1.attrs
        assert ("Publication", "shopprice") in oc1.attrs
        assert not oc1.universal

    def test_reads_expand_over_subclasses(self):
        index = ConstraintDependencyIndex(cslibrary_schema())
        oc1 = _entry(index, "Publication.oc1")
        # A RefereedPubl is in Publication's extent; changing its ourprice
        # must trigger the inherited constraint.
        assert ("RefereedPubl", "ourprice") in oc1.attrs

    def test_reference_paths_record_foreign_reads(self):
        index = ConstraintDependencyIndex(bookseller_schema())
        oc1 = _entry(index, "Proceedings.oc1")  # publisher.name = 'IEEE' ...
        assert ("Proceedings", "publisher") in oc1.attrs
        assert ("Publisher", "name") in oc1.attrs
        assert ("Publisher", "name") in oc1.foreign
        assert "publisher" in oc1.own_attr_names()
        assert "name" not in oc1.own_attr_names()

    def test_key_constraint_reads_extent_and_attributes(self):
        index = ConstraintDependencyIndex(cslibrary_schema())
        cc1 = _entry(index, "Publication.cc1")  # key isbn
        assert ("Publication", "isbn") in cc1.attrs
        assert "Publication" in cc1.extents
        assert "RefereedPubl" in cc1.extents  # deep extent membership

    def test_aggregate_constraint_reads_collection(self):
        index = ConstraintDependencyIndex(cslibrary_schema())
        cc2 = _entry(index, "Publication.cc2")  # sum over ourprice < MAX
        assert ("Publication", "ourprice") in cc2.attrs
        assert "Publication" in cc2.extents

    def test_database_constraint_reads_quantified_extents(self):
        index = ConstraintDependencyIndex(bookseller_schema())
        db1 = _entry(index, "db1")  # forall p in Publisher exists i in Item
        assert "Publisher" in db1.extents
        assert "Item" in db1.extents
        assert "Proceedings" in db1.extents  # subclass membership counts
        assert ("Proceedings", "publisher") in db1.attrs

    def test_index_cached_and_rebuilt_on_schema_change(self):
        schema = cslibrary_schema()
        first = ConstraintDependencyIndex.for_schema(schema)
        assert ConstraintDependencyIndex.for_schema(schema) is first
        schema.set_constant("MAX", 123)
        rebuilt = ConstraintDependencyIndex.for_schema(schema)
        assert rebuilt is not first


class TestDeltaMatching:
    """A write shape's check plan selects the constraints whose read set
    meets what the write dirties."""

    def test_untouched_constraints_not_selected(self):
        index = ConstraintDependencyIndex(cslibrary_schema())
        plan = index.checks_for(("Publication", "title"))
        cc2 = _entry(index, "Publication.cc2")
        cc1 = _entry(index, "Publication.cc1")
        assert cc2 not in plan.classes
        assert cc1 not in plan.classes

    def test_attribute_touch_selects_reader(self):
        index = ConstraintDependencyIndex(cslibrary_schema())
        plan = index.checks_for(("RefereedPubl", "ourprice"))
        assert _entry(index, "Publication.cc2") in plan.classes

    def test_extent_touch_selects_membership_readers(self):
        index = ConstraintDependencyIndex(bookseller_schema())
        assert _entry(index, "db1") in index.checks_for("Publisher").database

    def test_foreign_touch_rechecks_the_referrers_extent(self):
        index = ConstraintDependencyIndex(bookseller_schema())
        plan = index.checks_for(("Publisher", "name"))
        assert _entry(index, "Proceedings.oc1") in plan.extents
        assert plan.own == ()

    def test_merge_accumulates_and_insert_dominates(self):
        a = MutationDelta()
        b = MutationDelta(shapes={("C", "x")}, objects={"C#1": {"x"}})
        a.shapes.add("C")
        a.objects["C#1"] = None  # inserted here: all attributes dirty
        a.merge(b)
        assert a.objects["C#1"] is None
        assert a.shapes == {"C", ("C", "x")}


class TestForeignReferenceEnforcement:
    def test_update_of_referenced_object_rechecks_referrers(self):
        """Renaming a publisher so that an existing non-refereed proceedings
        falls under the IEEE-implies-refereed rule is caught, even though the
        mutated object is the Publisher (the seed engine missed this)."""
        store, named = bookseller_store()
        store.insert(
            "Proceedings",
            title="Informal notes",
            isbn="ISBN-777",
            publisher=named["springer"],
            authors=frozenset(),
            shopprice=10.0,
            libprice=9.0,
            **{"ref?": False},
            rating=8,
        )
        with pytest.raises(ConstraintViolation, match="Proceedings.oc1"):
            store.update(named["springer"], name="IEEE")
        assert named["springer"].state["name"] == "Springer"  # rolled back

    def test_delete_violating_referential_constraint_rejected(self):
        store, named = bookseller_store()
        # Deleting a Publisher's last Item breaks db1.
        items_of_acm = [
            obj
            for obj in store.extent("Item")
            if obj.state["publisher"] == named["acm"].oid
        ]
        assert items_of_acm
        for item in items_of_acm[:-1]:
            store.delete(item)
        last = items_of_acm[-1]
        with pytest.raises(ConstraintViolation, match="db1"):
            store.delete(last)
        assert last.oid in store


class TestForeignExtentAndDanglingRefs:
    @staticmethod
    def _schema_with(constraint_source, with_ref=False):
        from repro.constraints.model import Constraint, ConstraintKind
        from repro.constraints.parser import parse_expression
        from repro.tm.schema import DatabaseSchema
        from repro.types.primitives import ClassRef, StringType

        schema = DatabaseSchema("T")
        publisher = schema.new_class("Publisher")
        publisher.add_attribute("name", StringType())
        item = schema.new_class("Item")
        if with_ref:
            item.add_attribute("publisher", ClassRef("Publisher"))
        else:
            item.add_attribute("title", StringType())
        item.add_constraint(
            Constraint(
                "oc", ConstraintKind.OBJECT, parse_expression(constraint_source)
            )
        )
        return schema

    def test_foreign_extent_membership_triggers_recheck(self):
        """An object constraint that reads only another class's *extent*
        (no attributes) must be re-checked when that extent changes."""
        schema = self._schema_with("(count (collect p for p in Publisher)) <= 1")
        store = ObjectStore(schema)
        store.insert("Publisher", name="A")
        store.insert("Item", title="t")
        with pytest.raises(ConstraintViolation, match="Item.oc"):
            store.insert("Publisher", name="B")
        assert len(store.extent("Publisher")) == 1  # rolled back

    def test_self_referencing_class_triggers_referrer_recheck(self):
        """A reference can point back into the owner's own subclass closure
        (``Manager.rep : Employee``); updating the referenced object must
        still re-check referrers."""
        from repro.constraints.model import Constraint, ConstraintKind
        from repro.constraints.parser import parse_expression
        from repro.tm.schema import DatabaseSchema
        from repro.types.primitives import ClassRef, RealType

        schema = DatabaseSchema("Firm")
        employee = schema.new_class("Employee")
        employee.add_attribute("salary", RealType())
        manager = schema.new_class("Manager", parent="Employee")
        manager.add_attribute("rep", ClassRef("Employee"))
        manager.add_constraint(
            Constraint(
                "oc1",
                ConstraintKind.OBJECT,
                parse_expression("salary >= rep.salary"),
            )
        )
        store = ObjectStore(schema)
        worker = store.insert("Employee", salary=50.0)
        store.insert("Manager", salary=60.0, rep=worker)
        with pytest.raises(ConstraintViolation, match="Manager.oc1"):
            store.update(worker, salary=100.0)
        assert worker.state["salary"] == 50.0  # rolled back
        assert store.check_all() == []

    def test_delete_creating_dangling_reference_rejected_cleanly(self):
        """Deleting an object another object's constraint dereferences must
        reject with ConstraintViolation and restore the store — not escape
        with UnknownObjectError over a mutated store."""
        schema = self._schema_with("publisher.name != 'X'", with_ref=True)
        store = ObjectStore(schema)
        publisher = store.insert("Publisher", name="Good")
        store.insert("Item", publisher=publisher)
        with pytest.raises(ConstraintViolation, match="no object with identifier"):
            store.delete(publisher)
        assert publisher.oid in store

    def test_bare_reference_read_depends_on_target_extent(self):
        """A constraint reading a reference without dereferencing any
        attribute (``publisher = publisher``) still depends on the target
        object's existence: deleting it must be rejected, not leave the
        store dangling."""
        schema = self._schema_with("publisher = publisher", with_ref=True)
        store = ObjectStore(schema)
        publisher = store.insert("Publisher", name="Good")
        store.insert("Item", publisher=publisher)
        with pytest.raises(ConstraintViolation):
            store.delete(publisher)
        assert publisher.oid in store
        assert store.check_all() == []


class TestValidationBaseline:
    def test_constraint_violated_on_empty_store_rejects_first_insert(self):
        """Even the empty store can violate a constraint (``exists``-style);
        incremental enforcement must match the full check by running a
        full pass before its first delta-driven check."""
        from repro.constraints.model import Constraint, ConstraintKind
        from repro.constraints.parser import parse_expression
        from repro.tm.schema import DatabaseSchema
        from repro.types.primitives import StringType

        schema = DatabaseSchema("S")
        a = schema.new_class("A")
        a.add_attribute("x", StringType())
        b = schema.new_class("B")
        b.add_attribute("y", StringType())
        schema.add_database_constraint(
            Constraint(
                "db1",
                ConstraintKind.DATABASE,
                parse_expression("exists q in B | q.y = q.y"),
            )
        )
        for store in (ObjectStore(schema), Oracle(schema)):
            with pytest.raises(ConstraintViolation):
                store.insert("A", x="1")
            assert len(store) == 0
        # Transactional population satisfies db1 at commit.
        store = ObjectStore(schema)
        with store.transaction():
            store.insert("B", y="ok")
            store.insert("A", x="1")
        assert len(store) == 2

    def test_index_cache_does_not_pin_schemas(self):
        import gc
        import weakref

        from repro.tm.schema import DatabaseSchema

        schema = DatabaseSchema("Ephemeral")
        schema.new_class("C")
        ConstraintDependencyIndex.for_schema(schema)
        ref = weakref.ref(schema)
        del schema
        gc.collect()
        assert ref() is None


class TestSchemaChangeFallback:
    def test_constant_rebind_inside_transaction_is_refused(self):
        """The schema cannot move under an open transaction's delta: the
        adopted value is frozen and the store refuses a change until the
        transaction ends, so the commit validates under the schema it
        started with."""
        schema = cslibrary_schema()
        store = ObjectStore(schema)
        obj = store.insert(
            "Publication",
            title="A",
            isbn="1",
            publisher="ACM",
            shopprice=60.0,
            ourprice=60.0,
        )
        with store.transaction():
            with pytest.raises(SchemaError):
                schema.set_constant("MAX", 50)
            with pytest.raises(EngineError):
                store.set_constant("MAX", 50)
            store.update(obj, title="A, renamed")
        assert store.schema is schema
        assert schema.constants["MAX"] == 100000
        assert obj.state["title"] == "A, renamed"

    def test_constant_rebind_before_transaction_falls_back_to_full(self):
        """A rebind *between* transactions can invalidate constraints with
        no data delta at all; the next commit must revalidate fully, exactly
        as the full check would."""
        schema = cslibrary_schema()
        store = ObjectStore(schema)
        obj = store.insert(
            "Publication",
            title="A",
            isbn="1",
            publisher="ACM",
            shopprice=60.0,
            ourprice=60.0,
        )
        store.set_constant("MAX", 50)  # existing extent now violates cc2
        with pytest.raises(ConstraintViolation, match="cc2"):
            with store.transaction():
                store.update(obj, title="A, renamed")  # delta misses cc2
        assert obj.state["title"] == "A"
        # Per-operation enforcement falls back the same way.
        with pytest.raises(ConstraintViolation, match="cc2"):
            store.update(obj, title="A, renamed")
        # After the schema is repaired, a clean full pass re-baselines and
        # incremental validation resumes.
        store.set_constant("MAX", 100000)
        assert store.check_all() == []
        store.update(obj, title="A, renamed")
        assert obj.state["title"] == "A, renamed"


class TestIncrementalOracleEquivalence:
    """The acceptance property: delta-driven commit validation accepts and
    rejects exactly the same transactions as the full-check oracle."""

    PUBLISHERS = ("ACM", "IEEE", "Springer", "Nowhere Press")

    @staticmethod
    def _fresh_store(factory):
        schema = cslibrary_schema()
        schema.set_constant("MAX", 400)  # low ceiling: aggregates can trip
        store = factory(schema)
        store.insert(
            "Publication",
            title="seed",
            isbn="seed-isbn",
            publisher="ACM",
            shopprice=90.0,
            ourprice=80.0,
        )
        return store

    @classmethod
    def _apply(cls, store, ops):
        """Run ``ops`` inside one transaction; returns the violation message
        or None on acceptance."""
        try:
            with store.transaction():
                for kind, a, b, c in ops:
                    extent = store.extent("Publication")
                    if kind == "insert":
                        store.insert(
                            "Publication",
                            title=f"t{a}",
                            isbn=f"isbn-{a}",
                            publisher=cls.PUBLISHERS[b % len(cls.PUBLISHERS)],
                            shopprice=float(c),
                            ourprice=float(c - 5 + (a % 11)),
                        )
                    elif kind == "update" and extent:
                        store.update(
                            extent[a % len(extent)],
                            ourprice=float(c),
                            isbn=f"isbn-{b % 6}",
                        )
                    elif kind == "delete" and extent:
                        store.delete(extent[a % len(extent)])
        except ConstraintViolation:
            return "rejected"
        return None

    @staticmethod
    def _snapshot(store):
        return {
            oid: (obj.class_name, dict(obj.state))
            for oid, obj in ((o.oid, o) for o in store.objects())
        }

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=10, max_value=120),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_commit_verdicts_and_states_match(self, ops):
        incremental = self._fresh_store(ObjectStore)
        full = self._fresh_store(Oracle)
        verdict_incremental = self._apply(incremental, ops)
        verdict_full = self._apply(full, ops)
        assert verdict_incremental == verdict_full
        assert self._snapshot(incremental) == self._snapshot(full)

    def test_referential_equivalence(self):
        """Same accept/reject behaviour on the reference-heavy bookseller
        schema, where db1 couples Publisher and Item extents, whether the
        check is delta-driven or — after a constant rebind leaves no
        validated baseline — the full revalidation fallback."""
        for rebind in (False, True):
            store, _ = bookseller_store()
            if rebind:
                store.set_constant("PROBE", 1)
            with pytest.raises(ConstraintViolation) as info:
                store.insert("Publisher", name="Lonely", location="Nowhere")
            exc = info.value
            assert "Bookseller.db1" in exc.constraint_names
            if rebind:
                assert exc.constraint_name == "full revalidation"
                assert [v.constraint_name for v in exc.violations] == ["Bookseller.db1"]
                assert [core.constraint_name for core in exc.cores] == ["Bookseller.db1"]
            with pytest.raises(ConstraintViolation):
                with store.transaction():
                    store.insert(
                        "Publisher", name="Lonely", location="Nowhere"
                    )
            with store.transaction():
                publisher = store.insert(
                    "Publisher", name="Morgan", location="SF"
                )
                store.insert(
                    "Monograph",
                    title="New readings",
                    isbn=f"ISBN-90{int(rebind)}",
                    publisher=publisher,
                    authors=frozenset(),
                    shopprice=20.0,
                    libprice=18.0,
                    subjects=frozenset(),
                )
            assert len(store.extent("Publisher", deep=False)) == 4
