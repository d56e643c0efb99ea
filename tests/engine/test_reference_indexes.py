"""Tests for the reference-count index (repro.engine.indexes.ReferenceIndex).

The acceptance properties mirror ``test_indexes.py``: after *any* sequence of
inserts, updates, deletes, rollbacks and schema rebinds, every reference
index agrees with a from-scratch naive scan, and the delta-driven validator
with reference indexes accepts/rejects exactly the transactions the naive
full-check :class:`~repro.engine.oracle.Oracle` accepts/rejects for
quantified/referential constraints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObjectStore
from repro.constraints.evaluate import INDEX_MISS
from repro.engine.indexes import ReferenceIndex
from repro.engine.oracle import Oracle
from repro.errors import ConstraintViolation
from repro.tm.parser import parse_database

REFLAB_SOURCE = """
Database RefLab

Class Publisher
attributes
  name : string
end Publisher

Class Item
attributes
  title     : string
  publisher : Publisher
end Item

Class Special isa Item
attributes
  grade : int
end Special

Database constraints
  db_all: forall p in Publisher exists i in Item | i.publisher = p
"""

REFNONE_SOURCE = """
Database RefNone

Class Publisher
attributes
  name : string
end Publisher

Class Item
attributes
  title     : string
  publisher : Publisher
end Item

Database constraints
  db_none: forall p in Publisher (not (exists i in Item | i.publisher = p))
"""


def reflab_schema():
    return parse_database(REFLAB_SOURCE)


class _Abort(Exception):
    """Raised inside a transaction to force a rollback."""


# ---------------------------------------------------------------------------
# naive ground truth
# ---------------------------------------------------------------------------


def assert_reference_indexes_match_naive_scan(store: ObjectStore) -> None:
    """Every reference index must agree with a from-scratch scan."""
    manager = store._indexes
    assert manager is not None
    schema = store.schema
    live = list(store._objects.values())

    assert manager._references, "expected registered reference indexes"
    for (referrer, attribute), reference in manager._references.items():
        assert reference.valid
        tally: dict[str, int] = {}
        for obj in live:
            if schema.is_subclass_of(obj.class_name, referrer):
                value = obj.state[attribute]
                tally[value] = tally.get(value, 0) + 1
        assert reference._counts == tally
        alive = sum(1 for oid in tally if oid in store._objects)
        assert reference._live_with_ref == alive
        assert reference._dangling == len(tally) - alive
        if reference._dangling:
            continue  # probes degrade below; scan owns the semantics
        for obj in live:
            assert (
                manager.reference_count(referrer, attribute, obj.oid)
                == tally.get(obj.oid, 0)
            )
        referenced = reference.referenced_class
        members = [
            obj for obj in live
            if schema.is_subclass_of(obj.class_name, referenced)
        ]
        expected_all = all(tally.get(obj.oid, 0) > 0 for obj in members)
        expected_any = any(tally.get(obj.oid, 0) > 0 for obj in members)
        assert (
            manager.referential_verdict("all", referenced, referrer, attribute)
            is expected_all
        )
        assert (
            manager.referential_verdict("any", referenced, referrer, attribute)
            is expected_any
        )
        assert (
            manager.referential_verdict("none", referenced, referrer, attribute)
            is (not expected_any)
        )


# ---------------------------------------------------------------------------
# op interpreter shared by the property tests
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "pair_commit",
                "insert_item",
                "insert_special",
                "retarget",
                "delete_item",
                "delete_publisher",
                "retire_commit",
                "txn_abort",
                "rebind",
            ]
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=8,
)


def _apply_one(
    store: ObjectStore,
    kind: str,
    a: int,
    b: int,
    c: int,
    on_reject=None,
) -> str | None:
    """Run one op; returns ``"rejected"`` when enforcement refused it.

    ``on_reject`` receives the :class:`ConstraintViolation` itself, for
    tests that compare *what* was rejected (constraint names, traces,
    cores) and not just the verdict."""
    try:
        if kind == "pair_commit":
            with store.transaction():
                publisher = store.insert("Publisher", name=f"P{c % 7}")
                store.insert("Item", title=f"t{b}", publisher=publisher)
        elif kind == "insert_item":
            publishers = store.extent("Publisher")
            if not publishers:
                return None
            store.insert(
                "Item", title=f"t{b}", publisher=publishers[a % len(publishers)]
            )
        elif kind == "insert_special":
            publishers = store.extent("Publisher")
            if not publishers:
                return None
            store.insert(
                "Special",
                title=f"s{b}",
                publisher=publishers[a % len(publishers)],
                grade=c % 5,
            )
        elif kind == "retarget":
            publishers = store.extent("Publisher")
            items = store.extent("Item")
            if not publishers or not items:
                return None
            store.update(
                items[a % len(items)], publisher=publishers[b % len(publishers)]
            )
        elif kind == "delete_item":
            items = store.extent("Item")
            if not items:
                return None
            store.delete(items[a % len(items)])
        elif kind == "delete_publisher":
            publishers = store.extent("Publisher")
            if not publishers:
                return None
            store.delete(publishers[a % len(publishers)])
        elif kind == "retire_commit":
            publishers = store.extent("Publisher")
            if not publishers:
                return None
            target = publishers[a % len(publishers)]
            with store.transaction():
                for item in store.extent("Item"):
                    if item.state["publisher"] == target.oid:
                        store.delete(item)
                store.delete(target)
        elif kind == "txn_abort":
            try:
                with store.transaction():
                    publisher = store.insert("Publisher", name=f"P{c % 7}")
                    store.insert("Item", title=f"t{b}", publisher=publisher)
                    items = store.extent("Item")
                    store.delete(items[a % len(items)])
                    raise _Abort()
            except _Abort:
                pass
        else:  # rebind: schema change with no data delta → rebuild path
            store.set_constant("TUNING", c)
    except ConstraintViolation as exc:
        if on_reject is not None:
            on_reject(exc)
        return "rejected"
    return None


def _implicated_names(exc: ConstraintViolation) -> frozenset:
    """The constraint names a rejection implicates — from the structured
    violation list when present (bulk revalidation / transactions), else
    the single rejecting constraint's name."""
    if exc.violations:
        return frozenset(v.constraint_name for v in exc.violations)
    return frozenset({exc.constraint_name})


class TestReferenceIndexesMatchNaiveScans:
    """After any random history the maintained referrer counts, live totals
    and dangling totals agree with a from-scratch scan of the raw store."""

    @given(ops=OPS)
    @settings(max_examples=100, deadline=None)
    def test_random_histories(self, ops):
        store = ObjectStore(reflab_schema())
        for kind, a, b, c in ops:
            _apply_one(store, kind, a, b, c)
            assert_reference_indexes_match_naive_scan(store)


class TestIncrementalMatchesOracle:
    """Acceptance property: the delta-driven validator with reference
    indexes accepts/rejects identical transactions to the full-check
    oracle, and leaves identical states behind — rollback-resurrection and
    schema-rebind histories included."""

    @staticmethod
    def _snapshot(store):
        return {
            obj.oid: (obj.class_name, dict(obj.state))
            for obj in store.objects()
        }

    @given(ops=OPS)
    @settings(max_examples=100, deadline=None)
    def test_verdicts_and_states_match(self, ops):
        fast = ObjectStore(reflab_schema())
        full = Oracle(reflab_schema())
        for kind, a, b, c in ops:
            verdict_fast = _apply_one(fast, kind, a, b, c)
            verdict_full = _apply_one(full, kind, a, b, c)
            assert verdict_fast == verdict_full
            assert self._snapshot(fast) == self._snapshot(full)
        assert_reference_indexes_match_naive_scan(fast)

    def test_rollback_resurrection_restores_reference_indexes(self):
        store = ObjectStore(reflab_schema())
        with store.transaction():
            acm = store.insert("Publisher", name="ACM")
            store.insert("Item", title="a", publisher=acm)
            store.insert("Special", title="b", publisher=acm, grade=3)
        before = self._snapshot(store)
        with pytest.raises(_Abort):
            with store.transaction():
                for item in list(store.extent("Item")):
                    store.delete(item)
                store.delete(acm)
                replacement = store.insert("Publisher", name="Elsevier")
                store.insert("Item", title="c", publisher=replacement)
                raise _Abort()
        assert self._snapshot(store) == before
        assert_reference_indexes_match_naive_scan(store)
        assert store._indexes.reference_count("Item", "publisher", acm.oid) == 2

    def test_schema_rebind_triggers_rebuild_and_keeps_counts(self):
        schema = reflab_schema()
        store = ObjectStore(schema)
        with store.transaction():
            acm = store.insert("Publisher", name="ACM")
            store.insert("Item", title="a", publisher=acm)
        rebuilds = store._indexes.rebuilds
        store.set_constant("TUNING", 7)
        assert store._indexes.rebuilds == rebuilds + 1
        store.insert("Item", title="b", publisher=acm)
        assert store._indexes.rebuilds == rebuilds + 1
        assert_reference_indexes_match_naive_scan(store)
        assert store._indexes.reference_count("Item", "publisher", acm.oid) == 2


class TestExplanationsAgreeWithOracle:
    """Differential acceptance property for explainable violations: the
    delta-driven indexed store and the scan-only oracle agree not only on
    the violation *set* of a full audit but on the subset-minimal conflict
    cores explaining it, and rejected operations implicate the same
    constraints on both."""

    @staticmethod
    def _core_set(store, violations):
        return frozenset(
            (core.constraint_name, frozenset(core.oids()))
            for core in store.explain_violations(violations)
        )

    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_audits_and_cores_agree(self, ops):
        fast = ObjectStore(reflab_schema(), enforce=False)
        slow = Oracle(reflab_schema(), enforce=False)
        for kind, a, b, c in ops:
            _apply_one(fast, kind, a, b, c)
            _apply_one(slow, kind, a, b, c)
        violations_fast = fast.audit()
        violations_slow = slow.audit()
        # Violation equality is (constraint_name, detail) — list order and
        # content must match between the indexed store and the oracle
        assert violations_fast == violations_slow
        assert self._core_set(fast, violations_fast) == self._core_set(
            slow, violations_slow
        )

    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_rejections_implicate_the_same_constraints(self, ops):
        fast = ObjectStore(reflab_schema())
        full = Oracle(reflab_schema())
        for kind, a, b, c in ops:
            fast_excs: list = []
            full_excs: list = []
            verdict_fast = _apply_one(fast, kind, a, b, c, fast_excs.append)
            verdict_full = _apply_one(full, kind, a, b, c, full_excs.append)
            assert verdict_fast == verdict_full
            if verdict_fast == "rejected":
                # the incremental path raises on the first failing
                # constraint, the oracle lists every violation — they
                # must overlap on at least one implicated constraint
                names_fast = _implicated_names(fast_excs[0])
                names_full = _implicated_names(full_excs[0])
                assert names_fast & names_full, (
                    f"disjoint rejection reasons: "
                    f"{sorted(names_fast)} vs {sorted(names_full)}"
                )


class TestProbeSemantics:
    def test_registration_from_dependency_index(self):
        store = ObjectStore(reflab_schema())
        assert store.dependency_index().reference_specs() == frozenset(
            {("Item", "publisher", "Publisher")}
        )
        reference = store._indexes._references[("Item", "publisher")]
        assert reference.referenced_class == "Publisher"

    def test_non_reference_equality_is_not_registered(self):
        source = """
        Database Plain

        Class Tag
        attributes
          label : string
        end Tag

        Class Post
        attributes
          label : string
        end Post

        Database constraints
          db1: forall t in Tag exists p in Post | p.label = t.label
        """
        store = ObjectStore(parse_database(source), enforce=False)
        assert store.dependency_index().reference_specs() == frozenset()
        assert store._indexes._references == {}

    def test_unreferenced_publisher_rejected_via_probe(self):
        store = ObjectStore(reflab_schema())
        with store.transaction():
            acm = store.insert("Publisher", name="ACM")
            store.insert("Item", title="a", publisher=acm)
        with pytest.raises(ConstraintViolation, match="db_all"):
            store.insert("Publisher", name="Ghost")
        assert len(store.extent("Publisher")) == 1

    def test_forall_not_exists_uses_none_verdict(self):
        store = ObjectStore(parse_database(REFNONE_SOURCE))
        store.insert("Publisher", name="ACM")
        manager = store._indexes
        assert (
            manager.referential_verdict("none", "Publisher", "Item", "publisher")
            is True
        )
        with pytest.raises(ConstraintViolation, match="db_none"):
            store.insert(
                "Item", title="a", publisher=store.extent("Publisher")[0]
            )
        assert store.extent("Item") == []

    def test_inner_exists_probe_serves_bound_targets(self, monkeypatch):
        """`exists i in Item | i.publisher = s.publisher` has no whole-formula
        verdict (the compared side is a dotted path), so the per-binding
        referrer-count probe must answer each outer iteration in O(1)."""
        source = REFLAB_SOURCE.replace(
            "db_all: forall p in Publisher exists i in Item | i.publisher = p",
            "db_all: forall p in Publisher exists i in Item | i.publisher = p\n"
            "  db_special: forall s in Special exists i in Item"
            " | i.publisher = s.publisher",
        )
        store = ObjectStore(parse_database(source))
        with store.transaction():
            acm = store.insert("Publisher", name="ACM")
            store.insert("Item", title="a", publisher=acm)
        manager = store._indexes
        calls = []
        original = manager.reference_count

        def spy(referrer, attribute, oid):
            calls.append((referrer, attribute, oid))
            return original(referrer, attribute, oid)

        monkeypatch.setattr(manager, "reference_count", spy)
        store.insert("Special", title="s", publisher=acm, grade=3)
        assert ("Item", "publisher", acm.oid) in calls

    def test_shadowed_quantifier_variable_stays_on_scan_path(self):
        """Regression: in ``forall y in C exists y in D | y.ref = y`` the
        inner ``y`` shadows the outer, so the body compares each D member to
        *itself* — a self-reference check, not the referenced-by pattern.
        The fast path must refuse the match; misreading it made an indexed
        store accept states the full check rejects."""
        source = """
        Database Shadow

        Class C
        attributes
          name : string
        end C

        Class D isa C
        attributes
          ref : C
        end D

        Database constraints
          db_self: forall y in C exists y in D | y.ref = y
        """
        from repro.constraints.ast import match_referential_quantifier

        schema = parse_database(source)
        assert (
            match_referential_quantifier(schema.database_constraints[0].formula)
            is None
        )
        reports = []
        for store in (
            ObjectStore(parse_database(source), enforce=False),
            Oracle(parse_database(source), enforce=False),
        ):
            # A two-cycle d1 ↔ d2: every C member referenced by *some* D
            # (which the misread pattern would accept) but no D references
            # itself (so the true, shadowed reading is violated).
            seed = store.insert("C", name="seed")
            d1 = store.insert("D", name="d1", ref=seed)
            d2 = store.insert("D", name="d2", ref=d1)
            store.update(d1, ref=d2)
            store.delete(seed)
            if isinstance(store, ObjectStore):
                assert store.dependency_index().reference_specs() == frozenset()
            reports.append(store.check_all())
        assert reports[0] == reports[1]
        assert reports[0], "the shadowed self-reference constraint is violated"

    def test_dangling_reference_degrades_to_scan(self):
        """An unenforced store can hold dangling references; the probes must
        answer INDEX_MISS (the scan alone reproduces dereference errors) and
        the store's full audit must agree with the oracle's."""
        reports = []
        for store in (
            ObjectStore(reflab_schema(), enforce=False),
            Oracle(reflab_schema(), enforce=False),
        ):
            acm = store.insert("Publisher", name="ACM")
            store.insert("Item", title="a", publisher=acm)
            store.delete(acm)  # leaves the item dangling
            if isinstance(store, ObjectStore):
                manager = store._indexes
                assert (
                    manager.reference_count("Item", "publisher", acm.oid)
                    is INDEX_MISS
                )
                assert (
                    manager.referential_verdict(
                        "all", "Publisher", "Item", "publisher"
                    )
                    is INDEX_MISS
                )
            reports.append(store.check_all())
        assert reports[0] == reports[1]


class TestReferenceIndexStructure:
    def test_transitions_through_delete_and_resurrection(self):
        alive: set[str] = set()
        reference = ReferenceIndex(
            "Item", "publisher", "Publisher", alive.__contains__
        )
        alive.add("Publisher#1")
        reference.add_referrer("Publisher#1")
        reference.add_referrer("Publisher#1")
        assert reference.count_for("Publisher#1") == 2
        assert reference.verdict("all", 1) is True
        assert reference.verdict("none", 1) is False
        # the referenced object leaves: its referrers dangle, probes degrade
        alive.discard("Publisher#1")
        reference.leave("Publisher#1")
        assert reference.count_for("Publisher#1") is INDEX_MISS
        assert reference.verdict("all", 0) is INDEX_MISS
        # resurrection restores the O(1) answers
        alive.add("Publisher#1")
        reference.join("Publisher#1")
        assert reference.count_for("Publisher#1") == 2
        reference.remove_referrer("Publisher#1")
        reference.remove_referrer("Publisher#1")
        assert reference.count_for("Publisher#1") == 0
        assert reference.verdict("any", 1) is False
        assert reference.verdict("none", 1) is True

    def test_invalidates_on_unmaintainable_values(self):
        reference = ReferenceIndex("Item", "publisher", "Publisher", lambda oid: True)
        reference.add_referrer(None)  # a reference slot must hold an oid
        assert not reference.valid
        assert reference.count_for("Publisher#1") is INDEX_MISS
        assert reference.verdict("all", 0) is INDEX_MISS

    def test_invalidates_on_removal_never_added(self):
        reference = ReferenceIndex("Item", "publisher", "Publisher", lambda oid: True)
        reference.remove_referrer("Publisher#1")
        assert not reference.valid
