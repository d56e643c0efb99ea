"""The ``analyze=`` store flag: registration-time rejection and the proof
that redundancy pruning plus the per-write-shape check plans never change
an enforcement verdict.

The equivalence property is the acceptance bar of the static-analysis
subsystem: for any operation sequence, a store opened with ``analyze=True``
(pruned hot path) and a plain store (full walk) accept and reject *exactly*
the same operations and end in identical states — in memory and WAL-backed.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.analysis import prunable_constraints
from repro.engine.incremental import (
    CheckPlan,
    ConstraintDependencyIndex,
    MutationDelta,
    _checks,
)
from repro.engine.store import ObjectStore
from repro.errors import ConstraintViolation, SchemaError
from repro.tm.parser import parse_database

_CONTRADICTORY = (
    "Database Broken\n"
    "Class Widget\n"
    "  attributes\n"
    "    size : int\n"
    "  object constraints\n"
    "    oc1 : size > 10 and size < 5\n"
    "end Widget\n"
)

_REDUNDANT = (
    "Database Demo\n"
    "Class Widget\n"
    "  attributes\n"
    "    size : int\n"
    "    label : string\n"
    "  object constraints\n"
    "    oc1 : size >= 3\n"
    "    oc2 : size >= 2\n"
    "    oc3 : size <= 90\n"
    "end Widget\n"
)


class TestAnalyzeRegistration:
    def test_contradictory_schema_rejected_with_position(self):
        with pytest.raises(SchemaError) as excinfo:
            ObjectStore(parse_database(_CONTRADICTORY), analyze=True)
        message = str(excinfo.value)
        assert "static analysis rejected the schema" in message
        assert "Broken.Widget.oc1" in message
        assert "line 6" in message

    def test_default_store_stays_permissive(self):
        store = ObjectStore(parse_database(_CONTRADICTORY))
        with pytest.raises(ConstraintViolation):
            store.insert("Widget", size=7)

    def test_warnings_do_not_block_registration(self):
        store = ObjectStore(parse_database(_REDUNDANT), analyze=True)
        assert store.analyze is True
        store.insert("Widget", size=5, label="ok")

    def test_open_threads_the_flag(self, tmp_path):
        store = ObjectStore.open(
            tmp_path / "s", parse_database(_REDUNDANT), analyze=True
        )
        try:
            assert store.analyze is True
        finally:
            store.close()
        reopened = ObjectStore.open(tmp_path / "s")
        try:
            assert reopened.analyze is False
        finally:
            reopened.close()

    def test_open_rejects_contradictory_schema(self, tmp_path):
        with pytest.raises(SchemaError):
            ObjectStore.open(
                tmp_path / "bad", parse_database(_CONTRADICTORY), analyze=True
            )


class TestDispatchTables:
    """The check plans of ``Widget``'s write shapes: an insert plans every
    effective object constraint, an update only the attribute's readers,
    and an ``analyze=True`` store's plans leave the pruned one out."""

    def test_single_attribute_update_narrows_the_checks(self):
        schema = parse_database(_REDUNDANT)
        index = ConstraintDependencyIndex(schema)
        insert_names = [e.constraint.name for e in index.checks_for("Widget").own]
        assert insert_names == ["oc1", "oc2", "oc3"]
        size_names = [
            e.constraint.name for e in index.checks_for(("Widget", "size")).own
        ]
        assert size_names == ["oc1", "oc2", "oc3"]
        # No constraint reads label: its plan is empty.
        assert index.checks_for(("Widget", "label")) == CheckPlan()

    def test_multi_attribute_update_unions_the_patterns(self):
        store = ObjectStore(parse_database(_REDUNDANT))
        widget = store.insert("Widget", size=5, label="a")
        delta = MutationDelta()
        delta.record_update(widget, {"size", "label"})
        names = [entry.constraint.name for entry, _obj, _owner in _checks(store, delta)]
        assert names == ["oc1", "oc2", "oc3"]

    def test_an_analyze_store_plans_without_the_pruned_constraint(self):
        store = ObjectStore(parse_database(_REDUNDANT), analyze=True)
        index = store.dependency_index()
        names = [e.constraint.name for e in index.checks_for("Widget", store).own]
        assert names == ["oc1", "oc3"]
        assert index.checks_for("Widget", store) is index.checks_for("Widget", store)

    def test_pruned_constraints_cached_on_the_index(self):
        schema = parse_database(_REDUNDANT)
        index = ConstraintDependencyIndex(schema)
        pruned = index.pruned_constraints()
        assert {c.qualified_name for c in pruned} == {"Demo.Widget.oc2"}
        assert index.pruned_constraints() is pruned  # cached

    def test_pruned_set_matches_the_analysis_pass(self):
        schema = parse_database(_REDUNDANT)
        index = ConstraintDependencyIndex(schema)
        assert index.pruned_constraints() == frozenset(
            prunable_constraints(schema)
        )


# ---------------------------------------------------------------------------
# equivalence: pruned hot path ≡ full walk, for any operation sequence
# ---------------------------------------------------------------------------

_op_strategy = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(min_value=0, max_value=100),
        st.sampled_from(["a", "b", "c"]),
    ),
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=9),  # slot of an earlier insert
        st.integers(min_value=0, max_value=100),
    ),
    st.tuples(
        st.just("update_label"),
        st.integers(min_value=0, max_value=9),
        st.sampled_from(["a", "b", "c"]),
    ),
    st.tuples(
        st.just("delete"),
        st.integers(min_value=0, max_value=9),
        st.just(None),
    ),
)


def _apply(store: ObjectStore, operations) -> tuple[list[str], list[tuple]]:
    """Run the sequence, returning (verdicts, final sorted states)."""
    verdicts: list[str] = []
    oids: list[str] = []
    for op, first, second in operations:
        try:
            if op == "insert":
                obj = store.insert("Widget", size=first, label=second)
                oids.append(obj.oid)
                verdicts.append("ok")
            elif op in ("update", "update_label") and oids:
                target = oids[first % len(oids)]
                if op == "update":
                    store.update(target, size=second)
                else:
                    store.update(target, label=second)
                verdicts.append("ok")
            elif op == "delete" and oids:
                store.delete(oids.pop(first % len(oids)))
                verdicts.append("ok")
            else:
                verdicts.append("skip")
        except ConstraintViolation as exc:
            # The rejecting constraint's name is part of the verdict: pruning
            # must not even change *which* constraint fires first.
            named = re.search(r"Demo\.Widget\.oc\d+", str(exc))
            verdicts.append(f"reject:{named.group(0) if named else exc}")
    states = sorted(
        (obj.state["size"], obj.state["label"]) for obj in store.extent("Widget")
    )
    return verdicts, states


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_op_strategy, min_size=1, max_size=12))
    def test_pruned_store_is_bit_identical_to_plain_store(self, operations):
        schema_a = parse_database(_REDUNDANT)
        schema_b = parse_database(_REDUNDANT)
        plain = ObjectStore(schema_a)
        pruned = ObjectStore(schema_b, analyze=True)
        assert _apply(plain, operations) == _apply(pruned, operations)

    @settings(max_examples=15, deadline=None)
    @given(operations=st.lists(_op_strategy, min_size=1, max_size=8))
    def test_equivalence_holds_wal_backed(self, operations, tmp_path_factory):
        base = tmp_path_factory.mktemp("equiv")
        plain = ObjectStore.open(base / "plain", parse_database(_REDUNDANT))
        pruned = ObjectStore.open(
            base / "pruned", parse_database(_REDUNDANT), analyze=True
        )
        try:
            assert _apply(plain, operations) == _apply(pruned, operations)
        finally:
            plain.close()
            pruned.close()

    def test_audit_never_uses_the_pruned_path(self):
        # Force a state that violates only the *pruned* constraint (possible
        # only by bypassing enforcement) — audits must still convict it.
        schema = parse_database(_REDUNDANT)
        store = ObjectStore(schema, analyze=True, enforce=False)
        store.insert("Widget", size=2, label="x")  # violates oc1, not oc2
        violations = store.check_all()
        assert any("oc1" in v for v in violations)

    def test_pruned_constraint_rejection_comes_from_keeper(self):
        plain = ObjectStore(parse_database(_REDUNDANT))
        pruned = ObjectStore(parse_database(_REDUNDANT), analyze=True)
        for store in (plain, pruned):
            with pytest.raises(ConstraintViolation, match="Demo.Widget.oc1"):
                store.insert("Widget", size=1, label="x")
