"""Sharding tests: placement, classification, equivalence, and 2PC recovery.

The tentpole property: a :class:`~repro.engine.sharding.ShardedStore` is
*observably identical* to a plain :class:`~repro.engine.store.ObjectStore`
— for arbitrary operation histories the two accept and reject the same
operations (naming the same constraints), hold the same objects, and audit
to the same verdicts, at every shard count.  Sharding may only change
*where* work happens, never *what* the store does.

The durable half extends the crash matrix of ``test_faults.py`` per shard:
a fault injector targeting one shard's files must never break cross-shard
atomicity — after recovery a two-phase transaction is either applied on
every shard or on none (presumed abort), and the merged store audits
clean.
"""

import json
import os
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ObjectStore, ShardedStore, plan_placement
from repro.engine.faults import FaultInjector, FaultSpec, SimulatedCrash
from repro.engine.incremental import (
    SHARD_GLOBAL,
    SHARD_LOCAL,
    SHARD_MERGEABLE,
    classify_constraints,
    shard_scopes,
)
from repro.engine.indexes import oid_shard, oid_sort_key
from repro.engine.sharding import MANIFEST_NAME, shard_directory
from repro.engine.wal import LOG_NAME, encode_state, fsck, scan_log
from repro.errors import ConstraintViolation, EngineError, ShardingError
from repro.fixtures import bookseller_schema
from repro.tm import parse_database

#: Everything an injected fault can surface as at the API boundary
#: (mirrors ``test_faults.FAULT_EXCEPTIONS``).
FAULT_EXCEPTIONS = (OSError, EngineError, SimulatedCrash)

#: Three reference-free class groups: Alpha and Beta pin to (possibly
#: different) shards, Gauge is a spread candidate.  ``cc_sum`` is
#: shard-local once Alpha is pinned; spreading Gauge makes ``cc_gauge``
#: a mergeable cross-shard aggregate.
SHARDLAB_SOURCE = """
Database ShardLab

constants
  CAP = 1000

Class Alpha
attributes
  name  : string
  score : int
object constraints
  oc_a: score >= 0
class constraints
  cc_key: key name
  cc_sum: (sum (collect x for x in self) over score) < CAP
end Alpha

Class Beta
attributes
  label : string
  value : int
object constraints
  oc_b: value >= 0
end Beta

Class Gauge
attributes
  reading : int
object constraints
  oc_g: reading >= 0
class constraints
  cc_gauge: (sum (collect g for g in self) over reading) < CAP
end Gauge
"""

#: Two unconnected groups coupled only by a quantified database
#: constraint with no covering summary — the global tier.
CROSSDB_SOURCE = """
Database CrossDB

Class Left
attributes
  tag : int
end Left

Class Right
attributes
  tag : int
end Right

Database constraints
  db_cover: forall l in Left exists r in Right | r.tag = l.tag
"""


#: One real-valued class under a sum and an avg constraint: spread, both
#: are mergeable aggregates the router answers from per-core partials.
FLOATLAB_SOURCE = """
Database FloatLab

constants
  CAP = 2

Class Meter
attributes
  level : real
class constraints
  cc_sum: (sum (collect m for m in self) over level) < CAP
  cc_avg: (avg (collect m for m in self) over level) < CAP
end Meter
"""


def shardlab_schema():
    return parse_database(SHARDLAB_SOURCE)


def crossdb_schema():
    return parse_database(CROSSDB_SOURCE)


# ---------------------------------------------------------------------------
# oid helpers
# ---------------------------------------------------------------------------


class TestOidHelpers:
    def test_oid_shard_parses_namespace(self):
        assert oid_shard("Alpha#3.7") == 3
        assert oid_shard("Alpha#7") is None
        assert oid_shard("Alpha#x.7") is None
        assert oid_shard("bogus") is None

    def test_numeric_shard_ordering(self):
        # Shard 10 must sort after shard 2 at the same counter — a string
        # comparison of "10" < "2" would invert round-robin spread order.
        oids = ["G#10.1", "G#2.1", "G#0.2", "G#1.1", "G#0.1"]
        assert sorted(oids, key=oid_sort_key) == [
            "G#0.1",
            "G#1.1",
            "G#2.1",
            "G#10.1",
            "G#0.2",
        ]

    def test_plain_oids_sort_before_sharded_at_same_counter(self):
        assert sorted(["A#0.1", "A#1"], key=oid_sort_key) == ["A#1", "A#0.1"]


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_groups_round_robin(self):
        placement = plan_placement(shardlab_schema(), 2)
        # Three singleton groups in declaration order: Alpha, Beta, Gauge.
        assert placement == {"Alpha": 0, "Beta": 1, "Gauge": 0}

    def test_reference_edges_co_locate(self):
        placement = plan_placement(bookseller_schema(), 4)
        # Item/Proceedings/Monograph reference Publisher: one group.
        assert len(set(placement.values())) == 1

    def test_inheritance_co_locates(self):
        placement = plan_placement(bookseller_schema(), 4)
        assert placement["Item"] == placement["Proceedings"]
        assert placement["Item"] == placement["Monograph"]

    def test_spread_class_is_unplaced(self):
        placement = plan_placement(shardlab_schema(), 4, spread=("Gauge",))
        assert "Gauge" not in placement
        assert set(placement) == {"Alpha", "Beta"}

    def test_spread_class_with_references_is_rejected(self):
        with pytest.raises(ShardingError, match="spread"):
            plan_placement(bookseller_schema(), 2, spread=("Item",))

    def test_spread_referenced_class_is_rejected(self):
        with pytest.raises(ShardingError, match="spread"):
            plan_placement(bookseller_schema(), 2, spread=("Publisher",))

    def test_spread_unknown_class_is_rejected(self):
        with pytest.raises(ShardingError):
            plan_placement(shardlab_schema(), 2, spread=("Nope",))

    def test_existing_seed_is_respected(self):
        placement = plan_placement(
            shardlab_schema(), 4, existing={"Alpha": 3, "Beta": 1}
        )
        assert placement["Alpha"] == 3
        assert placement["Beta"] == 1
        assert placement["Gauge"] in range(4)

    def test_existing_out_of_range_is_rejected(self):
        with pytest.raises(ShardingError):
            plan_placement(shardlab_schema(), 2, existing={"Alpha": 5})

    def test_existing_splitting_a_group_is_rejected(self):
        with pytest.raises(ShardingError):
            plan_placement(
                bookseller_schema(), 2, existing={"Item": 0, "Publisher": 1}
            )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _plans_by_name(schema, placement, spread=frozenset()):
    from repro.engine.incremental import ConstraintDependencyIndex

    index = ConstraintDependencyIndex.for_schema(schema)
    plans = classify_constraints(index, placement, spread)
    return {plan.constraint.qualified_name: plan for plan in plans}


class TestClassification:
    def test_pinned_layout_is_all_local(self):
        schema = shardlab_schema()
        placement = plan_placement(schema, 2)
        plans = _plans_by_name(schema, placement)
        assert all(plan.tier == SHARD_LOCAL for plan in plans.values())
        assert plans["ShardLab.Alpha.cc_sum"].shard == placement["Alpha"]
        assert plans["ShardLab.Gauge.cc_gauge"].shard == placement["Gauge"]

    def test_object_constraints_are_anywhere_local(self):
        schema = shardlab_schema()
        plans = _plans_by_name(
            schema, plan_placement(schema, 4, spread=("Gauge",)), {"Gauge"}
        )
        # Reads only the constrained object: local with no pinned shard.
        assert plans["ShardLab.Gauge.oc_g"].tier == SHARD_LOCAL
        assert plans["ShardLab.Gauge.oc_g"].shard is None

    def test_spread_aggregate_is_mergeable(self):
        schema = shardlab_schema()
        plans = _plans_by_name(
            schema, plan_placement(schema, 4, spread=("Gauge",)), {"Gauge"}
        )
        assert plans["ShardLab.Gauge.cc_gauge"].tier == SHARD_MERGEABLE

    def test_cross_shard_quantifier_is_global(self):
        schema = crossdb_schema()
        placement = {"Left": 0, "Right": 1}
        plans = _plans_by_name(schema, placement)
        assert plans["CrossDB.db_cover"].tier == SHARD_GLOBAL

    def test_single_shard_quantifier_is_local(self):
        schema = crossdb_schema()
        plans = _plans_by_name(schema, {"Left": 0, "Right": 0})
        assert plans["CrossDB.db_cover"].tier == SHARD_LOCAL
        assert plans["CrossDB.db_cover"].shard == 0

    def test_scopes_cover_exactly_the_local_tier(self):
        schema = shardlab_schema()
        placement = plan_placement(schema, 2, spread=("Gauge",))
        from repro.engine.incremental import ConstraintDependencyIndex

        index = ConstraintDependencyIndex.for_schema(schema)
        plans = classify_constraints(index, placement, {"Gauge"})
        scopes = shard_scopes(plans, 2)
        merged = scopes[0] | scopes[1]
        local = {p.constraint for p in plans if p.tier == SHARD_LOCAL}
        assert merged == local
        # Pinned constraints appear in exactly one scope.
        for plan in plans:
            if plan.tier == SHARD_LOCAL and plan.shard is not None:
                assert (plan.constraint in scopes[plan.shard]) and (
                    plan.constraint not in scopes[1 - plan.shard]
                )

    def test_single_shard_scope_collapses_to_none(self):
        # The N=1 degeneration: every constraint is local to shard 0, so
        # the core's scope filter is disabled entirely.
        router = ShardedStore(shardlab_schema(), 1)
        assert router.cores[0].constraint_scope is None


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------


class _Abort(Exception):
    """Client-requested rollback inside a transaction."""


def _apply_history(store, ops):
    """Apply ``ops`` to ``store``; return ``(oids, outcomes)``.

    ``oids`` is the creation-ordered list of minted oids (``None`` once
    deleted) — positions, not values, are the cross-store identity.
    ``outcomes`` records each op's observable result: accepted, skipped
    (no live target), or rejected with the constraint names / error type.
    """
    oids = []
    outcomes = []

    def _target(idx):
        live = [oid for oid in oids if oid is not None]
        if not live:
            return None
        return live[idx % len(live)]

    def _one(op):
        kind = op[0]
        if kind == "insert":
            _, class_name, fields = op
            obj = store.insert(class_name, **fields)
            oids.append(obj.oid)
        elif kind == "update":
            _, idx, fields = op
            target = _target(idx)
            if target is None:
                return "skip"
            store.update(target, **fields)
        elif kind == "delete":
            _, idx = op
            target = _target(idx)
            if target is None:
                return "skip"
            store.delete(target)
            oids[oids.index(target)] = None
        elif kind == "constant":
            _, value = op
            store.set_constant("CAP", value)
        else:  # pragma: no cover - strategy bug
            raise AssertionError(f"unknown op {kind!r}")
        return "ok"

    for op in ops:
        checkpoint = list(oids)
        try:
            if op[0] == "txn":
                _, subops, abort = op
                sub_outcomes = []
                with store.transaction():
                    for sub in subops:
                        sub_outcomes.append(_one(sub))
                    if abort:
                        raise _Abort()
                outcomes.append(("txn", tuple(sub_outcomes)))
            else:
                outcomes.append((_one(op),))
        except _Abort:
            oids[:] = checkpoint
            outcomes.append(("abort",))
        except ConstraintViolation as exc:
            oids[:] = checkpoint
            outcomes.append(("violation", exc.constraint_names))
        except EngineError as exc:
            oids[:] = checkpoint
            outcomes.append(("error", type(exc).__name__))
    return oids, outcomes


def _assert_equivalent(plain, plain_trace, sharded, sharded_trace):
    plain_oids, plain_outcomes = plain_trace
    shard_oids, shard_outcomes = sharded_trace
    assert plain_outcomes == shard_outcomes
    assert len(plain_oids) == len(shard_oids)
    assert len(plain) == len(sharded)
    for plain_oid, shard_oid in zip(plain_oids, shard_oids):
        assert (plain_oid is None) == (shard_oid is None)
        if plain_oid is None:
            continue
        left, right = plain.get(plain_oid), sharded.get(shard_oid)
        assert left.class_name == right.class_name
        assert dict(left.state) == dict(right.state)
    plain_audit = sorted(v.constraint_name for v in plain.audit())
    shard_audit = sorted(v.constraint_name for v in sharded.audit())
    assert plain_audit == shard_audit


_NAMES = st.text(alphabet="abcd", min_size=1, max_size=2)
_SINGLE_OPS = st.one_of(
    st.tuples(
        st.just("insert"),
        st.just("Alpha"),
        st.fixed_dictionaries(
            {"name": _NAMES, "score": st.integers(-3, 400)}
        ),
    ),
    st.tuples(
        st.just("insert"),
        st.just("Beta"),
        st.fixed_dictionaries(
            {"label": _NAMES, "value": st.integers(-3, 50)}
        ),
    ),
    st.tuples(
        st.just("insert"),
        st.just("Gauge"),
        st.fixed_dictionaries({"reading": st.integers(-3, 400)}),
    ),
    st.tuples(
        st.just("update"),
        st.integers(0, 30),
        st.fixed_dictionaries({"score": st.integers(-3, 400)}),
    ),
    st.tuples(st.just("delete"), st.integers(0, 30)),
)
_OPS = st.one_of(
    _SINGLE_OPS,
    st.tuples(
        st.just("txn"),
        st.lists(_SINGLE_OPS, min_size=1, max_size=4),
        st.booleans(),
    ),
    st.tuples(st.just("constant"), st.integers(5, 2000)),
)
_HISTORIES = st.lists(_OPS, max_size=25)
_LEVELS = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_SINGLE_OPS = st.one_of(
    st.tuples(
        st.just("insert"), st.just("Meter"), st.fixed_dictionaries({"level": _LEVELS})
    ),
    st.tuples(
        st.just("update"), st.integers(0, 30), st.fixed_dictionaries({"level": _LEVELS})
    ),
    st.tuples(st.just("delete"), st.integers(0, 30)),
)
_FLOAT_HISTORIES = st.lists(
    st.one_of(
        _FLOAT_SINGLE_OPS,
        st.tuples(
            st.just("txn"),
            st.lists(_FLOAT_SINGLE_OPS, min_size=1, max_size=4),
            st.booleans(),
        ),
    ),
    max_size=25,
)


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @settings(max_examples=40, deadline=None)
    @given(ops=_HISTORIES)
    # A first transaction is checked by a full audit; on two shards the
    # router's objects() lists Beta#1.1 before Alpha#0.2, the reverse of
    # the plain store's insertion order.
    @example(
        ops=[
            (
                "txn",
                [
                    ("insert", "Gauge", {"reading": 0}),
                    ("insert", "Alpha", {"name": "a", "score": -1}),
                    ("insert", "Beta", {"label": "a", "value": -1}),
                ],
                False,
            )
        ]
    )
    def test_sharded_store_matches_plain_store(self, shards, ops):
        schema = shardlab_schema()
        plain = ObjectStore(schema)
        sharded = ShardedStore(parse_database(SHARDLAB_SOURCE), shards)
        plain_trace = _apply_history(plain, ops)
        sharded_trace = _apply_history(sharded, ops)
        _assert_equivalent(plain, plain_trace, sharded, sharded_trace)

    @settings(max_examples=40, deadline=None)
    @given(ops=_HISTORIES)
    def test_spread_layout_matches_plain_store(self, ops):
        plain = ObjectStore(shardlab_schema())
        sharded = ShardedStore(
            parse_database(SHARDLAB_SOURCE), 4, spread=("Gauge",)
        )
        plain_trace = _apply_history(plain, ops)
        sharded_trace = _apply_history(sharded, ops)
        _assert_equivalent(plain, plain_trace, sharded, sharded_trace)

    @pytest.mark.parametrize("shards", [2, 4])
    @settings(max_examples=40, deadline=None)
    @given(ops=_FLOAT_HISTORIES)
    def test_full_range_float_aggregates_match_plain_store(self, shards, ops):
        plain = ObjectStore(parse_database(FLOATLAB_SOURCE))
        sharded = ShardedStore(
            parse_database(FLOATLAB_SOURCE), shards, spread=("Meter",)
        )
        plain_trace = _apply_history(plain, ops)
        sharded_trace = _apply_history(sharded, ops)
        _assert_equivalent(plain, plain_trace, sharded, sharded_trace)

    @settings(max_examples=25, deadline=None)
    @given(ops=_HISTORIES)
    def test_global_tier_matches_plain_store(self, ops):
        ops = [_crossdb_op(op) for op in ops]
        plain = ObjectStore(crossdb_schema())
        sharded = ShardedStore(crossdb_schema(), 2)
        plain_trace = _apply_history(plain, ops)
        sharded_trace = _apply_history(sharded, ops)
        _assert_equivalent(plain, plain_trace, sharded, sharded_trace)


def _crossdb_op(op):
    """Remap a ShardLab op onto the CrossDB schema."""
    if op[0] == "insert":
        _, class_name, fields = op
        target = "Left" if class_name == "Alpha" else "Right"
        value = fields.get("score", fields.get("value", fields.get("reading", 0)))
        return ("insert", target, {"tag": int(value) % 5})
    if op[0] == "update":
        return ("update", op[1], {"tag": sum(op[2].values()) % 5})
    if op[0] == "txn":
        return ("txn", [_crossdb_op(sub) for sub in op[1]], op[2])
    if op[0] == "constant":
        return ("delete", op[1] % 7)  # CrossDB has no constants
    return op


# ---------------------------------------------------------------------------
# durable stores: manifest, recovery, 2PC
# ---------------------------------------------------------------------------


def _scripted_mix(store):
    """A deterministic history touching both pinned groups, with one
    cross-shard transaction in the middle.  Returns expected names."""
    store.insert("Alpha", name="a1", score=1)
    store.insert("Beta", label="b1", value=1)
    with store.transaction():
        store.insert("Alpha", name="a2", score=2)
        store.insert("Beta", label="b2", value=2)
    store.insert("Alpha", name="a3", score=3)
    return {"a1", "b1", "a2", "b2", "a3"}


def _names(store):
    return {
        obj.state.get("name") or obj.state.get("label")
        for obj in store.objects()
    }


class TestDurableSharding:
    def test_manifest_written_and_reused(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        _scripted_mix(store)
        store.close()
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text("utf-8"))
        assert manifest["shards"] == 2
        assert manifest["database"] == "ShardLab"
        reopened = ShardedStore.open(tmp_path)
        assert reopened.shards == 2
        assert _names(reopened) == {"a1", "b1", "a2", "b2", "a3"}
        assert reopened.audit() == []
        reopened.close()

    def test_shard_count_mismatch_is_rejected(self, tmp_path):
        ShardedStore.open(tmp_path, shardlab_schema(), 2).close()
        with pytest.raises(ShardingError, match="2 shard"):
            ShardedStore.open(tmp_path, shardlab_schema(), 4)

    def test_unreadable_manifest_is_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json", "utf-8")
        with pytest.raises(ShardingError, match="unreadable"):
            ShardedStore.open(tmp_path, shardlab_schema(), 2)

    def test_unchanged_manifest_is_not_rewritten(self, tmp_path):
        ShardedStore.open(tmp_path, shardlab_schema(), 2).close()
        path = tmp_path / MANIFEST_NAME
        before = path.read_bytes()
        past = 1_000_000_000 * 10**9  # 2001-09-09, in nanoseconds
        os.utime(path, ns=(past, past))
        ShardedStore.open(tmp_path).close()
        assert path.stat().st_mtime_ns == past
        assert path.read_bytes() == before

    def test_layout_change_rewrites_the_manifest(self, tmp_path):
        ShardedStore.open(tmp_path, shardlab_schema(), 2).close()
        grown = parse_database(
            SHARDLAB_SOURCE + "\nClass Delta\nattributes\n  tag : int\nend Delta\n"
        )
        store = ShardedStore.open(tmp_path, grown, 2)
        expected = dict(store.placement)
        store.close()
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text("utf-8"))
        assert "Delta" in manifest["placement"]
        assert manifest["placement"] == expected
        assert not (tmp_path / (MANIFEST_NAME + ".tmp")).exists()

    def test_missing_schema_and_store_is_an_error(self, tmp_path):
        with pytest.raises(EngineError, match="no durable store"):
            ShardedStore.open(tmp_path / "void")

    def test_open_reads_each_shard_once(self, tmp_path, monkeypatch):
        """Each core is built from the image the router already loaded:
        one recovery read per shard directory, not two."""
        import repro.engine.sharding as sharding_module
        import repro.engine.store as store_module

        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        _scripted_mix(store)
        store.close()
        reads = []
        for module in (sharding_module, store_module):
            original = module.load_image

            def counted(path, _original=original):
                reads.append(path)
                return _original(path)

            monkeypatch.setattr(module, "load_image", counted)
        reopened = ShardedStore.open(tmp_path, verify=True)
        try:
            assert sorted(reads) == [
                shard_directory(tmp_path, 0),
                shard_directory(tmp_path, 1),
            ]
            assert _names(reopened) == {"a1", "b1", "a2", "b2", "a3"}
        finally:
            reopened.close()

    def test_plain_open_refuses_a_sharded_root(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        _scripted_mix(store)
        store.close()
        for schema in (None, shardlab_schema()):
            with pytest.raises(EngineError, match="sharded store root"):
                ObjectStore.open(tmp_path, schema)
        assert not (tmp_path / "snapshot.json").exists()
        assert not (tmp_path / LOG_NAME).exists()
        # The root still opens whole.
        reopened = ShardedStore.open(tmp_path)
        assert len(reopened) == 5
        reopened.close()

    def test_cross_shard_commit_uses_two_phases(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        _scripted_mix(store)
        assert store.two_phase_commits == 1
        store.close()
        # The coordinator shard's log holds the decide; both hold
        # prepare + resolve.
        kinds_by_shard = {}
        for shard in range(2):
            data = (shard_directory(tmp_path, shard) / LOG_NAME).read_bytes()
            records, _, _ = scan_log(data)
            kinds_by_shard[shard] = [rec["t"] for rec in records]
        all_kinds = kinds_by_shard[0] + kinds_by_shard[1]
        assert all_kinds.count("prepare") == 2
        assert all_kinds.count("decide") == 1
        assert all_kinds.count("resolve") == 2

    def test_two_phase_history_runs_the_checkpoint_policy(self, tmp_path):
        store = ShardedStore.open(
            tmp_path, shardlab_schema(), 2, checkpoint_every=20
        )
        for i in range(60):
            with store.transaction():
                store.insert("Alpha", name=f"a{i}", score=0)
                store.insert("Beta", label=f"b{i}", value=i)
        assert store.two_phase_commits == 60
        for core in store.cores:
            assert core.wal.pending_records < 20
        live = {obj.oid: dict(obj.state) for obj in store.objects()}
        store.close()
        reopened = ShardedStore.open(tmp_path)
        assert {obj.oid: dict(obj.state) for obj in reopened.objects()} == live
        reopened.close()

    def test_checkpoint_waits_for_another_threads_transaction(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        entered, release = threading.Event(), threading.Event()
        outcome = []

        def writer():
            with store.transaction():
                store.insert("Alpha", name="a1", score=1)
                entered.set()
                release.wait(10)

        def checkpointer():
            try:
                store.checkpoint()
                outcome.append("done")
            except EngineError as exc:
                outcome.append(exc)

        threads = [threading.Thread(target=writer)]
        threads[0].start()
        assert entered.wait(10)
        threads.append(threading.Thread(target=checkpointer))
        threads[1].start()
        threads[1].join(0.2)
        assert outcome == []  # waiting for the writer, not refused
        release.set()
        for thread in threads:
            thread.join(10)
        assert outcome == ["done"]
        for core in store.cores:
            assert core.wal.pending_records == 0
        # The writer's own thread is still refused inside its transaction.
        with store.transaction():
            with pytest.raises(EngineError, match="inside a transaction"):
                store.checkpoint()
        store.close()

    def test_routed_op_logs_like_a_plain_op(self, tmp_path):
        store = ShardedStore.open(tmp_path, crossdb_schema(), 2)
        with store.transaction():
            store.insert("Left", tag=1)
            store.insert("Right", tag=1)
        right = store.cores[store.placement["Right"]]

        def pending():
            return [core.wal.pending_records for core in store.cores]

        before = pending()
        routed = store.routed_global_ops
        store.insert("Right", tag=2)
        assert store.routed_global_ops == routed + 1
        expected = list(before)
        expected[store.cores.index(right)] += 1
        assert pending() == expected
        with pytest.raises(ConstraintViolation, match="db_cover"):
            store.insert("Left", tag=9)
        assert store.routed_global_ops == routed + 2
        assert pending() == expected
        store.close()

    def test_each_commit_writes_one_record_per_core(self, tmp_path):
        store = ShardedStore.open(tmp_path, crossdb_schema(), 2)
        left = store.cores[store.placement["Left"]]
        right = store.cores[store.placement["Right"]]
        assert left is not right

        def records(core):
            data = (core.wal.path / LOG_NAME).read_bytes()
            return scan_log(data)[0]

        def redo(obj):
            return {
                "t": "put",
                "row": [obj.oid, obj.class_name, encode_state(obj.state)],
            }

        # Two-phase commit: each core's prepare carries exactly that
        # core's post-images.
        with store.transaction():
            lefty = store.insert("Left", tag=1)
            righty = store.insert("Right", tag=1)
        assert store.two_phase_commits == 1
        coordinator = min(store.cores.index(left), store.cores.index(right))
        for core, obj in ((left, lefty), (right, righty)):
            kinds = [record["t"] for record in records(core)]
            if store.cores.index(core) == coordinator:
                assert kinds == ["prepare", "decide", "resolve"]
            else:
                assert kinds == ["prepare", "resolve"]
            assert records(core)[0]["ops"] == [redo(obj)]
        # A routed op and a one-core transaction: one commit each.
        routed = store.routed_global_ops
        before = len(records(left))
        first = store.insert("Right", tag=2)
        assert store.routed_global_ops == routed + 1
        with store.transaction():
            second = store.insert("Right", tag=3)
            third = store.insert("Right", tag=4)
        assert len(records(left)) == before
        routed_record, txn_record = records(right)[-2:]
        assert routed_record["t"] == txn_record["t"] == "commit"
        assert routed_record["ops"] == [redo(first)]
        assert txn_record["ops"] == [redo(second), redo(third)]
        assert store.two_phase_commits == 1
        store.close()

    def test_prepare_records_are_canonical(self, tmp_path):
        """A ``prepare`` record is assembled from rendered rows, yet is
        exactly the compact, key-sorted JSON of itself — awkward strings
        included."""
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        assert store.placement["Alpha"] != store.placement["Beta"]
        with store.transaction():
            store.insert("Alpha", name='qu"ote\\ \u00fcn\u2603\t\n', score=1)
            store.insert("Beta", label="\U0001f600\x01", value=2**70)
        assert store.two_phase_commits == 1
        for core in store.cores:
            data = (core.wal.path / LOG_NAME).read_bytes()
            lines = data.split(b"\n")[:-1]
            assert json.loads(lines[0][9:])["t"] == "prepare"
            for line in lines:
                payload = line[9:]
                assert payload == json.dumps(
                    json.loads(payload), separators=(",", ":"), sort_keys=True
                ).encode("utf-8")
        store.close()

    def test_single_shard_touch_skips_two_phase(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        with store.transaction():
            store.insert("Alpha", name="a1", score=1)
            store.insert("Alpha", name="a2", score=2)
        assert store.two_phase_commits == 0
        store.close()

    def test_violating_cross_shard_txn_rolls_back_everywhere(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        with pytest.raises(ConstraintViolation) as excinfo:
            with store.transaction():
                store.insert("Alpha", name="big", score=999)
                store.insert("Beta", label="bad", value=-1)
        assert "ShardLab.Beta.oc_b" in excinfo.value.constraint_names
        assert len(store) == 0
        store.close()
        reopened = ShardedStore.open(tmp_path)
        assert len(reopened) == 0
        reopened.close()

    def test_per_shard_oid_namespaces_survive_reopen(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        a = store.insert("Alpha", name="a1", score=1)
        b = store.insert("Beta", label="b1", value=1)
        assert oid_shard(a.oid) == store.placement["Alpha"]
        assert oid_shard(b.oid) == store.placement["Beta"]
        store.close()
        reopened = ShardedStore.open(tmp_path)
        a2 = reopened.insert("Alpha", name="a2", score=2)
        # The shard-local counter continues; no oid is ever reused.
        assert a2.oid != a.oid
        assert oid_shard(a2.oid) == oid_shard(a.oid)
        reopened.close()

    def test_spread_cursor_recovers(self, tmp_path):
        store = ShardedStore.open(
            tmp_path, shardlab_schema(), 2, spread=("Gauge",)
        )
        first = [store.insert("Gauge", reading=i).oid for i in range(3)]
        store.close()
        reopened = ShardedStore.open(tmp_path)
        more = [reopened.insert("Gauge", reading=9).oid for _ in range(2)]
        seen = first + more
        assert len(set(seen)) == 5
        # Round-robin resumes: five inserts over two shards never pile
        # more than one extra object onto a shard.
        counts = {}
        for oid in seen:
            counts[oid_shard(oid)] = counts.get(oid_shard(oid), 0) + 1
        assert sorted(counts.values()) == [2, 3]
        reopened.close()

    def test_shard_stats_shape(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2, sync=True)
        _scripted_mix(store)
        stats = store.shard_stats()
        assert [row["shard"] for row in stats] == [0, 1]
        assert sum(row["objects"] for row in stats) == 5
        for row in stats:
            assert row["fsyncs"] >= 1
        store.close()

    def test_fsck_clean_after_close(self, tmp_path):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2)
        _scripted_mix(store)
        store.close()
        for shard in range(2):
            report = fsck(shard_directory(tmp_path, shard))
            assert report.exit_code == 0


# ---------------------------------------------------------------------------
# commit shapes: every router commit fails like a plain store's
# ---------------------------------------------------------------------------


def _commit_case(store, shape, accepted, mark=lambda: None):
    """One commit of ``shape`` on a CrossDB store (Left on shard 0, Right on
    shard 1; ``db_cover`` spans both).  ``mark`` runs right before the
    commit's first log append: the routed op's record, the one-core
    transaction's commit record, the cross-shard transaction's prepare on
    Right's shard."""
    if shape == "routed":
        mark()
        if accepted:
            store.insert("Right", tag=3)
        else:
            store.insert("Left", tag=9)
    elif shape == "one-core":
        with store.transaction():
            cls = "Right" if accepted else "Left"
            store.insert(cls, tag=4)
            store.insert(cls, tag=5)
            mark()
    else:
        with store.transaction():
            store.insert("Left", tag=2 if accepted else 7)
            store.insert("Right", tag=6)
            mark()


def _commit_case_setup(store):
    with store.transaction():
        store.insert("Left", tag=1)
        store.insert("Right", tag=1)
    store.insert("Right", tag=2)


def _core_views(store):
    """Each core's contents in its object order and extent order."""
    return [
        (
            [(obj.oid, dict(obj.state)) for obj in core.objects()],
            {
                name: [obj.oid for obj in core.extent(name)]
                for name in ("Left", "Right")
            },
        )
        for core in store.cores
    ]


def _merged_view(reader):
    return {
        name: [(obj.oid, dict(obj.state)) for obj in reader.extent(name)]
        for name in ("Left", "Right")
    }


@pytest.mark.faults
class TestCommitShapes:
    """A routed op, a transaction that wrote one durable core and a
    two-phase one all commit through the store's one commit tail, so each
    fails — constraint reject or log failure — exactly like a plain store:
    every core as before, and the next accepted commit goes through."""

    @pytest.mark.parametrize("failure", ("reject", "wal.append"))
    @pytest.mark.parametrize("shape", ("routed", "one-core", "two-phase"))
    def test_failed_commit_leaves_every_shard_unchanged(
        self, tmp_path, shape, failure
    ):
        def open_store(root, at):
            injector = FaultInjector([FaultSpec("wal.append", "io_error", at=at)])
            return injector, ShardedStore.open(
                root, crossdb_schema(), 2, sync=True, faults={1: injector}
            )

        # A probe run of the same history counts Right's shard's appends up
        # to the commit, so the real run fails exactly its first append.
        injector, probe = open_store(tmp_path / "probe", 10**6)
        _commit_case_setup(probe)
        crossing = []
        _commit_case(
            probe, shape, True, lambda: crossing.append(injector.hits("wal.append"))
        )
        probe.close()
        if failure == "reject":
            crossing = [10**6]
        _injector, store = open_store(tmp_path / "db", crossing[0])
        _commit_case_setup(store)
        cores, merged = _core_views(store), _merged_view(store)
        with store.snapshot() as snap:
            with pytest.raises(ConstraintViolation if failure == "reject" else OSError):
                _commit_case(store, shape, failure != "reject")
            assert _core_views(store) == cores
            assert _merged_view(snap) == merged
            with store.snapshot() as fresh:
                assert _merged_view(fresh) == merged
            assert store.audit() == []
            if failure == "reject":
                _commit_case(store, shape, True)
                assert _merged_view(snap) == merged
                assert _merged_view(store) != merged
        live = _merged_view(store)
        store.close()
        reopened = ShardedStore.open(tmp_path / "db")
        assert _merged_view(reopened) == live
        if failure != "reject":
            # The failed commit is gone after recovery too, and the
            # reopened store commits it normally.
            assert live == merged
            _commit_case(reopened, shape, True)
            assert _merged_view(reopened) != merged
        assert reopened.audit() == []
        reopened.close()


# ---------------------------------------------------------------------------
# the per-shard crash matrix
# ---------------------------------------------------------------------------


#: Fault points swept per shard.  ``at`` indexes the n-th crossing of the
#: point *on that shard's files only*, so the sweep lands before, inside
#: and after the 2PC bracket of the scripted history.
_MATRIX = [
    (shard, point, kind, at)
    for shard in (0, 1)
    for point in ("wal.append", "wal.fsync")
    for kind in ("crash", "crash_after")
    for at in (0, 1, 2, 3, 4)
]


class TestPerShardCrashMatrix:
    @pytest.mark.parametrize("shard,point,kind,at", _MATRIX)
    def test_crash_preserves_cross_shard_atomicity(
        self, tmp_path, shard, point, kind, at
    ):
        injector = FaultInjector([FaultSpec(point, kind, at=at)])
        store = ShardedStore.open(
            tmp_path,
            shardlab_schema(),
            2,
            sync=True,
            faults={shard: injector},
        )
        completed = set()
        steps = [
            ("a1", lambda s: s.insert("Alpha", name="a1", score=1)),
            ("b1", lambda s: s.insert("Beta", label="b1", value=1)),
            ("txn", _cross_shard_txn),
            ("a3", lambda s: s.insert("Alpha", name="a3", score=3)),
        ]
        crashed = False
        for label, step in steps:
            try:
                step(store)
                completed.add(label)
            except FAULT_EXCEPTIONS:
                crashed = True
                break
        if not crashed:
            try:
                # The schedule may name crossings this history never hit,
                # or a swallowed resolve-phase fault left the shard's log
                # poisoned — close is then allowed to fail too.
                store.close()
            except FAULT_EXCEPTIONS:
                pass
        recovered = ShardedStore.open(tmp_path, verify=True)
        names = _names(recovered)
        # Cross-shard atomicity: the 2PC transaction is all-or-nothing.
        assert ("a2" in names) == ("b2" in names)
        # Sync commits that returned are durable; later steps may have
        # landed or not (the crashing one), never partially.
        expected = {"txn": {"a2", "b2"}}
        for label in completed:
            for name in expected.get(label, {label}):
                assert name in names
        assert names <= {"a1", "b1", "a2", "b2", "a3"}
        assert recovered.audit() == []
        recovered.close()
        # Logs are settled after recovery: no torn tails above severity 1.
        for i in range(2):
            assert fsck(shard_directory(tmp_path, i)).exit_code <= 1

    def test_prepare_without_decide_is_presumed_abort(self, tmp_path):
        # Crash shard 1 at its first fsync *inside* the bracket: its
        # prepare may persist, but no decide exists anywhere.
        injector = FaultInjector([FaultSpec("wal.fsync", "crash", at=0)])
        store = ShardedStore.open(
            tmp_path, shardlab_schema(), 2, sync=True, faults={1: injector}
        )
        with pytest.raises(FAULT_EXCEPTIONS):
            _cross_shard_txn(store)
        recovered = ShardedStore.open(tmp_path, verify=True)
        assert _names(recovered) == set()
        assert recovered.audit() == []
        recovered.close()

    def test_decide_in_one_log_commits_every_shard(self, tmp_path):
        # Crash the non-coordinator after the decide is durable (its own
        # resolve fsync): recovery must pool the coordinator's decide and
        # apply the in-doubt bracket on the crashed shard.
        coordinator = None
        probe = ShardedStore(shardlab_schema(), 2)
        alpha_shard = probe.placement["Alpha"]
        beta_shard = probe.placement["Beta"]
        coordinator = min(alpha_shard, beta_shard)
        other = beta_shard if coordinator == alpha_shard else alpha_shard
        # On ``other`` the fsync order is: prepare (0), resolve (1).
        injector = FaultInjector([FaultSpec("wal.fsync", "crash", at=1)])
        store = ShardedStore.open(
            tmp_path,
            shardlab_schema(),
            2,
            sync=True,
            faults={other: injector},
        )
        try:
            _cross_shard_txn(store)
        except FAULT_EXCEPTIONS:
            pass
        recovered = ShardedStore.open(tmp_path, verify=True)
        names = _names(recovered)
        assert ("a2" in names) == ("b2" in names)
        # The decide record fsynced on the coordinator before the crashed
        # resolve, so the bracket must have committed.
        data = (
            shard_directory(tmp_path, coordinator) / LOG_NAME
        ).read_bytes()
        records, _, _ = scan_log(data)
        kinds = [rec["t"] for rec in records]
        if "decide" in kinds:
            assert names == {"a2", "b2"}
        recovered.close()


def _cross_shard_txn(store):
    with store.transaction():
        store.insert("Alpha", name="a2", score=2)
        store.insert("Beta", label="b2", value=2)


# ---------------------------------------------------------------------------
# durable equivalence under crashes (Hypothesis)
# ---------------------------------------------------------------------------


_CRASH_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("alpha"), st.integers(0, 100)),
        st.tuples(st.just("beta"), st.integers(0, 40)),
        st.tuples(st.just("pair"), st.integers(0, 100)),
    ),
    min_size=1,
    max_size=6,
)


class TestCrashEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        steps=_CRASH_STEPS,
        shard=st.integers(0, 1),
        point=st.sampled_from(["wal.append", "wal.fsync"]),
        at=st.integers(0, 5),
    )
    def test_recovery_lands_on_a_committed_state(
        self, tmp_path_factory, steps, shard, point, at
    ):
        tmp_path = tmp_path_factory.mktemp("crash-eq")
        injector = FaultInjector([FaultSpec(point, "crash", at=at)])
        store = ShardedStore.open(
            tmp_path,
            shardlab_schema(),
            2,
            sync=True,
            faults={shard: injector},
        )
        committed = []  # names durable when the call returned
        attempted = []
        seq = 0
        try:
            for kind, value in steps:
                seq += 1
                if kind == "alpha":
                    name = f"a{seq}"
                    attempted.append([name])
                    store.insert("Alpha", name=name, score=value)
                    committed.append(name)
                elif kind == "beta":
                    name = f"b{seq}"
                    attempted.append([name])
                    store.insert("Beta", label=name, value=value)
                    committed.append(name)
                else:
                    pair = [f"pa{seq}", f"pb{seq}"]
                    attempted.append(pair)
                    with store.transaction():
                        store.insert("Alpha", name=pair[0], score=value)
                        store.insert("Beta", label=pair[1], value=value)
                    committed.extend(pair)
        except FAULT_EXCEPTIONS:
            pass
        else:
            store.close()
        recovered = ShardedStore.open(tmp_path, verify=True)
        names = _names(recovered)
        assert set(committed) <= names
        assert names <= {n for group in attempted for n in group}
        # Pairs are atomic even when the crash hit mid-bracket.
        for group in attempted:
            if len(group) == 2:
                assert (group[0] in names) == (group[1] in names)
        assert recovered.audit() == []
        recovered.close()


# ---------------------------------------------------------------------------
# in-memory routing behaviour
# ---------------------------------------------------------------------------


class TestRouting:
    def test_fast_path_engages_for_local_ops(self):
        store = ShardedStore(shardlab_schema(), 2)
        store.insert("Alpha", name="a1", score=1)
        before = store.fast_path_ops
        store.insert("Alpha", name="a2", score=2)
        assert store.fast_path_ops == before + 1

    def test_global_tier_forces_routed_ops(self):
        store = ShardedStore(crossdb_schema(), 2)
        with store.transaction():
            store.insert("Left", tag=1)
            store.insert("Right", tag=1)
        before = store.routed_global_ops
        store.insert("Right", tag=2)
        assert store.routed_global_ops == before + 1

    def test_one_shard_routes_like_many(self):
        store = ShardedStore(shardlab_schema(), 1)
        # No validated baseline yet: the first op is routed, and its full
        # revalidation re-baselines, so the next one takes the fast path.
        store.insert("Alpha", name="a1", score=1)
        assert (store.routed_global_ops, store.fast_path_ops) == (1, 0)
        store.insert("Alpha", name="a2", score=2)
        assert (store.routed_global_ops, store.fast_path_ops) == (1, 1)
        store.set_constant("CAP", 500)
        store.insert("Alpha", name="a3", score=3)
        assert (store.routed_global_ops, store.fast_path_ops) == (2, 1)

    def test_len_contains_get_across_shards(self):
        store = ShardedStore(shardlab_schema(), 2)
        a = store.insert("Alpha", name="a1", score=1)
        b = store.insert("Beta", label="b1", value=1)
        assert len(store) == 2
        assert a.oid in store and b.oid in store
        assert store.get(a.oid).state["name"] == "a1"
        assert store.get(b.oid).state["label"] == "b1"

    def test_extent_merges_spread_shards_in_insertion_order(self):
        store = ShardedStore(shardlab_schema(), 4, spread=("Gauge",))
        minted = [store.insert("Gauge", reading=i).oid for i in range(6)]
        assert [obj.oid for obj in store.extent("Gauge")] == minted

    def test_set_constant_reaches_every_shard(self):
        store = ShardedStore(shardlab_schema(), 2, spread=("Gauge",))
        store.insert("Gauge", reading=500)
        store.set_constant("CAP", 600)
        with pytest.raises(ConstraintViolation):
            store.insert("Gauge", reading=200)

    def test_mergeable_aggregate_sums_partials(self):
        store = ShardedStore(shardlab_schema(), 4, spread=("Gauge",))
        for i in range(8):
            store.insert("Gauge", reading=100)
        # 8 * 100 = 800 < 1000; the next 100 would still fit, 300 not.
        with pytest.raises(ConstraintViolation) as excinfo:
            store.insert("Gauge", reading=300)
        assert "ShardLab.Gauge.cc_gauge" in excinfo.value.constraint_names
        assert len(store.extent("Gauge")) == 8

    def test_key_constraint_spans_one_shard(self):
        store = ShardedStore(shardlab_schema(), 2)
        store.insert("Alpha", name="dup", score=1)
        with pytest.raises(ConstraintViolation) as excinfo:
            store.insert("Alpha", name="dup", score=2)
        assert "ShardLab.Alpha.cc_key" in excinfo.value.constraint_names

    def test_unknown_oid_message_matches_plain_store(self):
        plain = ObjectStore(shardlab_schema())
        sharded = ShardedStore(shardlab_schema(), 2)
        with pytest.raises(EngineError) as plain_exc:
            plain.get("Alpha#99")
        with pytest.raises(EngineError) as shard_exc:
            sharded.get("Alpha#99")
        assert type(plain_exc.value) is type(shard_exc.value)

    def test_explain_violations_works_on_router(self):
        store = ShardedStore(shardlab_schema(), 2, enforce=False)
        store.insert("Alpha", name="bad", score=-5)
        cores = store.explain_violations()
        assert any("oc_a" in core.constraint_name for core in cores)


class TestShardedAnalyze:
    """``analyze=True`` means the same on every core, however the sharded
    store came to be: the router runs the schema's registration check
    once, and every core prunes entailed constraints from its hot path."""

    @pytest.fixture
    def registrations(self, monkeypatch):
        from repro.constraints import analysis

        calls: list = []
        original = analysis.registration_errors

        def counting(schema):
            calls.append(schema)
            return original(schema)

        monkeypatch.setattr(analysis, "registration_errors", counting)
        return calls

    def test_fresh_open_and_reopen_analyze_every_core(self, tmp_path, registrations):
        root = tmp_path / "db"
        flavors = (
            ("fresh", lambda: ShardedStore(shardlab_schema(), 3, analyze=True)),
            ("open-new", lambda: ShardedStore.open(root, shardlab_schema(), 3, analyze=True)),
            ("reopen", lambda: ShardedStore.open(root, analyze=True)),
        )
        for flavor, make in flavors:
            registrations.clear()
            store = make()
            try:
                assert [core.analyze for core in store.cores] == [True] * 3, flavor
                assert len(registrations) == 1, flavor
            finally:
                store.close()

    def test_rejected_schema_is_refused_before_any_core_opens(self, tmp_path):
        from repro.errors import SchemaError

        source = SHARDLAB_SOURCE.replace("oc_a: score >= 0", "oc_a: score >= 0 and score < 0")
        with pytest.raises(SchemaError, match="static analysis"):
            ShardedStore.open(tmp_path / "db", parse_database(source), 3, analyze=True)
        assert not (tmp_path / "db").exists()


class TestMergedSnapshotReads:
    def test_get_attr_dereferences_at_the_cut(self):
        store = ShardedStore(bookseller_schema(), 2)
        item_state = dict(authors=frozenset({"a"}), shopprice=50.0, libprice=40.0)
        with store.transaction():
            acm = store.insert("Publisher", name="ACM", location="NY")
            # A plain string attribute holding oid-shaped text.
            ieee = store.insert("Publisher", name="IEEE", location=acm.oid)
            item = store.insert("Item", title="t", isbn="1", publisher=acm, **item_state)
            store.insert("Item", title="u", isbn="2", publisher=acm, **item_state)
            store.insert("Item", title="v", isbn="3", publisher=ieee, **item_state)
        with store.snapshot() as snap:
            store.update(item, publisher=ieee)
            store.update(acm, name="ACM Press")
            publisher = snap.get_attr(snap.get(item.oid), "publisher")
            assert (publisher.oid, publisher.state["name"]) == (acm.oid, "ACM")
            location = snap.get_attr(snap.get(ieee.oid), "location")
            assert location == acm.oid and isinstance(location, str)
        assert store.get_attr(item, "publisher") is ieee
        store.close()


class TestShardedExplain:
    """A core's rejection explains itself exactly as the router's does,
    however the sharded store came to be."""

    def test_fresh_open_and_reopen_explain_like_the_router(self, tmp_path):
        root = tmp_path / "db"
        flavors = (
            ("fresh", lambda: ShardedStore(shardlab_schema(), 2)),
            ("open-new", lambda: ShardedStore.open(root, shardlab_schema(), 2)),
            ("reopen", lambda: ShardedStore.open(root)),
        )
        for flavor, make in flavors:
            store = make()
            try:
                # oc_a is core-local: the rejection comes off the fast path,
                # raised by the core itself.
                store.insert("Alpha", name=f"ok-{flavor}", score=1)
                before = store.fast_path_ops
                with pytest.raises(ConstraintViolation) as excinfo:
                    store.insert("Alpha", name=f"bad-{flavor}", score=-1)
                assert store.fast_path_ops == before + 1, flavor
                trace = excinfo.value.trace
                assert trace is not None and trace.events, flavor
            finally:
                store.close()


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


class TestShardingCli:
    def _make_store(self, tmp_path, sync=False):
        store = ShardedStore.open(tmp_path, shardlab_schema(), 2, sync=sync)
        _scripted_mix(store)
        store.close()

    def test_fsck_all_clean(self, tmp_path, capsys):
        from repro.cli import main

        self._make_store(tmp_path)
        assert main(["fsck", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shard-0" in out and "shard-1" in out

    def test_fsck_all_deep_audits_whole_store(self, tmp_path, capsys):
        from repro.cli import main

        self._make_store(tmp_path)
        assert main(["fsck", "--deep", str(tmp_path)]) == 0
        assert "deep audit: all constraints hold" in capsys.readouterr().out

    def test_fsck_all_reports_worst_shard(self, tmp_path):
        from repro.cli import main

        self._make_store(tmp_path)
        log = shard_directory(tmp_path, 1) / LOG_NAME
        with log.open("ab") as handle:
            handle.write(b"\x00garbage tail not a frame\n")
        assert main(["fsck", str(tmp_path)]) >= 1
        # The single-directory scrub agrees on the damaged shard...
        assert main(["fsck", str(shard_directory(tmp_path, 1))]) >= 1
        # ...and the intact shard still scrubs clean.
        assert main(["fsck", str(shard_directory(tmp_path, 0))]) == 0

    def test_fsck_all_without_shards_is_fatal(self, tmp_path):
        from repro.cli import main

        assert main(["fsck", str(tmp_path)]) == 2

    def test_recover_refuses_a_sharded_root(self, tmp_path):
        from repro.cli import main

        self._make_store(tmp_path)
        with pytest.raises(SystemExit, match="sharded store root"):
            main(["recover", str(tmp_path)])
        assert not (tmp_path / "snapshot.json").exists()

    def test_stress_shards_in_memory(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "stress",
                    "--shards",
                    "2",
                    "--seconds",
                    "0.2",
                    "--objects",
                    "40",
                    "--writers",
                    "1",
                    "--readers",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "across 2 shard(s)" in out
        assert "fast-path op(s)" in out
        assert "shard 0: " in out and "shard 1: " in out
        assert "all constraints hold" in out

    def test_stress_shards_durable_reports_group_commit(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert (
            main(
                [
                    "stress",
                    "--shards",
                    "2",
                    "--seconds",
                    "0.2",
                    "--objects",
                    "40",
                    "--writers",
                    "2",
                    "--readers",
                    "1",
                    "--dir",
                    str(tmp_path / "db"),
                    "--sync",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "two-phase commit(s)" in out
        assert "fsyncs/commit" in out
        # The directory the stressor leaves behind scrubs clean.
        assert main(["fsck", str(tmp_path / "db")]) == 0
