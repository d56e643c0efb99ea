"""Concurrent serving: snapshot isolation, group commit, schema records.

The invariants under test:

* a :meth:`ObjectStore.snapshot` view is immutable and committed-only — it
  never observes uncommitted inserts, in-flight transaction states, or the
  re-registration shuffle of a rollback resurrection, and its extents come
  in the same ``(counter, oid)`` order as live extents;
* snapshot acquisition does not serialize behind a writer holding the
  writer lock (once the machinery is active);
* concurrent ``sync=True`` committers coalesce into fewer fsyncs than
  commits (group commit) while recovery still restores exactly the
  committed history;
* schema changes made after the last checkpoint survive recovery via
  schema-change log records instead of silently reverting.

Threaded tests carry the ``concurrency`` marker so CI can run them as a
dedicated job (``pytest -m concurrency``).
"""

import itertools
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ObjectStore
from repro.errors import (
    ConstraintViolation,
    EngineError,
    SchemaError,
    UnknownObjectError,
)
from repro.tm import parse_database

SCHEMA_SOURCE = """
Database ConcDB

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price >= 0
end Item
"""


def fresh_store(**kwargs):
    return ObjectStore(parse_database(SCHEMA_SOURCE), **kwargs)


def extent_view(snap):
    """Comparable ordered image of a snapshot's Item extent."""
    return tuple(
        (obj.oid, obj.state["name"], obj.state["price"])
        for obj in snap.extent("Item")
    )


def live_view(store):
    return tuple(
        (obj.oid, obj.state["name"], obj.state["price"])
        for obj in store.extent("Item")
    )


class TestSnapshotIsolation:
    def test_snapshot_reflects_committed_state_and_stays_immutable(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        before = store.snapshot()
        store.update(a, price=2.0)
        b = store.insert("Item", name="b", price=3.0)
        after = store.snapshot()

        assert before.get(a.oid).state["price"] == 1.0
        assert b.oid not in before
        assert after.get(a.oid).state["price"] == 2.0
        assert extent_view(after) == live_view(store)
        assert len(before) == 1 and len(after) == 2

        store.delete(b)
        assert b.oid in after  # old snapshot unaffected
        assert b.oid not in store.snapshot()

    def test_snapshot_mid_transaction_sees_committed_prestate(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        with store.transaction():
            store.update(a, price=9.0)
            inserted = store.insert("Item", name="uncommitted", price=5.0)
            snap = store.snapshot()
            assert snap.get(a.oid).state["price"] == 1.0
            assert inserted.oid not in snap
            assert len(snap) == 1
        # After the commit, a fresh snapshot sees it all.
        assert store.snapshot().get(inserted.oid).state["name"] == "uncommitted"

    def test_snapshot_mid_nested_transaction_sees_committed_prestate(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        with store.transaction():
            store.update(a, price=2.0)
            with store.transaction():
                store.update(a, price=3.0)
                snap = store.snapshot()
                assert snap.get(a.oid).state["price"] == 1.0

    def test_rolled_back_transaction_never_published(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        before = store.snapshot()
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                store.insert("Item", name="bad", price=-1.0)
        after = store.snapshot()
        assert extent_view(before) == extent_view(after) == live_view(store)
        assert after.version == before.version  # nothing was committed

    def test_rollback_resurrection_keeps_snapshot_extent_order(self):
        store = fresh_store()
        items = [
            store.insert("Item", name=f"i{i}", price=float(i)) for i in range(5)
        ]
        before = store.snapshot()
        order_before = [obj.oid for obj in before.extent("Item")]
        with pytest.raises(RuntimeError):
            with store.transaction():
                # Delete from the middle, then fail: rollback re-registers
                # the deleted objects (appending to the live dict) and must
                # not reorder what any snapshot sees.
                store.delete(items[1])
                store.delete(items[3])
                mid = store.snapshot()
                assert [obj.oid for obj in mid.extent("Item")] == order_before
                raise RuntimeError("boom")
        after = store.snapshot()
        assert [obj.oid for obj in after.extent("Item")] == order_before
        assert [obj.oid for obj in store.extent("Item")] == order_before

    def test_snapshot_dereferences_inside_the_snapshot(self):
        source = SCHEMA_SOURCE + (
            "\nClass Ref\nattributes\n  item : Item\nend Ref\n"
        )
        store = ObjectStore(parse_database(source))
        item = store.insert("Item", name="a", price=1.0)
        ref = store.insert("Ref", item=item)
        snap = store.snapshot()
        store.update(item, price=8.0)
        seen = snap.get_attr(snap.get(ref.oid), "item")
        assert seen.state["price"] == 1.0

    def test_snapshot_unknown_oid_and_class_raise(self):
        store = fresh_store()
        snap = store.snapshot()
        with pytest.raises(UnknownObjectError):
            snap.get("Item#999")
        with pytest.raises(Exception):
            snap.extent("Nope")


@pytest.mark.concurrency
class TestConcurrentReaders:
    def test_snapshot_does_not_block_on_an_open_transaction(self):
        store = fresh_store()
        store.insert("Item", name="seed", price=1.0)
        store.snapshot()  # activate the machinery before the writer starts

        entered = threading.Event()
        release = threading.Event()
        failures = []

        def writer():
            try:
                with store.transaction():
                    store.insert("Item", name="uncommitted", price=2.0)
                    entered.set()
                    release.wait(timeout=30.0)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert entered.wait(timeout=30.0)
        started = time.perf_counter()
        snap = store.snapshot()
        view = extent_view(snap)
        elapsed = time.perf_counter() - started
        release.set()
        thread.join(timeout=30.0)
        assert not failures
        # The read completed while the transaction was still open…
        assert elapsed < 1.0, f"snapshot read blocked for {elapsed:.2f}s"
        # …and saw only the committed object.
        assert [name for _, name, _ in view] == ["seed"]
        assert len(store.snapshot()) == 2

    def test_readers_see_only_committed_prefixes_under_load(self):
        store = fresh_store()
        items = [
            store.insert("Item", name=f"i{i}", price=0.0) for i in range(8)
        ]
        baseline = store.snapshot()
        committed = [extent_view(baseline)]  # index = version
        stop = threading.Event()
        failures = []

        def writer():
            try:
                for step in range(150):
                    with store.transaction():
                        store.update(items[step % 8], price=float(step + 1))
                        if step % 3 == 0:
                            store.update(
                                items[(step + 1) % 8], price=float(step + 1)
                            )
                    committed.append(live_view(store))
            except Exception as exc:
                failures.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    view = extent_view(snap)
                    # Versions map 1:1 to commits: the view must be exactly
                    # the state the writer recorded for that version.  The
                    # writer appends the record after releasing the lock,
                    # so wait for it to catch up when we raced ahead.
                    for _ in range(1000):
                        if snap.version < len(committed):
                            break
                        time.sleep(0.001)
                    assert view == committed[snap.version], (
                        f"snapshot v{snap.version} saw a state the writer "
                        "never committed"
                    )
            except BaseException as exc:
                failures.append(exc)
                stop.set()

        readers = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        writer_thread.join(timeout=60.0)
        for thread in readers:
            thread.join(timeout=60.0)
        assert not failures, failures[0]
        assert len(committed) == 151

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        history=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=5),
                st.booleans(),  # commit (True) or roll back (False)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_threaded_histories_expose_only_committed_states(self, history):
        """Hypothesis × threads: arbitrary transactional histories (with
        rollbacks, hence resurrections) against concurrent snapshot
        readers — every observed view is a state some committed prefix
        produced, in extent order."""
        store = fresh_store()
        pool = [
            store.insert("Item", name=f"i{i}", price=0.0) for i in range(6)
        ]
        live = list(pool)
        baseline = store.snapshot()
        committed = [extent_view(baseline)]
        stop = threading.Event()
        failures = []

        def writer():
            try:
                for step, (kind, slot, commit) in enumerate(history):
                    did_something = False
                    try:
                        with store.transaction():
                            if kind == "insert":
                                obj = store.insert(
                                    "Item",
                                    name=f"n{step}",
                                    price=float(step),
                                )
                                did_something = True
                                if commit:
                                    live.append(obj)
                            elif kind == "update" and live:
                                store.update(
                                    live[slot % len(live)],
                                    price=float(step + 100),
                                )
                                did_something = True
                            elif kind == "delete" and live:
                                victim = live[slot % len(live)]
                                store.delete(victim)
                                did_something = True
                                if commit:
                                    live.remove(victim)
                            if not commit:
                                raise RuntimeError("roll back")
                    except RuntimeError:
                        pass
                    else:
                        # Empty transactions publish nothing and bump no
                        # version: only record commits that did work, so
                        # list index == snapshot version stays exact.
                        if did_something:
                            committed.append(live_view(store))
            except Exception as exc:
                failures.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    view = extent_view(snap)
                    for _ in range(1000):
                        if snap.version < len(committed):
                            break
                        time.sleep(0.001)
                    assert view == committed[snap.version]
            except BaseException as exc:
                failures.append(exc)
                stop.set()

        readers = [
            threading.Thread(target=reader, daemon=True) for _ in range(2)
        ]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        writer_thread.join(timeout=60.0)
        for thread in readers:
            thread.join(timeout=60.0)
        assert not failures, failures[0]

    def test_reader_reordering_the_table_loses_no_concurrent_insert(
        self, tmp_path
    ):
        """A rejected delete leaves its resurrected object for the next
        ordered reader to re-place.  A reader on another thread that does
        so while a writer inserts must not swap the table under the
        writer: every insert survives in ``objects()``, in a snapshot and
        in a checkpoint."""
        schema = parse_database(
            SCHEMA_SOURCE.replace(
                "end Item",
                "end Item\n\nClass Tag\nattributes\n  label : string\n"
                "class constraints\n"
                "  cc_tags: (count (collect x for x in self)) >= 4\nend Tag",
            )
        )
        store = ObjectStore.open(tmp_path / "db", schema, checkpoint_every=0)
        with store.transaction():
            tags = [store.insert("Tag", label=f"t{i}") for i in range(4)]
            for i in range(2000):
                store.insert("Item", name=f"seed{i}", price=0.0)
        inserted = []
        stop = threading.Event()
        failures = []

        def inserter():
            try:
                for step in range(3000):
                    inserted.append(
                        store.insert("Item", name=f"w{step}", price=1.0).oid
                    )
            except BaseException as exc:
                failures.append(exc)
            finally:
                stop.set()

        def rejecter():
            try:
                for step in itertools.count():
                    if stop.is_set():
                        break
                    with pytest.raises(ConstraintViolation):
                        store.delete(tags[step % 4])
            except BaseException as exc:
                failures.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    store.objects()
            except BaseException as exc:
                failures.append(exc)

        # Short switch interval: the threads interleave inside the
        # re-placement, which a lock-free one loses inserts to.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=role, daemon=True)
                for role in (reader, rejecter, inserter)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[0]
        oids = [obj.oid for obj in store.objects()]
        assert len(oids) == 5004 and set(inserted) <= set(oids)
        snap = store.snapshot()
        assert all(oid in snap for oid in inserted)
        store.checkpoint()
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert [obj.oid for obj in recovered.objects()] == oids
        recovered.close()


@pytest.mark.concurrency
class TestGroupCommit:
    def test_concurrent_sync_commits_share_fsyncs(self, tmp_path):
        store = ObjectStore.open(
            tmp_path / "db",
            parse_database(SCHEMA_SOURCE),
            sync=True,
            checkpoint_every=0,
        )
        fsyncs_before = store.wal.fsyncs
        commits_before = store.wal.sync_commits
        failures = []

        def committer(slot):
            try:
                for i in range(20):
                    store.insert(
                        "Item", name=f"c{slot}-{i}", price=float(i)
                    )
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=committer, args=(slot,), daemon=True)
            for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures, failures[0]

        fsyncs = store.wal.fsyncs - fsyncs_before
        commits = store.wal.sync_commits - commits_before
        assert commits == 160
        # Group commit: concurrent durable commits coalesce — strictly
        # fewer fsyncs than commits (typically far fewer).
        assert fsyncs < commits, (
            f"{fsyncs} fsyncs for {commits} commits — no coalescing"
        )
        store.close()

        recovered = ObjectStore.open(tmp_path / "db")
        assert len(recovered) == 160
        recovered.close()

    def test_solo_commit_pays_no_batching_window(self, tmp_path):
        store = ObjectStore.open(
            tmp_path / "db",
            parse_database(SCHEMA_SOURCE),
            sync=True,
            checkpoint_every=0,
        )
        store.insert("Item", name="warm", price=1.0)
        started = time.perf_counter()
        for i in range(20):
            store.insert("Item", name=f"solo{i}", price=1.0)
        per_commit = (time.perf_counter() - started) / 20
        store.close()
        # A lone committer must fsync immediately: no 1ms-scale batching
        # window on its latency (generous bound for slow CI filesystems).
        assert per_commit < 0.05


class TestDurableSchemaChanges:
    SOURCE = """
Database SchemaDB

constants
  CAP = 100

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price <= CAP
end Item
"""

    def _open(self, path, **kwargs):
        return ObjectStore.open(path, parse_database(self.SOURCE), **kwargs)

    def test_set_constant_after_checkpoint_survives_crash(self, tmp_path):
        store = self._open(tmp_path / "db")
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        store.set_constant("CAP", 1000)
        store.insert("Item", name="b", price=500.0)  # legal only post-rebind
        del store  # crash: no close, no checkpoint

        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 1000
        assert len(recovered) == 2
        info = recovered.recovery_info
        assert info.schema_changes == 1
        assert info.schema_drift is True
        # A checkpoint folds the change in: no drift on the next recovery.
        recovered.checkpoint()
        recovered.close()
        clean = ObjectStore.open(tmp_path / "db")
        assert clean.schema.constants["CAP"] == 1000
        assert clean.recovery_info.schema_drift is False
        clean.close()

    def test_change_schema_replays_schema_surgery(self, tmp_path):
        store = self._open(tmp_path / "db")
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        # The adopted schema is frozen: surgery happens on a copy, which
        # change_schema logs wholesale and adopts.
        with pytest.raises(SchemaError):
            store.schema.set_constant("CAP", 555)
        surgery = store.schema.copy()
        surgery.set_constant("CAP", 555)
        surgery.set_constant("FLOOR", 1)
        store.change_schema(surgery)
        assert store.schema is surgery and surgery.frozen
        del store

        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 555
        assert recovered.schema.constants["FLOOR"] == 1
        assert recovered.recovery_info.schema_drift is True
        recovered.close()

    def test_schema_records_refused_inside_transactions(self, tmp_path):
        store = self._open(tmp_path / "db")
        with store.transaction():
            with pytest.raises(EngineError):
                store.set_constant("CAP", 7)
            with pytest.raises(EngineError):
                store.change_schema(store.schema.copy())
        # The refusal left schema and log consistent.
        assert store.schema.constants["CAP"] == 100
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 100
        recovered.close()

    def test_set_constant_without_checkpoint_still_replays(self, tmp_path):
        store = self._open(tmp_path / "db")
        store.set_constant("CAP", 250)
        store.insert("Item", name="a", price=200.0)
        del store
        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 250
        assert len(recovered) == 1
        recovered.close()

    def test_recover_cli_warns_and_strict_fails_on_drift(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db"
        store = self._open(path)
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        store.set_constant("CAP", 1000)
        store.close()

        assert main(["recover", str(path)]) == 0
        err = capsys.readouterr().err
        assert "schema-change record(s) newer than the snapshot" in err

        assert main(["recover", "--strict", str(path)]) == 1

        assert main(["snapshot", str(path)]) == 0
        capsys.readouterr()
        assert main(["recover", "--strict", str(path)]) == 0
        assert "schema-change" not in capsys.readouterr().err


@pytest.mark.concurrency
class TestStressCli:
    """``repro stress`` on a plain store (``--shards`` is covered with the
    sharding suite)."""

    ARGS = ["stress", "--seconds", "0.2", "--objects", "40"]

    def test_in_memory_run_audits_clean(self, capsys):
        from repro.cli import main

        assert main([*self.ARGS, "--writers", "2", "--readers", "2"]) == 0
        out = capsys.readouterr().out
        assert "over 40 object(s) in" in out
        assert "shard" not in out
        assert "all constraints hold" in out

    def test_durable_sync_run_recovers_strictly(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "db")
        args = [*self.ARGS, "--writers", "2", "--readers", "1", "--dir", path, "--sync"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fsyncs/commit" in out
        assert "all constraints hold" in out
        assert main(["recover", "--strict", path]) == 0
        assert "recovered 40 object(s)" in capsys.readouterr().out
