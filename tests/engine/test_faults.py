"""Fault-injection tests: the crash matrix, fail-stop semantics, and fsck.

The tentpole property: for arbitrary mutation histories and arbitrary
schedules of injected IO faults (torn writes, bit rot, ENOSPC, failed
fsyncs, crashes at renames), reopening the directory recovers *exactly a
committed state of the history* — never a partial mutation, never a state
the history did not pass through — and ``fsck`` detects every corruption
class the injector can produce.

Marked ``faults`` so CI can run the matrix as a dedicated job
(``REPRO_FAULTS=1`` raises the example count); the whole module also runs
in the tier-1 suite at the default count.
"""

import os
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ObjectStore
from repro.engine.faults import (
    FaultInjector,
    FaultSpec,
    SimulatedCrash,
    classify_os_error,
    flip_byte,
)
from repro.engine.wal import fsck, scan_log
from repro.errors import ConstraintViolation, EngineError, StorePoisonedError
from repro.tm import parse_database

pytestmark = pytest.mark.faults

#: Schema with single-object commits (no database constraint forcing
#: transactions), for tests that want one append/flush/fsync per insert.
FLAT_SCHEMA_SOURCE = """
Database FaultDB

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price >= 0
class constraints
  cc1: key name
end Item
"""

#: Schema with a referential database constraint, so histories mix
#: transactions, aborts and nested brackets (mirrors test_wal.py).
PAIR_SCHEMA_SOURCE = """
Database WalDB

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price >= 0
class constraints
  cc1: key name
end Item

Class Order
attributes
  item : Item
  qty  : int
object constraints
  oc2: qty >= 1
end Order

Database constraints
  db1: forall i in Item exists o in Order | o.item = i
"""


#: Schema for the rollback grid: a subclass, so shallow and deep extents
#: differ, and a database constraint a delete can break.
GRID_SCHEMA_SOURCE = """
Database GridDB

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price >= 0
class constraints
  cc1: key name
end Item

Class Special isa Item
attributes
  grade : int
end Special

Database constraints
  db_anchor: exists i in Item | i.name = "anchor"
"""


def grid_schema():
    return parse_database(GRID_SCHEMA_SOURCE)


def grid_view(reader):
    """Contents plus shallow and deep extent order, of a store or a
    snapshot."""
    return {
        (name, deep): [
            (obj.oid, dict(obj.state)) for obj in reader.extent(name, deep=deep)
        ]
        for name in ("Item", "Special")
        for deep in (False, True)
    }


def flat_schema():
    return parse_database(FLAT_SCHEMA_SOURCE)


def pair_schema():
    return parse_database(PAIR_SCHEMA_SOURCE)


def store_state(store):
    return {
        obj.oid: (obj.class_name, dict(obj.state)) for obj in store.objects()
    }


def insert_pair(store, name, price=10.0, qty=1):
    with store.transaction():
        item = store.insert("Item", name=name, price=price)
        order = store.insert("Order", item=item, qty=qty)
    return item, order


#: Everything an injected fault can surface as at the API boundary.
#: ``StorePoisonedError`` is an ``EngineError``; ``SimulatedCrash`` is a
#: ``BaseException`` so nothing in the stack can swallow it.
FAULT_EXCEPTIONS = (OSError, EngineError, SimulatedCrash)


class TestFaultPrimitives:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("wal.append", "meteor")

    def test_classification_policy(self):
        import errno

        from repro.engine.faults import UNSUPPORTED_DIR_FSYNC_ERRNOS

        assert classify_os_error(OSError(errno.EINTR, "x")) == "transient"
        assert classify_os_error(OSError(errno.EAGAIN, "x")) == "transient"
        assert classify_os_error(OSError(errno.EIO, "x")) == "fatal"
        assert classify_os_error(OSError(errno.ENOSPC, "x")) == "fatal"
        assert (
            classify_os_error(
                OSError(errno.EINVAL, "x"), UNSUPPORTED_DIR_FSYNC_ERRNOS
            )
            == "unsupported"
        )
        # The unsupported set is opt-in: without it EINVAL is fatal.
        assert classify_os_error(OSError(errno.EINVAL, "x")) == "fatal"

    def test_flip_byte_flips_in_place_and_back(self, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"abcdef")
        flip_byte(target, 2)
        assert target.read_bytes() == b"ab" + bytes([ord("c") ^ 0xFF]) + b"def"
        flip_byte(target, -4)
        assert target.read_bytes() == b"abcdef"
        with pytest.raises(ValueError, match="past the end"):
            flip_byte(target, 99)

    def test_empty_schedule_is_a_pass_through(self, tmp_path):
        injector = FaultInjector()
        target = tmp_path / "log"
        with open(target, "wb") as handle:
            injector.write(handle, b"payload", "wal.append")
            injector.flush(handle, "wal.flush")
            injector.fsync(handle.fileno(), "wal.fsync")
        assert target.read_bytes() == b"payload"
        assert injector.fired == [] and not injector.crashed
        # The no-op fast path does not even count crossings.
        assert injector.hits("wal.append") == 0

    def test_schedule_fires_at_the_named_crossing_only(self, tmp_path):
        spec = FaultSpec("wal.append", "io_error", at=1)
        injector = FaultInjector([spec])
        with open(tmp_path / "log", "wb") as handle:
            injector.write(handle, b"a", "wal.append")
            with pytest.raises(OSError, match="injected"):
                injector.write(handle, b"b", "wal.append")
            injector.write(handle, b"c", "wal.append")
        assert injector.fired == [spec]
        assert injector.hits("wal.append") == 3

    def test_byte_kinds_refuse_non_write_points(self, tmp_path):
        injector = FaultInjector([FaultSpec("wal.flush", "torn")])
        with open(tmp_path / "log", "wb") as handle:
            with pytest.raises(ValueError, match="write points"):
                injector.flush(handle, "wal.flush")


class TestAppendRollback:
    """A WAL append/flush failure mid-commit rolls the in-memory mutation
    back: memory never runs ahead of the durable prefix."""

    def test_failed_append_rolls_back_insert_and_poisons(self, tmp_path):
        injector = FaultInjector([FaultSpec("wal.append", "enospc", at=1)])
        store = ObjectStore.open(
            tmp_path / "db", schema=flat_schema(), faults=injector
        )
        store.insert("Item", name="kept", price=1.0)
        with pytest.raises(OSError, match="injected"):
            store.insert("Item", name="lost", price=2.0)
        names = {obj.state["name"] for obj in store.objects()}
        assert names == {"kept"}
        assert "append failed" in store.wal.poisoned
        with pytest.raises(StorePoisonedError):
            store.insert("Item", name="after", price=3.0)
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert {o.state["name"] for o in recovered.objects()} == {"kept"}
        assert recovered.check_all() == []
        recovered.close()

    @pytest.mark.parametrize("failure", ("reject", "wal.append", "wal.flush"))
    @pytest.mark.parametrize("op", ("insert", "update", "delete"))
    def test_failed_op_rolls_back(self, tmp_path, op, failure):
        """Every auto-commit op fails the same way at every commit stage:
        contents, extent order, consistency and snapshots are as before."""
        # Three setup inserts cross wal.append and wal.flush 0..2, so the
        # doomed op's record and commit flush are crossing 3.
        faults = [] if failure == "reject" else [FaultSpec(failure, "io_error", at=3)]
        store = ObjectStore.open(
            tmp_path / "db", schema=grid_schema(), faults=FaultInjector(faults)
        )
        anchor = store.insert("Item", name="anchor", price=1.0)
        special = store.insert("Special", name="s1", price=2.0, grade=1)
        plain = store.insert("Item", name="b", price=3.0)
        # (accepted, rejected) form of each op: the delete goes for the
        # middle of the extent, the rejected delete for db_anchor's anchor.
        accepted, rejected = {
            "insert": (
                lambda: store.insert("Item", name="new", price=4.0),
                lambda: store.insert("Item", name="new", price=-1.0),
            ),
            "update": (
                lambda: store.update(plain, price=9.0),
                lambda: store.update(plain, price=-1.0),
            ),
            "delete": (
                lambda: store.delete(special),
                lambda: store.delete(anchor),
            ),
        }[op]
        before = grid_view(store)
        order = [obj.oid for obj in store.objects()]
        pending = store.wal.pending_records
        with store.snapshot() as snap:
            with pytest.raises(ConstraintViolation if failure == "reject" else OSError):
                (rejected if failure == "reject" else accepted)()
            assert grid_view(store) == before
            assert [obj.oid for obj in store.objects()] == order
            assert grid_view(snap) == before
            with store.snapshot() as fresh:
                assert grid_view(fresh) == before
            assert store.audit() == []
            if failure != "reject":
                assert store.wal.poisoned is not None
                store.close()
                return
            # A rejected op leaves the log untouched, and the store commits
            # the next accepted op normally.
            assert store.wal.pending_records == pending
            accepted()
            assert grid_view(store) != before
            assert grid_view(snap) == before
            with store.snapshot() as fresh:
                assert grid_view(fresh) == grid_view(store)
            assert store.wal.pending_records == pending + 1
            assert store.audit() == []
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert grid_view(recovered) == grid_view(store)
        recovered.close()

    def test_failed_commit_marker_undoes_whole_transaction(self, tmp_path):
        # A pair is one append: its commit record (0).
        injector = FaultInjector([FaultSpec("wal.append", "io_error", at=0)])
        store = ObjectStore.open(
            tmp_path / "db", schema=pair_schema(), faults=injector
        )
        with pytest.raises(OSError, match="injected"):
            insert_pair(store, "doomed")
        assert store_state(store) == {}
        assert store.wal.poisoned is not None
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert store_state(recovered) == {}
        recovered.close()

    def test_failed_set_constant_leaves_the_binding_unchanged(self, tmp_path):
        source = FLAT_SCHEMA_SOURCE.replace(
            "Database FaultDB\n", "Database FaultDB\n\nconstants\n  MAX = 10\n"
        )
        injector = FaultInjector([FaultSpec("wal.append", "enospc", at=0)])
        store = ObjectStore.open(
            tmp_path / "db", schema=parse_database(source), faults=injector
        )
        with pytest.raises(OSError):
            store.set_constant("MAX", 99)
        assert store.schema.constants["MAX"] == 10
        store.close()


class TestPoisonSemantics:
    """Fail-stop: a failed commit-point fsync poisons the log — never
    retried — and the store degrades to read-only while snapshots keep
    being served."""

    def _poisoned_store(self, path):
        injector = FaultInjector([FaultSpec("wal.fsync", "io_error", at=1)])
        store = ObjectStore.open(
            path, schema=flat_schema(), sync=True, faults=injector
        )
        store.insert("Item", name="durable", price=1.0)
        with pytest.raises(StorePoisonedError, match="never retried"):
            store.insert("Item", name="flushed", price=2.0)
        return store, injector

    def test_mutations_fail_reads_survive_close_returns(self, tmp_path):
        store, injector = self._poisoned_store(tmp_path / "db")
        assert "fsync" in store.wal.poisoned
        # Every mutation class fails fast with StorePoisonedError.
        obj = next(iter(store.objects()))
        with pytest.raises(StorePoisonedError):
            store.insert("Item", name="more", price=3.0)
        with pytest.raises(StorePoisonedError):
            store.update(obj, price=5.0)
        with pytest.raises(StorePoisonedError):
            store.delete(obj)
        with pytest.raises(StorePoisonedError):
            store.set_constant("MAX", 1)
        with pytest.raises(StorePoisonedError):
            with store.transaction():
                pass
        # Reads are still served: live scans and MVCC snapshots alike.
        assert {o.state["name"] for o in store.objects()} == {
            "durable",
            "flushed",
        }
        with store.snapshot() as snap:
            assert len(snap.extent("Item")) == 2
        # close() neither raises nor hangs on the poisoned log.
        store.close()

    def test_refused_transaction_entry_leaves_no_bookkeeping(self, tmp_path):
        store, _ = self._poisoned_store(tmp_path / "db")
        with pytest.raises(StorePoisonedError):
            with store.transaction():
                pass
        assert store._deferred is False
        assert store._undo_stack == []
        assert store._undo is None and store._delta is None
        # Still outside any transaction: refusals name the poisoned log,
        # not an open transaction.
        with pytest.raises(StorePoisonedError):
            store.set_constant("MAX", 1)
        store.close()

    def test_fsync_is_never_retried(self, tmp_path):
        store, injector = self._poisoned_store(tmp_path / "db")
        failures = injector.hits("wal.fsync")
        for _ in range(3):
            with pytest.raises(StorePoisonedError):
                store.insert("Item", name="retry-bait", price=1.0)
        # The rejected mutations never reached another fsync attempt.
        assert injector.hits("wal.fsync") == failures
        store.close()
        assert injector.hits("wal.fsync") == failures

    def test_reopen_recovers_the_flushed_prefix(self, tmp_path):
        store, _ = self._poisoned_store(tmp_path / "db")
        store.close()
        # The simulated fsync failure did not wipe the OS page cache, so
        # the flushed-but-unsynced record is still in the file; recovery
        # replays whatever prefix the "disk" holds — here, both inserts.
        recovered = ObjectStore.open(tmp_path / "db")
        assert {o.state["name"] for o in recovered.objects()} == {
            "durable",
            "flushed",
        }
        assert recovered.check_all() == []
        recovered.close()


class TestGroupCommitPoisonPropagation:
    def test_all_waiters_fail_when_the_leader_fsync_dies(self, tmp_path):
        """Satellite regression: with the leader's fsync dead, followers
        must raise StorePoisonedError — not hang, not falsely succeed,
        not elect themselves leader and retry the fsync."""
        injector = FaultInjector([FaultSpec("wal.fsync", "io_error", at=0)])
        store = ObjectStore.open(
            tmp_path / "db",
            schema=flat_schema(),
            sync=True,
            faults=injector,
        )
        barrier = threading.Barrier(2)
        outcomes: dict[int, BaseException | str] = {}

        def committer(slot):
            barrier.wait()
            try:
                store.insert("Item", name=f"n{slot}", price=1.0)
                outcomes[slot] = "committed"
            except BaseException as exc:
                outcomes[slot] = exc

        threads = [
            threading.Thread(target=committer, args=(slot,), daemon=True)
            for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads), "waiter hung"
        assert sorted(outcomes) == [0, 1]
        for outcome in outcomes.values():
            assert isinstance(outcome, StorePoisonedError), outcome
        # Exactly one fsync was ever attempted: no follower re-led.
        assert injector.hits("wal.fsync") == 1
        store.close()

    def test_already_durable_waiters_succeed_past_later_poison(self, tmp_path):
        """A ticket covered by a completed fsync is durable no matter what
        happens afterwards."""
        injector = FaultInjector([FaultSpec("wal.fsync", "io_error", at=1)])
        store = ObjectStore.open(
            tmp_path / "db",
            schema=flat_schema(),
            sync=True,
            faults=injector,
        )
        store.insert("Item", name="first", price=1.0)  # fsync 0 succeeds
        with pytest.raises(StorePoisonedError):
            store.insert("Item", name="second", price=2.0)
        # Redeeming the already-synced ticket again must not raise.
        store.wal.wait_durable(0)
        store.close()


class TestResumeAndCloseWindows:
    """Satellite: every crash window inside resume-time tail truncation
    leaves the committed prefix recoverable."""

    def _crashed_dir(self, tmp_path):
        """A directory captured mid-append: committed pair 'keep' plus the
        next pair's commit record cut mid-frame (needs resume truncation)."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=pair_schema())
        insert_pair(store, "keep")
        insert_pair(store, "torn")
        store.close()
        crashed = tmp_path / "crashed"
        crashed.mkdir()
        shutil.copyfile(path / "snapshot.json", crashed / "snapshot.json")
        data = (path / "wal.jsonl").read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        (crashed / "wal.jsonl").write_bytes(data[: (last + len(data)) // 2])
        return crashed

    def _assert_recovers_keep(self, path):
        recovered = ObjectStore.open(path)
        assert {
            o.state["name"]
            for o in recovered.objects()
            if o.class_name == "Item"
        } == {"keep"}
        assert recovered.check_all() == []
        recovered.close()

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("wal.resume_truncate", "crash"),
            FaultSpec("wal.resume_truncate", "crash_after"),
            FaultSpec("wal.resume_fsync", "crash"),
        ],
        ids=["before-truncate", "after-truncate", "at-fsync"],
    )
    def test_crash_during_resume_truncation_is_recoverable(
        self, tmp_path, spec
    ):
        crashed = self._crashed_dir(tmp_path)
        with pytest.raises(SimulatedCrash):
            ObjectStore.open(crashed, faults=FaultInjector([spec]))
        self._assert_recovers_keep(crashed)

    def test_io_error_during_resume_truncation_fails_the_open(self, tmp_path):
        crashed = self._crashed_dir(tmp_path)
        injector = FaultInjector([FaultSpec("wal.resume_truncate", "io_error")])
        with pytest.raises(OSError, match="injected"):
            ObjectStore.open(crashed, faults=injector)
        self._assert_recovers_keep(crashed)

    def test_close_after_poison_leaves_a_recoverable_directory(self, tmp_path):
        injector = FaultInjector([FaultSpec("wal.append", "enospc", at=2)])
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=flat_schema(), faults=injector)
        store.insert("Item", name="a", price=1.0)
        store.insert("Item", name="b", price=2.0)
        with pytest.raises(OSError):
            store.insert("Item", name="c", price=3.0)
        store.close()  # poisoned close: skips the flush, must not raise
        recovered = ObjectStore.open(path)
        assert {o.state["name"] for o in recovered.objects()} == {"a", "b"}
        recovered.close()


class TestDirectoryFsyncClassification:
    """Satellite: directory-fsync errors are classified (and counted),
    not silently swallowed."""

    def test_unsupported_is_counted_and_skipped(self, tmp_path):
        injector = FaultInjector([FaultSpec("dir.fsync", "unsupported")])
        store = ObjectStore.open(
            tmp_path / "db", schema=flat_schema(), faults=injector
        )
        assert store.wal.telemetry.get("dir_fsync_unsupported", 0) >= 1
        store.insert("Item", name="works", price=1.0)
        store.close()

    def test_transient_is_retried_and_counted(self, tmp_path):
        injector = FaultInjector([FaultSpec("dir.fsync", "transient")])
        store = ObjectStore.open(
            tmp_path / "db", schema=flat_schema(), faults=injector
        )
        assert store.wal.telemetry.get("dir_fsync_retries", 0) >= 1
        assert store.wal.poisoned is None
        store.close()

    def test_fatal_raises_instead_of_swallowing(self, tmp_path):
        injector = FaultInjector([FaultSpec("dir.fsync", "io_error")])
        with pytest.raises(OSError, match="injected"):
            ObjectStore.open(
                tmp_path / "db", schema=flat_schema(), faults=injector
            )


class TestFsck:
    """The scrubber detects every corruption class the injector produces,
    never mutates, and grades clean/truncatable/fatal correctly."""

    def _populated(self, tmp_path, name="db"):
        path = tmp_path / name
        store = ObjectStore.open(path, schema=pair_schema())
        insert_pair(store, "one")
        store.checkpoint()
        insert_pair(store, "two")
        store.close()
        return path

    def _freeze(self, path):
        return {
            child.name: child.read_bytes() for child in sorted(path.iterdir())
        }

    def test_clean_store(self, tmp_path):
        path = self._populated(tmp_path)
        report = fsck(path)
        assert report.status == "clean" and report.exit_code == 0
        assert report.findings == []
        assert report.objects == 4 and report.frames_valid > 0

    def test_fsck_never_mutates(self, tmp_path):
        path = self._populated(tmp_path)
        flip_byte(path / "wal.jsonl", 4)
        before = self._freeze(path)
        fsck(path)
        assert self._freeze(path) == before

    def test_torn_log_tail(self, tmp_path):
        path = self._populated(tmp_path)
        log = path / "wal.jsonl"
        log.write_bytes(log.read_bytes()[:-4])
        report = fsck(path)
        assert report.status == "truncatable" and report.exit_code == 1
        assert any("torn or corrupt frame" in f for f in report.findings)

    def test_bit_flipped_log_frame(self, tmp_path):
        path = self._populated(tmp_path)
        flip_byte(path / "wal.jsonl", 2)  # inside the first frame's CRC
        report = fsck(path)
        assert report.status == "truncatable"
        assert report.frames_valid == 0

    def test_bit_flipped_snapshot_with_fallback(self, tmp_path):
        path = self._populated(tmp_path)
        flip_byte(path / "snapshot.json", -10)
        report = fsck(path)
        assert report.status == "truncatable"
        assert any("falls back" in f for f in report.findings)

    def test_digest_mismatch_on_valid_json(self, tmp_path):
        # Bit rot that still parses as JSON: only the digest catches it.
        path = self._populated(tmp_path)
        snapshot = path / "snapshot.json"
        data = snapshot.read_bytes()
        mutated = data.replace(b'"counter":', b'"counter_":', 1)
        assert mutated != data
        snapshot.write_bytes(mutated)
        report = fsck(path)
        assert report.status == "truncatable"
        assert any("digest mismatch" in f for f in report.findings)

    def test_edited_snapshot_without_digest_falls_back(self, tmp_path, snapshot_file):
        # An edit that also strips the digest: still refused, so recovery
        # falls back to the retained previous snapshot.
        path = self._populated(tmp_path)
        snapshot = path / "snapshot.json"
        body = snapshot_file.read(snapshot)
        body["counter"] += 1000
        snapshot_file.seal(snapshot, body, digest=False)
        report = fsck(path)
        assert report.status == "truncatable"
        assert any("digest mismatch" in f and "falls back" in f for f in report.findings)
        recovered = ObjectStore.open(path)
        assert recovered.recovery_info.used_fallback_snapshot
        recovered.close()

    def test_both_snapshots_damaged_is_fatal(self, tmp_path):
        path = self._populated(tmp_path)
        flip_byte(path / "snapshot.json", -10)
        flip_byte(path / "snapshot.prev.json", -10)
        report = fsck(path)
        assert report.status == "fatal" and report.exit_code == 2
        assert any("no intact fallback" in f for f in report.findings)

    def test_missing_snapshot_with_fallback(self, tmp_path):
        path = self._populated(tmp_path)
        (path / "snapshot.json").unlink()
        report = fsck(path)
        assert report.status == "truncatable"
        assert any("rotation" in f for f in report.findings)

    def test_damaged_fallback_alone_degrades(self, tmp_path):
        path = self._populated(tmp_path)
        flip_byte(path / "snapshot.prev.json", -10)
        report = fsck(path)
        assert report.status == "truncatable"
        assert any("fallback protection lost" in f for f in report.findings)

    def test_uncommitted_transaction_tail(self, tmp_path):
        # An open transaction has written nothing: a copy taken inside it
        # holds only committed records, with no tail to truncate.
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=pair_schema())
        insert_pair(store, "keep")
        with store.transaction():
            item = store.insert("Item", name="wip", price=1.0)
            store.insert("Order", item=item, qty=1)
            store.wal.flush()
            frozen = tmp_path / "frozen"
            frozen.mkdir()
            shutil.copyfile(path / "snapshot.json", frozen / "snapshot.json")
            shutil.copyfile(path / "wal.jsonl", frozen / "wal.jsonl")
        store.close()
        report = fsck(frozen)
        assert report.status == "clean"
        assert report.tail_bytes == 0

    def test_empty_directory_and_bare_log_are_fatal(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert fsck(empty).status == "fatal"
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "wal.jsonl").write_bytes(b"")
        report = fsck(bare)
        assert report.status == "fatal"
        assert any("replay" in f for f in report.findings)

    def test_fsck_matches_recovery_for_every_injected_corruption(
        self, tmp_path
    ):
        """fsck's verdict agrees with what ObjectStore.open then does:
        truncatable directories reopen to a clean store, fatal ones
        refuse."""
        recipes = {
            "torn": lambda p: (p / "wal.jsonl").write_bytes(
                (p / "wal.jsonl").read_bytes()[:-3]
            ),
            "log-rot": lambda p: flip_byte(p / "wal.jsonl", 2),
            "snapshot-rot": lambda p: flip_byte(p / "snapshot.json", -10),
            "half-rotation": lambda p: (p / "snapshot.json").unlink(),
            "double-rot": lambda p: (
                flip_byte(p / "snapshot.json", -10),
                flip_byte(p / "snapshot.prev.json", -10),
            ),
        }
        for name, corrupt in recipes.items():
            path = self._populated(tmp_path, name)
            corrupt(path)
            report = fsck(path)
            assert report.status in ("truncatable", "fatal"), name
            if report.status == "truncatable":
                recovered = ObjectStore.open(path)
                assert recovered.check_all() == []
                recovered.close()
                # Reopen repaired the damage: the directory scrubs clean
                # (modulo a fallback not yet re-rotated by a checkpoint).
                after = fsck(path)
                assert after.status in ("clean", "truncatable"), name
                assert after.exit_code <= report.exit_code
            else:
                with pytest.raises(EngineError):
                    ObjectStore.open(path)


# ---------------------------------------------------------------------------
# the crash matrix
# ---------------------------------------------------------------------------

#: Fault points exercised by the matrix.  Snapshot *content* corruption
#: (bit rot on snapshot files) is covered separately by TestFsck — in the
#: matrix every fault is either loud (errno), a crash, or log-byte damage
#: the CRC framing catches, so recovery is always expected to succeed.
_MATRIX_POINTS = [
    "wal.append",
    "wal.flush",
    "wal.fsync",
    "snapshot.fsync",
    "snapshot.replace",
    "snapshot.retain",
    "dir.fsync",
    "log.reset_fsync",
    "log.reset_replace",
]

_ERRNO_KINDS = [
    "enospc",
    "io_error",
    "transient",
    "unsupported",
    "crash",
    "crash_after",
]

_generic_faults = st.builds(
    FaultSpec,
    point=st.sampled_from(_MATRIX_POINTS),
    kind=st.sampled_from(_ERRNO_KINDS),
    at=st.integers(0, 8),
)
_write_faults = st.builds(
    FaultSpec,
    point=st.just("wal.append"),
    kind=st.sampled_from(["torn", "bit_flip"]),
    at=st.integers(0, 8),
    arg=st.integers(0, 64),
)
_schedules = st.lists(st.one_of(_generic_faults, _write_faults), max_size=3)

_steps = st.lists(
    st.tuples(
        st.sampled_from(["pair", "update", "delete", "txn"]),
        st.integers(0, 5),
        st.integers(1, 4),
        st.booleans(),
    ),
    max_size=8,
)

_MATRIX_EXAMPLES = 120 if os.environ.get("REPRO_FAULTS") else 25


def _apply_step(store, step):
    kind, index, qty, abort = step
    if kind == "pair":
        insert_pair(store, f"item-{index}", price=float(index), qty=qty)
    elif kind == "update":
        orders = store.extent("Order")
        if orders:
            store.update(orders[index % len(orders)], qty=qty)
    elif kind == "delete":
        items = store.extent("Item")
        if items:
            victim = items[index % len(items)]
            with store.transaction():
                for order in store.extent("Order"):
                    if order.state["item"] == victim.oid:
                        store.delete(order)
                store.delete(victim)
    elif kind == "txn":
        with store.transaction():
            insert_pair(store, f"txn-{index}", price=1.0, qty=qty)
            if abort:
                raise RuntimeError("scripted abort")


class TestCrashMatrix:
    """Tentpole property: arbitrary histories × arbitrary fault schedules
    never lose a committed prefix and never resurrect uncommitted work."""

    @settings(max_examples=_MATRIX_EXAMPLES, deadline=None)
    @given(steps=_steps, schedule=_schedules)
    def test_recovery_always_yields_a_committed_state(self, steps, schedule):
        base = Path(tempfile.mkdtemp(prefix="repro-faults-"))
        try:
            self._run_one(base / "db", steps, schedule)
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def _run_one(self, path, steps, schedule):
        injector = FaultInjector(schedule=schedule)
        created = True
        candidates = [{}]
        store = None
        try:
            store = ObjectStore.open(
                path,
                schema=pair_schema(),
                sync=True,
                checkpoint_every=3,
                faults=injector,
            )
        except FAULT_EXCEPTIONS:
            created = False
        if store is not None:
            # A fault-free in-memory shadow runs the same history in
            # lockstep (oid issue is deterministic, so states compare
            # directly).  It supplies the one candidate the real store
            # cannot: a crash *after* the commit record reached the OS
            # rolls the in-memory mutation back, yet recovery rightly
            # replays the durably committed transaction.
            shadow = ObjectStore(pair_schema(), wal=False)
            candidates = [store_state(store)]
            for step in steps:
                try:
                    _apply_step(shadow, step)
                except (ConstraintViolation, RuntimeError):
                    pass
                shadow_after = store_state(shadow)
                try:
                    _apply_step(store, step)
                    candidates.append(store_state(store))
                except (ConstraintViolation, RuntimeError):
                    candidates.append(store_state(store))
                except FAULT_EXCEPTIONS:
                    # Two acceptable durable outcomes: the rolled-back
                    # in-memory state (fault before the commit point
                    # decided) and the shadow's post-step state (fault
                    # after the decision — e.g. a crash just past the
                    # flushed commit record, or a failed commit fsync
                    # whose flushed bytes survive in the page cache).
                    candidates.append(store_state(store))
                    candidates.append(shadow_after)
                    break
                if store.wal.poisoned is not None:
                    break
            try:
                store.close()
            except FAULT_EXCEPTIONS:
                pass

        # Recovery: a fresh process with no injector reopens the directory.
        try:
            recovered = ObjectStore.open(path)
        except EngineError:
            # Unrecoverable is acceptable only when the store's creation
            # itself was interrupted — nothing was ever durably committed.
            assert not created
            return
        try:
            assert store_state(recovered) in candidates
            assert recovered.check_all() == []
            # The full audit also certifies the rebuilt indexes.
            for class_name in ("Item", "Order"):
                indexed = [o.oid for o in recovered.extent(class_name)]
                scanned = sorted(
                    (
                        o.oid
                        for o in recovered.objects()
                        if o.class_name == class_name
                    ),
                    key=lambda oid: int(oid.rsplit("#", 1)[-1]),
                )
                assert indexed == scanned
            # And the scrubber agrees the directory is now recoverable.
            report = fsck(path)
            assert report.status in ("clean", "truncatable")
        finally:
            recovered.close()


#: Schema whose object constraint reads a constant, so a data commit can
#: be legal only under a rebind.
CAP_SCHEMA_SOURCE = """
Database CapDB

constants
  CAP = 10

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price <= CAP
end Item
"""


class TestSchemaChangeCrashWindows:
    """The crash matrix around the one schema write path: a schema record
    is appended and flushed before the store adopts the value, and the
    checkpoint policy runs after adoption."""

    @pytest.mark.parametrize(
        "at, kind, cap",
        [
            # Crossing 1 is the schema record, crossing 2 the data commit
            # after it (crossing 0 is the first insert).
            (1, "torn", 10),
            (1, "crash", 10),
            (1, "io_error", 10),
            (2, "torn", 1000),
            (2, "crash", 1000),
            (2, "io_error", 1000),
        ],
    )
    def test_crash_between_a_schema_commit_and_the_next_data_commit(
        self, tmp_path, at, kind, cap
    ):
        injector = FaultInjector([FaultSpec("wal.append", kind, at=at)])
        store = ObjectStore.open(
            tmp_path / "db",
            schema=parse_database(CAP_SCHEMA_SOURCE),
            faults=injector,
        )
        store.insert("Item", name="a", price=5.0)
        try:
            store.set_constant("CAP", 1000)
            store.insert("Item", name="b", price=500.0)  # legal only post-rebind
        except FAULT_EXCEPTIONS:
            pass
        assert injector.hits("wal.append") == at + 1
        # Memory never runs ahead of the log: the schema is adopted only
        # once its record is flushed.
        assert store.schema.constants["CAP"] == cap
        assert store_state(store) == {"Item#1": ("Item", {"name": "a", "price": 5.0})}
        del store  # crash: no close

        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == cap
        assert store_state(recovered) == {
            "Item#1": ("Item", {"name": "a", "price": 5.0})
        }
        assert recovered.recovery_info.schema_drift is (cap == 1000)
        assert recovered.check_all() == []
        if cap == 1000:
            recovered.insert("Item", name="b", price=500.0)
        else:
            with pytest.raises(ConstraintViolation, match="oc1"):
                recovered.insert("Item", name="b", price=500.0)
        recovered.close()

    def test_checkpoint_right_after_a_schema_change_holds_the_new_schema(
        self, tmp_path
    ):
        path = tmp_path / "db"
        store = ObjectStore.open(
            path, schema=parse_database(CAP_SCHEMA_SOURCE), checkpoint_every=1
        )
        store.insert("Item", name="a", price=5.0)
        store.set_constant("CAP", 1000)
        # The policy checkpointed after adoption: the log is folded away.
        assert store.wal.pending_records == 0
        del store  # crash: no close

        recovered = ObjectStore.open(path)
        assert recovered.schema.constants["CAP"] == 1000
        info = recovered.recovery_info
        assert info.schema_changes == 0 and info.schema_drift is False
        recovered.insert("Item", name="b", price=500.0)
        recovered.close()

    def test_format_2_directory_is_refused(self, tmp_path, snapshot_file):
        """Format 2 logged constant rebinds as their own record kind, which
        this reader would skip as unknown and so silently lose."""
        from repro.engine.wal import _frame

        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=parse_database(CAP_SCHEMA_SOURCE))
        store.insert("Item", name="a", price=5.0)
        store.checkpoint()
        store.close()
        for name in ("snapshot.prev.json", "snapshot.json"):
            payload = snapshot_file.read(path / name)
            snapshot_file.seal(path / name, payload, fmt=2)
        with open(path / "wal.jsonl", "ab") as log:
            log.write(_frame({
                "n": payload["next_lsn"],
                "t": "set_constant",
                "name": "CAP",
                "value": 1000,
            }))
        with pytest.raises(EngineError, match="unsupported snapshot format"):
            ObjectStore.open(path)
        assert fsck(path).status == "fatal"


class TestDurableCliFaultHandling:
    """Satellite: `repro recover` / `repro snapshot` / `repro fsck` on
    corrupt, empty, and missing durable files."""

    def _populated(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=pair_schema())
        insert_pair(store, "one")
        store.checkpoint()
        insert_pair(store, "two")
        store.close()
        return path

    def test_fsck_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["fsck", str(path)]) == 0
        assert "clean" in capsys.readouterr().out
        log = path / "wal.jsonl"
        log.write_bytes(log.read_bytes()[:-4])
        assert main(["fsck", str(path)]) == 1
        captured = capsys.readouterr()
        assert "truncatable" in captured.out
        assert "torn or corrupt frame" in captured.err
        flip_byte(path / "snapshot.json", -10)
        flip_byte(path / "snapshot.prev.json", -10)
        assert main(["fsck", str(path)]) == 2
        assert "fatal" in capsys.readouterr().out

    def test_fsck_cli_deep_audit(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["fsck", str(path), "--deep"]) == 0
        assert "all constraints hold" in capsys.readouterr().out
        # A violating history: deep audit reports it, plain scrub cannot.
        bad = tmp_path / "bad"
        store = ObjectStore.open(bad, schema=pair_schema(), enforce=False)
        store.insert("Item", name="orphan", price=-1.0)
        store.close()
        assert main(["fsck", str(bad)]) == 0
        assert main(["fsck", str(bad), "--deep"]) == 1
        assert "violation" in capsys.readouterr().err

    def test_fsck_cli_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fsck", str(tmp_path / "missing")]) == 2
        assert "no durable store" in capsys.readouterr().err

    def test_recover_survives_torn_log(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        log = path / "wal.jsonl"
        log.write_bytes(log.read_bytes()[:-4])
        assert main(["recover", str(path)]) == 0
        assert "all constraints hold" in capsys.readouterr().out

    def test_recover_warns_on_snapshot_fallback(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        flip_byte(path / "snapshot.json", -10)
        assert main(["recover", str(path)]) == 0
        captured = capsys.readouterr()
        assert "retained previous snapshot" in captured.err

    def test_recover_rejects_unrecoverable_store(self, tmp_path):
        from repro.cli import main

        path = self._populated(tmp_path)
        flip_byte(path / "snapshot.json", -10)
        flip_byte(path / "snapshot.prev.json", -10)
        with pytest.raises(SystemExit, match="cannot open"):
            main(["recover", str(path)])

    def test_recover_empty_log_file(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        (path / "wal.jsonl").write_bytes(b"")
        assert main(["recover", str(path)]) == 0
        assert "recovered" in capsys.readouterr().out

    def test_snapshot_repairs_fallback_directory(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        (path / "snapshot.json").unlink()
        assert main(["snapshot", str(path)]) == 0
        captured = capsys.readouterr()
        assert "retained previous snapshot" in captured.err
        assert "checkpointed" in captured.out
        # The checkpoint re-established a clean, fully rotated directory.
        assert fsck(path).status == "clean"
        records, _, torn = scan_log((path / "wal.jsonl").read_bytes())
        assert records == [] and not torn

    def _fallback(self, tmp_path):
        path = self._populated(tmp_path)
        flip_byte(path / "snapshot.json", -10)
        return path

    def _lsn_gap(self, tmp_path):
        # Two checkpoints, so the log restarts above the retained previous
        # snapshot's LSN horizon; damaging the newest one forces the
        # fallback onto a base the log cannot replay onto.
        path = self._populated(tmp_path)
        store = ObjectStore.open(path)
        store.checkpoint()
        insert_pair(store, "three")
        store.close()
        flip_byte(path / "snapshot.json", -10)
        return path

    def _drift(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(
            path,
            parse_database(
                "Database DriftDB\n\nconstants\n  CAP = 100\n\n"
                "Class Item\nattributes\n  name : string\n  price : real\n"
                "object constraints\n  oc1: price <= CAP\nend Item\n"
            ),
        )
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        store.set_constant("CAP", 1000)
        store.close()
        return path

    @pytest.mark.parametrize(
        "build, expected",
        [
            ("_fallback", "falls back"),
            ("_lsn_gap", "LSN gap"),
            ("_drift", "schema-change record(s) newer than the snapshot"),
        ],
    )
    def test_recover_warns_in_fscks_words(self, tmp_path, capsys, build, expected):
        """`repro recover` and `repro fsck` word recovery's findings once:
        every warning recover prints is one of fsck's findings."""
        from repro.cli import main

        path = getattr(self, build)(tmp_path)
        findings = fsck(path).findings
        assert any(expected in finding for finding in findings)
        capsys.readouterr()
        assert main(["recover", str(path)]) == 0
        warnings = [
            line.removeprefix("warning: ")
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning: ")
        ]
        assert warnings
        assert all(warning in findings for warning in warnings)
