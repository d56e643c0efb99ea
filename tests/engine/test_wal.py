"""Durability tests: write-ahead logging, snapshot checkpoints, and crash
recovery.

The central invariant (the paper's durable-component assumption): whatever
prefix of the log survives a crash, ``ObjectStore.open`` recovers *exactly a
prefix of the committed history* — never an aborted or uncommitted write,
never a constraint-violating state — with the maintained indexes rebuilt
consistent with the recovered contents.
"""

import hashlib
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ObjectStore, WriteAheadLog
from repro.engine.oracle import Oracle
from repro.engine.indexes import oid_counter
from repro.engine.wal import (
    _frame,
    decode_state,
    encode_state,
    fsck,
    load_image,
    scan_log,
)
from repro.errors import ConstraintViolation, EngineError
from repro.tm import parse_database

SCHEMA_SOURCE = """
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


def fresh_schema():
    return parse_database(SCHEMA_SOURCE)


def store_state(store):
    """Comparable image of a store's contents."""
    return {
        obj.oid: (obj.class_name, dict(obj.state)) for obj in store.objects()
    }


def insert_pair(store, name, price=10.0, qty=1):
    """Insert an Item plus the Order that satisfies db1, transactionally."""
    with store.transaction():
        item = store.insert("Item", name=name, price=price)
        order = store.insert("Order", item=item, qty=qty)
    return item, order


def truncated_copy(source: Path, target: Path, wal_bytes: bytes) -> Path:
    """A durable directory with the same snapshot but a cut-down log."""
    target.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(source / "snapshot.json", target / "snapshot.json")
    (target / "wal.jsonl").write_bytes(wal_bytes)
    return target


class TestCodecAndFraming:
    def test_state_roundtrip_preserves_value_kinds(self):
        state = {
            "s": "text",
            "i": 3,
            "f": 2.5,
            "b": True,
            "set": frozenset({"a", "b"}),
            "nested": frozenset({frozenset({"x"}), frozenset()}),
        }
        decoded = decode_state(encode_state(state))
        assert decoded == state
        assert isinstance(decoded["set"], frozenset)
        assert isinstance(decoded["i"], int) and not isinstance(decoded["b"], int) or decoded["b"] is True

    def test_unserializable_value_is_rejected(self):
        with pytest.raises(EngineError, match="cannot serialize"):
            encode_state({"x": object()})

    def test_scan_stops_at_corrupt_line_keeping_prefix(self, tmp_path):
        store = ObjectStore.open(tmp_path / "db", schema=fresh_schema())
        insert_pair(store, "n1")
        insert_pair(store, "n2")
        store.close()
        data = (tmp_path / "db" / "wal.jsonl").read_bytes()
        records, valid, torn = scan_log(data)
        assert not torn and valid == len(data) and len(records) == 2
        # Flip one byte in the last record's payload: CRC catches it.
        broken = data[:-3] + bytes([data[-3] ^ 0xFF]) + data[-2:]
        records2, valid2, torn2 = scan_log(broken)
        assert torn2 and len(records2) == len(records) - 1
        assert valid2 < len(broken)


class TestDurabilityRoundtrip:
    def test_recovery_restores_contents_counter_and_indexes(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        item, order = insert_pair(store, "book", price=12.5)
        store.update(order, qty=3)
        item2, _ = insert_pair(store, "cd")
        with store.transaction():
            for other in store.extent("Order"):
                if other.state["item"] == item2.oid:
                    store.delete(other)
            store.delete(item2)
        store.close()

        recovered = ObjectStore.open(path)
        assert store_state(recovered) == store_state(store)
        assert recovered.check_all() == []
        # The oid counter continues past everything the history issued.
        fresh = insert_pair(recovered, "new")[0]
        assert int(fresh.oid.rsplit("#", 1)[-1]) > int(
            item2.oid.rsplit("#", 1)[-1]
        )
        # Extents resolve from rebuilt indexes in insertion order.
        assert [o.oid for o in recovered.extent("Item")] == sorted(
            (o.oid for o in recovered.objects() if o.class_name == "Item"),
            key=lambda oid: int(oid.rsplit("#", 1)[-1]),
        )
        recovered.close()

    def test_recovered_store_matches_the_oracle(self, tmp_path):
        """Recovery rebuilds the indexes from the logged contents: the
        reopened store matches the oracle fed the same history — rejected
        operations, a rollback resurrection and extent order included."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        oracle = Oracle(fresh_schema())
        for target in (store, oracle):
            for index in range(5):
                insert_pair(target, f"n{index}", price=float(index))
            with pytest.raises(ConstraintViolation):
                target.insert("Item", name="orphan", price=1.0)  # db1
            with pytest.raises(ConstraintViolation):
                target.update(target.extent("Item")[2], name="n0")  # cc1
            with pytest.raises(RuntimeError):
                with target.transaction():
                    for order in target.extent("Order")[:2]:
                        target.delete(order)
                    raise RuntimeError("abort")
            order = target.extent("Order")[3]
            with target.transaction():
                target.delete(order)
                target.delete(order.state["item"])
        store.close()
        recovered = ObjectStore.open(path)
        recovered.close()
        for class_name in ("Item", "Order"):
            assert [o.oid for o in recovered.extent(class_name)] == [
                o.oid for o in oracle.extent(class_name)
            ]
        assert store_state(recovered) == store_state(oracle)

    def test_recovery_orders_a_log_written_out_of_oid_order(self, tmp_path):
        """Recovery trusts an image already in oid order and sorts one that
        is not: two commit records whose redo sets are swapped replay the
        later oids first, and the store still comes back in oid order."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        for name in ("a", "b", "c"):
            insert_pair(store, name)
        expected = store_state(store)
        store.close()
        log = path / "wal.jsonl"
        records = [json.loads(line.split(b":", 1)[1]) for line in log.read_bytes().splitlines()]
        records[0]["ops"], records[2]["ops"] = records[2]["ops"], records[0]["ops"]
        log.write_bytes(b"".join(_frame(record) for record in records))

        recovered = ObjectStore.open(path)
        oids = [obj.oid for obj in recovered.objects()]
        assert oids == sorted(oids, key=oid_counter) == list(expected)
        assert store_state(recovered) == expected
        assert [o.oid for o in recovered.extent("Item")] == [
            oid for oid in oids if oid.startswith("Item#")
        ]
        assert oid_counter(insert_pair(recovered, "d")[0].oid) == len(oids) + 1
        recovered.close()

    def test_frozenset_attributes_survive_recovery(self, tmp_path):
        source = """
        Database SetDB
        Class Doc
        attributes
          tags : P string
        end Doc
        """
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=parse_database(source))
        store.insert("Doc", tags=frozenset({"a", "b"}))
        store.close()
        recovered = ObjectStore.open(path)
        (doc,) = recovered.extent("Doc")
        assert doc.state["tags"] == frozenset({"a", "b"})
        recovered.close()

    def test_open_missing_directory_requires_schema(self, tmp_path):
        with pytest.raises(EngineError, match="pass a schema"):
            ObjectStore.open(tmp_path / "nowhere")

    def test_plain_init_refuses_existing_durable_state(self, tmp_path):
        path = tmp_path / "db"
        ObjectStore.open(path, schema=fresh_schema()).close()
        with pytest.raises(EngineError, match="use ObjectStore.open"):
            ObjectStore(fresh_schema(), wal=path)

    def test_recovery_with_verify_raises_on_violating_history(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), enforce=False)
        store.insert("Item", name="orphan", price=-1.0)  # violates oc1 + db1
        store.close()
        with pytest.raises(ConstraintViolation, match="recovery") as info:
            ObjectStore.open(path)
        assert "WalDB.Item.oc1" in info.value.constraint_names
        audited = ObjectStore.open(path, verify=False)
        assert audited.check_all() != []
        audited.close()


class TestTransactionMarkers:
    def test_aborted_transaction_never_recovers(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        with pytest.raises(RuntimeError):
            with store.transaction():
                insert_pair(store, "ghost")
                raise RuntimeError("abort")
        store.close()
        recovered = ObjectStore.open(path)
        names = {o.state["name"] for o in recovered.extent("Item")}
        assert names == {"keep"}
        assert recovered.check_all() == []
        recovered.close()

    def test_inner_commit_inside_aborted_outer_never_recovers(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        with pytest.raises(RuntimeError):
            with store.transaction():
                with store.transaction():
                    insert_pair(store, "inner")
                raise RuntimeError("outer abort")
        store.close()
        recovered = ObjectStore.open(path)
        assert {o.state["name"] for o in recovered.extent("Item")} == {"keep"}
        recovered.close()

    def test_crash_mid_transaction_discards_uncommitted_tail(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        with store.transaction():
            item = store.insert("Item", name="wip", price=1.0)
            store.insert("Order", item=item, qty=1)
            store.wal.flush()
            # Crash: copy the durable directory while the transaction is
            # still open — its records are on disk but unterminated.
            crashed = truncated_copy(
                path, tmp_path / "crashed", (path / "wal.jsonl").read_bytes()
            )
        store.close()
        recovered = ObjectStore.open(crashed)
        assert {o.state["name"] for o in recovered.extent("Item")} == {"keep"}
        assert recovered.check_all() == []
        recovered.close()

    def test_commits_after_crash_mid_transaction_survive_next_recovery(
        self, tmp_path
    ):
        """Regression: the stale ``begin`` of a crashed transaction must be
        truncated at resume time.  Left in the log, it would open a bracket
        that never closes and silently swallow every record a *later*
        session commits (brackets are matched positionally)."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        with store.transaction():
            item = store.insert("Item", name="wip", price=1.0)
            store.insert("Order", item=item, qty=1)
            store.wal.flush()
            crashed = truncated_copy(
                path, tmp_path / "crashed", (path / "wal.jsonl").read_bytes()
            )
        store.close()

        # Session 2: recover the crash image, then commit new work.
        second = ObjectStore.open(crashed)
        assert {o.state["name"] for o in second.extent("Item")} == {"keep"}
        insert_pair(second, "second-txn")
        second.close()

        # Session 3: both sessions' committed writes are still there.
        third = ObjectStore.open(crashed)
        assert {o.state["name"] for o in third.extent("Item")} == {
            "keep",
            "second-txn",
        }
        assert third.check_all() == []
        third.close()

    def test_empty_transactions_write_no_records(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        before = store.wal.pending_records
        with store.transaction():
            with store.transaction():
                pass
        assert store.wal.pending_records == before
        store.close()

    def test_auto_commit_ops_write_one_record_and_rejects_none(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        item, order = insert_pair(store, "keep")
        for accept, reject in (
            (
                lambda: store.insert("Order", item=item, qty=2),
                lambda: store.insert("Order", item=item, qty=0),
            ),
            (
                lambda: store.update(item, price=3.0),
                lambda: store.update(item, price=-3.0),
            ),
            (
                lambda: store.delete(order),
                lambda: store.delete(store.extent("Order")[0]),
            ),
        ):
            before = store.wal.pending_records
            accept()
            assert store.wal.pending_records == before + 1
            with pytest.raises(ConstraintViolation):
                reject()
            assert store.wal.pending_records == before + 1
        store.close()

    def test_rejected_commit_writes_nothing(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        before = store.wal.pending_records
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                store.insert("Item", name="orphan", price=2.0)  # breaks db1
        assert store.wal.pending_records == before
        store.close()
        recovered = ObjectStore.open(path)
        assert {o.state["name"] for o in recovered.extent("Item")} == {"keep"}
        recovered.close()


class TestCheckpoints:
    def test_checkpoint_compacts_log_and_preserves_state(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        for index in range(4):
            insert_pair(store, f"n{index}")
        assert store.wal.pending_records > 0
        store.checkpoint()
        assert store.wal.pending_records == 0
        item, _ = insert_pair(store, "after")
        store.close()
        recovered = ObjectStore.open(path)
        assert store_state(recovered) == store_state(store)
        recovered.close()

    def test_checkpoint_inside_transaction_is_refused(self, tmp_path):
        store = ObjectStore.open(tmp_path / "db", schema=fresh_schema())
        with pytest.raises(EngineError, match="inside a transaction"):
            with store.transaction():
                store.checkpoint()
        store.close()

    def test_crash_between_snapshot_and_log_reset_is_idempotent(self, tmp_path):
        """The checkpoint crash window: snapshot renamed but the old log
        still present.  Recovery must skip the already-snapshotted records
        by their LSNs instead of applying them twice."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        item, order = insert_pair(store, "n0")
        store.update(order, qty=5)
        old_log = (path / "wal.jsonl").read_bytes()
        store.checkpoint()
        store.close()
        # Undo the log reset, as if the crash hit right after the rename.
        (path / "wal.jsonl").write_bytes(old_log)
        recovered = ObjectStore.open(path)
        assert store_state(recovered) == store_state(store)
        assert recovered.get(order.oid).state["qty"] == 5
        # The stale records are already folded into the snapshot: none of
        # them count toward the next checkpoint.
        assert recovered.wal.pending_records == 0
        recovered.close()

    def test_automatic_checkpoint_after_threshold(self, tmp_path, snapshot_file):
        path = tmp_path / "db"
        store = ObjectStore.open(
            path, schema=fresh_schema(), checkpoint_every=5
        )
        for index in range(7):
            insert_pair(store, f"n{index}")
        # Each pair writes one commit record: the fifth crossed the
        # threshold and checkpointed, two records follow the snapshot.
        assert store.wal.pending_records == 2
        snapshot = snapshot_file.read(path / "snapshot.json")
        assert len(snapshot["objects"]) == 10
        store.close()
        recovered = ObjectStore.open(path)
        assert len(recovered.extent("Item")) == 7
        recovered.close()

    def test_wal_without_snapshot_is_unrecoverable(self, tmp_path):
        path = tmp_path / "db"
        path.mkdir()
        (path / "wal.jsonl").write_bytes(b"")
        with pytest.raises(EngineError, match="without a snapshot"):
            load_image(path)


def _committed_prefixes(path, actions):
    """Run ``actions`` against a fresh durable store at ``path``; returns
    (store, committed states after each successful top-level action)."""
    store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
    committed = [store_state(store)]
    for action in actions:
        try:
            action(store)
            committed.append(store_state(store))
        except (ConstraintViolation, RuntimeError):
            pass  # rejected or aborted: no new committed state
    return store, committed


def _scripted_actions():
    def abort_after_insert(store):
        with store.transaction():
            insert_pair(store, "aborted-marker")
            raise RuntimeError("abort")

    def nested_commit_outer_abort(store):
        with store.transaction():
            with store.transaction():
                insert_pair(store, "inner-marker")
            raise RuntimeError("outer abort")

    def doomed_commit(store):
        with store.transaction():
            store.insert("Item", name="orphan-marker", price=3.0)

    def update_first_order(store):
        orders = store.extent("Order")
        if orders:
            store.update(orders[0], qty=orders[0].state["qty"] + 1)

    def delete_last_pair(store):
        items = store.extent("Item")
        if not items:
            return
        victim = items[-1]
        with store.transaction():
            for order in store.extent("Order"):
                if order.state["item"] == victim.oid:
                    store.delete(order)
            store.delete(victim)

    return [
        lambda s: insert_pair(s, "a"),
        lambda s: insert_pair(s, "b", price=5.0, qty=2),
        abort_after_insert,
        update_first_order,
        nested_commit_outer_abort,
        lambda s: insert_pair(s, "c"),
        doomed_commit,
        delete_last_pair,
        lambda s: insert_pair(s, "d", price=7.5),
    ]


class TestLogTruncation:
    """Satellite: recovery from every log prefix — record boundaries and
    mid-record cuts — yields a committed prefix, never an aborted write."""

    @pytest.fixture(scope="class")
    def history(self):
        base = Path(tempfile.mkdtemp(prefix="repro-wal-test-"))
        path = base / "db"
        store, committed = _committed_prefixes(path, _scripted_actions())
        store.close()
        data = (path / "wal.jsonl").read_bytes()
        yield base, path, committed, data
        shutil.rmtree(base, ignore_errors=True)

    def _boundaries(self, data):
        boundaries = [0]
        offset = 0
        while True:
            newline = data.find(b"\n", offset)
            if newline == -1:
                break
            boundaries.append(newline + 1)
            offset = newline + 1
        return boundaries

    def test_every_record_boundary_recovers_a_committed_prefix(self, history):
        base, path, committed, data = history
        boundaries = self._boundaries(data)
        # One record per committed action, plus the empty prefix.
        assert len(boundaries) == len(committed)
        for index, cut in enumerate(boundaries):
            target = truncated_copy(path, base / f"cut-{index}", data[:cut])
            recovered = ObjectStore.open(target)
            state = store_state(recovered)
            assert state in committed, f"boundary {index} not a committed prefix"
            names = {
                obj.state["name"]
                for obj in recovered.objects()
                if obj.class_name == "Item"
            }
            assert not names & {"aborted-marker", "inner-marker", "orphan-marker"}
            assert recovered.check_all() == []
            recovered.close()
        # The full log recovers the final committed state.
        final = truncated_copy(path, base / "cut-full", data)
        recovered = ObjectStore.open(final)
        assert store_state(recovered) == committed[-1]
        recovered.close()

    def test_mid_record_cuts_recover_a_committed_prefix(self, history):
        base, path, committed, data = history
        boundaries = self._boundaries(data)
        cuts = [b + delta for b in boundaries for delta in (1, 7) if b + delta < len(data)]
        cuts.append(len(data) - 1)
        for index, cut in enumerate(cuts):
            target = truncated_copy(path, base / f"mid-{index}", data[:cut])
            recovered = ObjectStore.open(target)
            assert store_state(recovered) in committed
            assert recovered.check_all() == []
            recovered.close()


#: One generated top-level step: (kind, name index, price, qty, abort flag).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["pair", "update", "delete", "txn", "nested"]),
        st.integers(0, 5),
        st.floats(-5, 50, allow_nan=False, width=32),
        st.integers(0, 4),
        st.booleans(),
    ),
    max_size=12,
)


class TestCrashRecoveryProperty:
    """Tentpole property: for arbitrary mutation histories and arbitrary
    log-truncation points, recovery yields exactly a committed prefix with
    consistent indexes and no constraint violations."""

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps, cut_fraction=st.floats(0.0, 1.0))
    def test_recovered_state_is_a_committed_prefix(self, steps, cut_fraction):
        base = Path(tempfile.mkdtemp(prefix="repro-wal-prop-"))
        try:
            path = base / "db"
            actions = [self._compile(step) for step in steps]
            store, committed = _committed_prefixes(path, actions)
            store.close()
            data = (path / "wal.jsonl").read_bytes()
            cut = int(len(data) * cut_fraction)
            target = truncated_copy(path, base / "rec", data[:cut])
            recovered = ObjectStore.open(target)
            state = store_state(recovered)
            assert state in committed
            assert recovered.check_all() == []
            # Indexes agree with a from-scratch scan of the recovered store.
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
            recovered.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    @staticmethod
    def _compile(step):
        kind, index, price, qty, abort = step

        def action(store):
            if kind == "pair":
                insert_pair(store, f"item-{index}", max(price, 0.0), max(qty, 1))
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
                    insert_pair(store, f"txn-{index}", abs(price), max(qty, 1))
                    if abort:
                        raise RuntimeError("abort")
            elif kind == "nested":
                with store.transaction():
                    with store.transaction():
                        insert_pair(store, f"nested-{index}", abs(price), 1)
                    orders = store.extent("Order")
                    if orders:
                        store.update(orders[0], qty=max(qty, 1))
                    if abort:
                        raise RuntimeError("outer abort")

        return action


def _replay(state, ops):
    """``state`` (a :func:`store_state` image) with one commit record's
    redo entries applied."""
    replayed = dict(state)
    for op in ops:
        if op["t"] == "put":
            oid, class_name, encoded = op["row"]
            replayed[oid] = (class_name, decode_state(encoded))
        else:
            assert op["t"] == "delete"
            del replayed[op["oid"]]
    return replayed


class TestLogShape:
    """One redo record per commit: an accepted commit that touched
    something appends exactly one ``commit`` record, whose entries replay
    its net effect; rejected, aborted and rolled-back work leaves the log
    byte-identical."""

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps)
    def test_one_commit_record_per_accepted_commit(self, steps):
        base = Path(tempfile.mkdtemp(prefix="repro-wal-shape-"))
        try:
            store = ObjectStore.open(
                base / "db", schema=fresh_schema(), checkpoint_every=0
            )
            log = base / "db" / "wal.jsonl"
            for step in steps:
                kind = step[0]
                idle = (kind == "update" and not store.extent("Order")) or (
                    kind == "delete" and not store.extent("Item")
                )
                before_bytes = log.read_bytes()
                before = store_state(store)
                try:
                    TestCrashRecoveryProperty._compile(step)(store)
                except (ConstraintViolation, RuntimeError):
                    assert log.read_bytes() == before_bytes
                    continue
                data = log.read_bytes()
                assert data.startswith(before_bytes)
                records, _, torn = scan_log(data[len(before_bytes):])
                assert not torn
                if idle:
                    assert records == []
                    continue
                (record,) = records
                assert record["t"] == "commit"
                assert record["c"] == store._oid_seq
                assert _replay(before, record["ops"]) == store_state(store)
            store.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_inner_rollback_writes_nothing(self, tmp_path):
        store = ObjectStore.open(tmp_path / "db", schema=fresh_schema())
        insert_pair(store, "keep")
        log = tmp_path / "db" / "wal.jsonl"
        before = log.read_bytes()
        with store.transaction():
            with pytest.raises(RuntimeError):
                with store.transaction():
                    insert_pair(store, "rolled-back")
                    raise RuntimeError("inner abort")
        assert log.read_bytes() == before
        store.close()

    def test_aborted_oids_stay_burned_across_restart(self, tmp_path):
        """The commit record's oid high-water mark keeps oids burned by an
        aborted transaction burned, even when the commit that follows
        mints no oid of its own."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        _, order = insert_pair(store, "keep")
        with pytest.raises(RuntimeError):
            with store.transaction():
                burned = insert_pair(store, "aborted")
                raise RuntimeError("abort")
        store.update(order, qty=2)
        store.close()
        recovered = ObjectStore.open(path)
        fresh = insert_pair(recovered, "next")
        assert min(oid_counter(obj.oid) for obj in fresh) > max(
            oid_counter(obj.oid) for obj in burned
        )
        recovered.close()

    def test_format_1_directory_is_refused(self, tmp_path, snapshot_file):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        store.close()
        snapshot_path = path / "snapshot.json"
        snapshot_file.seal(snapshot_path, snapshot_file.read(snapshot_path), fmt=1)
        with pytest.raises(EngineError, match="unsupported snapshot format"):
            ObjectStore.open(path)
        assert fsck(path).status == "fatal"

    def test_format_3_directory_is_refused(self, tmp_path, snapshot_file):
        """Format 3 was one JSON object with no header line, whose ``digest``
        key hashed a second, canonical rendering of the rest."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        store.close()
        snapshot_path = path / "snapshot.json"
        payload = dict(snapshot_file.read(snapshot_path), format=3)
        canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        payload["digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        snapshot_path.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True))
        with pytest.raises(EngineError, match="unsupported snapshot format"):
            ObjectStore.open(path)
        report = fsck(path)
        assert report.status == "fatal"
        assert any("unsupported snapshot format" in f for f in report.findings)

    def test_snapshot_is_rendered_once_and_read_without_rendering(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint hashes the bytes it writes, and a recovery read
        hashes the bytes it reads: neither renders the payload again.  Each
        object's row was rendered at its commit, so the checkpoint renders
        no row and never the whole image."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "keep")
        renders = []
        dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            renders.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        store.checkpoint()
        assert all(isinstance(render, str) for render in renders)
        renders.clear()
        image = load_image(path)
        assert renders == []
        monkeypatch.undo()
        assert len(image.objects) == 2
        store.close()

    def test_format_4_directory_is_refused(self, tmp_path, snapshot_file):
        """Format 4 logged ``insert`` and ``update`` entries, which this
        reader does not replay: reading such a log would silently lose
        commits."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        item, _ = insert_pair(store, "keep")
        store.checkpoint()
        store.close()
        for name in ("snapshot.prev.json", "snapshot.json"):
            snapshot_file.seal(path / name, snapshot_file.read(path / name), fmt=4)
        with open(path / "wal.jsonl", "ab") as log:
            log.write(_frame({
                "n": snapshot_file.read(path / "snapshot.json")["next_lsn"],
                "t": "commit",
                "c": 2,
                "ops": [{"t": "update", "oid": item.oid, "state": {"name": "keep", "price": 1.0}}],
            }))
        with pytest.raises(EngineError, match="unsupported snapshot format at .*: 4"):
            ObjectStore.open(path)
        report = fsck(path)
        assert report.status == "fatal"
        assert any("unsupported snapshot format" in f for f in report.findings)


ROWS_SOURCE = """
Database Rows

Class Thing
attributes
  label  : string
  tags   : P string
  amount : int
  ratio  : real
  flag   : boolean
end Thing
"""

#: Strings that make JSON escape or sort awkwardly: quotes, backslashes,
#: control characters and non-ASCII text.
_AWKWARD = ['"', "\\", 'a"b\\c', "tab\tnl\n", "ünïcødé", "☃", "\U0001f600", ""]
_awkward_text = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=6))
_thing_states = st.fixed_dictionaries(
    {
        "label": _awkward_text,
        "tags": st.frozensets(_awkward_text, max_size=4),
        "amount": st.integers(min_value=-(2**70), max_value=2**70),
        "ratio": st.floats(allow_nan=False, allow_infinity=False),
        "flag": st.booleans(),
    }
)


def reference_value(value):
    """The log's value encoding, restated here rather than imported so the
    reference renders below do not share the engine's codec: a set is
    ``{"$set": [members]}`` with its encoded members sorted by ``repr``,
    every other value is itself."""
    if isinstance(value, (frozenset, set)):
        return {"$set": sorted(map(reference_value, value), key=repr)}
    return value


def reference_row(obj) -> bytes:
    """``obj``'s snapshot row as one key-sorted ``json.dumps``."""
    state = {name: reference_value(value) for name, value in obj.state.items()}
    return json.dumps(
        [obj.oid, obj.class_name, state], separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def reference_body(store) -> bytes:
    """A snapshot body as one key-sorted ``json.dumps`` per line of the
    image renders it — the head, then each object's row: the bytes a
    checkpoint must write, however it builds them."""
    from repro.tm.printer import schema_to_source

    head = {
        "counter": store._oid_seq,
        "database": store.schema.name,
        "next_lsn": store.wal._next_lsn,
        "schema": schema_to_source(store.schema),
    }
    lines = [
        json.dumps(head, separators=(",", ":"), sort_keys=True).encode("utf-8"),
        *map(reference_row, store.objects()),
    ]
    return b"".join(line + b"\n" for line in lines)


def assert_canonical_log(path: Path) -> None:
    """Every record in the log at ``path`` is the compact, key-sorted
    ``json.dumps`` of itself, however the writer assembled it."""
    for line in (path / "wal.jsonl").read_bytes().split(b"\n")[:-1]:
        payload = line[9:]
        assert payload == json.dumps(
            json.loads(payload), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")


def snapshot_body(path: Path) -> bytes:
    return (path / "snapshot.json").read_bytes().partition(b"\n")[2]


def assert_image_matches(store, path: Path) -> None:
    """Recovery from ``path`` yields exactly the live store's contents, and
    each snapshot row it keeps is the row of the state parsed from it."""
    image = load_image(path)
    assert {
        oid: (obj.class_name, obj.state) for oid, obj in image.objects.items()
    } == store_state(store)
    assert list(image.objects) == [obj.oid for obj in store.objects()]
    for oid, obj in image.objects.items():
        if obj.row_state is not None:
            assert obj.row_state is obj.state
            assert obj.row == reference_row(obj)


@pytest.fixture
def rendered_rows(monkeypatch):
    """The oids whose snapshot row a checkpoint rendered, in order: counts
    every call of the one row-render function."""
    import repro.engine.wal as wal_module

    rendered = []
    render = wal_module.snapshot_row

    def counting(oid, class_name, state):
        rendered.append(oid)
        return render(oid, class_name, state)

    monkeypatch.setattr(wal_module, "snapshot_row", counting)
    return rendered


class TestSnapshotRows:
    """Each commit renders the snapshot row of every object it wrote, once,
    embeds it in its log record and keeps it on the object: a checkpoint
    renders no row (only a state a rollback reinstalled), and writes the
    bytes one render per line of the image would."""

    @settings(max_examples=40, deadline=None)
    @given(
        states=st.lists(_thing_states, min_size=1, max_size=8),
        updates=st.lists(st.tuples(st.integers(min_value=0), _thing_states), max_size=6),
    )
    def test_body_is_the_reference_render(self, states, updates):
        base = Path(tempfile.mkdtemp(prefix="repro-wal-rows-"))
        try:
            path = base / "db"
            store = ObjectStore.open(path, parse_database(ROWS_SOURCE), checkpoint_every=0)
            things = [store.insert("Thing", **state) for state in states]
            assert_canonical_log(path)
            store.checkpoint()
            assert snapshot_body(path) == reference_body(store)
            for index, state in updates:
                store.update(things[index % len(things)], **state)
            store.delete(things[-1])
            assert_canonical_log(path)
            store.checkpoint()
            assert snapshot_body(path) == reference_body(store)
            assert_image_matches(store, path)
            store.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_seeded_ingest_writes_the_pinned_bytes(self, tmp_path):
        """A seeded ingest of the Figure 1 library — sets, awkward strings,
        floats, updates, deletes, a rejected write and automatic
        checkpoints — writes pinned snapshot and log bytes."""
        from repro.fixtures import cslibrary_schema

        schema = cslibrary_schema()
        schema.set_constant("MAX", 10**12)
        rng = random.Random(30)
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema, checkpoint_every=97)
        words = ["plain", 'quo"te', "back\\slash", "ünïcødé", "☃", "tab\tnl\n", ""]
        live = []
        for index in range(600):
            kind = rng.choice(
                ["Publication", "RefereedPubl", "NonRefereedPubl", "ProfessionalPubl"]
            )
            shopprice = round(rng.uniform(1, 100), 2)
            state = {
                "title": f"{rng.choice(words)} {index}",
                "isbn": f"I-{index}",
                "publisher": rng.choice(["ACM", "IEEE"]),
                "shopprice": shopprice,
                "ourprice": round(shopprice * rng.random(), 3),
            }
            if kind in ("RefereedPubl", "NonRefereedPubl"):
                state["editors"] = frozenset(rng.sample(words, rng.randrange(4)))
                state["rating"] = rng.choice([2, 3])
                if kind == "RefereedPubl":
                    state["avgAccRate"] = rng.random()
                else:
                    state["authAffil"] = rng.choice(words)
            elif kind == "ProfessionalPubl":
                state["authors"] = frozenset(rng.sample(words, rng.randrange(5)))
            live.append(store.insert(kind, **state))
            if index % 7 == 3:
                store.update(rng.choice(live), title=f"{rng.choice(words)} u{index}")
            if index % 11 == 5:
                store.delete(live.pop(rng.randrange(len(live))))
        with pytest.raises(ConstraintViolation):
            store.update(live[0], ourprice=live[0]["shopprice"] + 1)
        store.checkpoint()
        for obj in live[:5]:
            store.update(obj, ourprice=0.5)
        store.close()
        digests = {
            name: hashlib.sha256((path / name).read_bytes()).hexdigest()
            for name in ("snapshot.json", "snapshot.prev.json", "wal.jsonl")
        }
        assert digests == {
            "snapshot.json": "15f7382783e8c7e8c5cfb71e05d9d3f3f7c8e6631b0d7afd10b994ead03b5fbb",
            "snapshot.prev.json": "cec87b885cb5ce1d9a60342310b6885a10a7de061307ce10b2112a85967206d1",
            "wal.jsonl": "9952a53fbfad0ba54dc6e3f4d2fb063b03633b282316a77f2a8fa70db518ded6",
        }

    def test_unchanged_store_renders_no_row(self, tmp_path, rendered_rows):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        for index in range(3):
            insert_pair(store, f"n{index}")
        # Each commit rendered its objects' rows; no checkpoint renders one.
        assert rendered_rows == [obj.oid for obj in store.objects()]
        rendered_rows.clear()
        store.checkpoint()
        store.checkpoint()
        assert rendered_rows == []
        assert_image_matches(store, path)
        store.close()

    def test_k_updates_render_k_rows(self, tmp_path, rendered_rows):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        pairs = [insert_pair(store, f"n{index}") for index in range(5)]
        store.checkpoint()
        rendered_rows.clear()
        for item, _ in pairs[:3]:
            store.update(item, price=99.0)
        store.update(pairs[0][0], price=98.0)  # the same object twice: two commits
        assert rendered_rows == [item.oid for item, _ in pairs[:3]] + [pairs[0][0].oid]
        rendered_rows.clear()
        store.checkpoint()
        assert rendered_rows == []
        assert_image_matches(store, path)
        store.close()

    def test_reopened_store_keeps_the_snapshot_rows(self, tmp_path, rendered_rows):
        """Recovery keeps each snapshot line as its object's row: after a
        snapshot-only reopen the first checkpoint renders nothing; an
        object a replayed log record wrote starts without a row, and the
        first checkpoint renders exactly those."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        pairs = [insert_pair(store, f"n{index}") for index in range(3)]
        store.checkpoint()
        store.close()
        rendered_rows.clear()
        reopened = ObjectStore.open(path)
        reopened.checkpoint()
        assert rendered_rows == []
        reopened.update(pairs[1][0], price=7.0)
        tail = insert_pair(reopened, "tail")
        reopened.close()
        rendered_rows.clear()
        replayed = ObjectStore.open(path)
        assert replayed.recovery_info.replayed == 3
        replayed.checkpoint()
        assert rendered_rows == [pairs[1][0].oid] + [obj.oid for obj in tail]
        assert_image_matches(replayed, path)
        replayed.close()

    def test_rejected_update_keeps_the_row(self, tmp_path, rendered_rows):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        item, _ = insert_pair(store, "n0")
        store.checkpoint()
        rendered_rows.clear()
        with pytest.raises(ConstraintViolation):
            store.update(item, price=-1.0)
        store.checkpoint()
        assert rendered_rows == []
        assert_image_matches(store, path)
        store.close()

    def test_delete_and_resurrecting_rejected_delete(self, tmp_path, rendered_rows):
        """A delete renders nothing and drops the row; deleting an Item's
        last Order is rejected by ``db1`` and resurrects the same object,
        whose cached row is still current."""
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        insert_pair(store, "gone")
        _, order = insert_pair(store, "kept")
        store.checkpoint()
        rendered_rows.clear()
        gone = store.extent("Item")[0]
        with store.transaction():
            for obj in list(store.objects()):
                if obj.oid == gone.oid or obj.get("item") == gone.oid:
                    store.delete(obj)
        with pytest.raises(ConstraintViolation):
            store.delete(order)
        assert store.get(order.oid) is order
        store.checkpoint()
        assert rendered_rows == []
        assert_image_matches(store, path)
        store.close()

    def test_rejected_deletes_checkpoint_like_a_twin_that_never_ran_them(self, tmp_path):
        """A rejected delete puts the resurrected objects back in table
        order only when a reader needs that order: a checkpoint after two
        rejections and a later insert holds the same bytes as a checkpoint
        of a twin store that never ran the deletes."""
        files = {}
        for name in ("rejected", "twin"):
            path = tmp_path / name
            store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
            pairs = [insert_pair(store, f"n{index}") for index in range(4)]
            if name == "rejected":
                with pytest.raises(ConstraintViolation):
                    with store.transaction():
                        store.delete(pairs[0][1])
                        store.delete(pairs[1][1])
                with pytest.raises(ConstraintViolation):
                    store.delete(pairs[2][1])
                # Out of place until the checkpoint reads the table.
                assert list(store._objects)[-3:] == [order.oid for _, order in pairs[:3]]
            insert_pair(store, "after")
            store.checkpoint()
            files[name] = (path / "snapshot.json").read_bytes()
            store.close()
        assert files["rejected"] == files["twin"]

    def test_rolled_back_transaction_keeps_the_rows(self, tmp_path, rendered_rows):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        item, order = insert_pair(store, "n0")
        store.checkpoint()
        rendered_rows.clear()
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update(item, price=5.0)
                store.update(order, qty=7)
                insert_pair(store, "n1")
                raise RuntimeError("abort")
        store.checkpoint()
        assert rendered_rows == []
        assert_image_matches(store, path)
        store.close()

    def test_schema_change_keeps_the_rows(self, tmp_path, rendered_rows):
        from repro.tm.printer import schema_to_source

        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema(), checkpoint_every=0)
        insert_pair(store, "n0")
        store.checkpoint()
        rendered_rows.clear()
        changed = store.schema.copy()
        changed.set_constant("CAP", 10)
        store.change_schema(changed)
        store.checkpoint()
        assert rendered_rows == []
        assert_image_matches(store, path)
        assert load_image(path).schema_source == schema_to_source(store.schema)
        store.close()

    def test_sharded_checkpoint_renders_changes(self, tmp_path, rendered_rows):
        from repro.engine import ShardedStore
        from repro.engine.sharding import shard_directory

        source = """
Database Split

Class Left
attributes
  name : string
end Left

Class Right
attributes
  name : string
end Right
"""
        root = tmp_path / "root"
        store = ShardedStore.open(root, parse_database(source), 2, checkpoint_every=0)
        lefts = [store.insert("Left", name=f"l{index}") for index in range(4)]
        rights = [store.insert("Right", name=f"r{index}") for index in range(4)]
        assert sorted(rendered_rows) == sorted(obj.oid for obj in lefts + rights)
        rendered_rows.clear()
        store.checkpoint()
        store.checkpoint()
        assert rendered_rows == []
        with store.transaction():
            store.update(lefts[1], name="L1")
            store.update(rights[2], name="R2")
        # Each core's two-phase prepare rendered its object's row.
        assert store.two_phase_commits == 1
        assert sorted(rendered_rows) == sorted([lefts[1].oid, rights[2].oid])
        rendered_rows.clear()
        store.checkpoint()
        assert rendered_rows == []
        assert all(len(core) for core in store.cores)
        for shard, core in enumerate(store.cores):
            assert_image_matches(core, shard_directory(root, shard))
        store.close()


class TestEnvironmentToggle:
    def test_repro_wal_env_attaches_throwaway_log(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAL", "1")
        store = ObjectStore(fresh_schema())
        assert store.wal is not None
        insert_pair(store, "logged")
        assert store.wal.pending_records > 0
        wal_dir = store.wal.path
        assert (wal_dir / "wal.jsonl").exists()
        # Explicit opt-out beats the environment.
        assert ObjectStore(fresh_schema(), wal=False).wal is None

    def test_no_env_means_no_wal(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAL", raising=False)
        assert ObjectStore(fresh_schema()).wal is None


class TestDurableCli:
    def _populated_dir(self, tmp_path):
        path = tmp_path / "db"
        store = ObjectStore.open(path, schema=fresh_schema())
        insert_pair(store, "cli-item")
        store.close()
        return path

    def test_recover_reports_contents(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated_dir(tmp_path)
        assert main(["recover", str(path)]) == 0
        out = capsys.readouterr().out
        assert "recovered 2 object(s)" in out and "all constraints hold" in out

    def test_snapshot_compacts(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated_dir(tmp_path)
        assert main(["snapshot", str(path)]) == 0
        assert "checkpointed" in capsys.readouterr().out
        records, _, _ = scan_log((path / "wal.jsonl").read_bytes())
        assert records == []

    def test_recover_flags_violations(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad"
        store = ObjectStore.open(path, schema=fresh_schema(), enforce=False)
        store.insert("Item", name="orphan", price=-2.0)
        store.close()
        assert main(["recover", str(path)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_recover_missing_directory_fails_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot open"):
            main(["recover", str(tmp_path / "missing")])
