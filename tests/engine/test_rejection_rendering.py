"""A rejected single op reports its failure the way a transaction and an
audit do: one :class:`~repro.engine.enforcement.Violation`, rendered by
the same builder, on every store flavor — and rendering it reads no
extent."""

import itertools

import pytest

from repro.client import connect
from repro.engine import ObjectStore, ShardedStore
from repro.errors import ConstraintViolation
from repro.server import ServerConfig, ServerThread
from repro.tm import parse_database

#: An object constraint and a key constraint on one class: the op check's
#: object and class stages.
KEYLAB_SOURCE = """
Database KeyLab

Class Alpha
attributes
  name  : string
  score : int
object constraints
  oc_a: score >= 0
class constraints
  cc_key: key name
end Alpha
"""

#: Two classes on different shards of a 2-shard router, coupled by a
#: database constraint the router checks itself (a routed op).
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

_tenants = itertools.count(1)


@pytest.fixture(scope="module")
def server():
    thread = ServerThread(ServerConfig(idle_timeout=0.0))
    address = thread.start()
    yield address
    thread.stop()


@pytest.fixture
def make(server):
    """``make(flavor)`` → a fresh KeyLab store; all closed at teardown."""
    created = []

    def build(flavor):
        if flavor == "plain":
            store = ObjectStore(parse_database(KEYLAB_SOURCE))
        elif flavor == "sharded":
            store = ShardedStore(parse_database(KEYLAB_SOURCE), 2)
        else:
            store = connect(
                server, tenant=f"r{next(_tenants)}", schema=KEYLAB_SOURCE
            )
        created.append(store)
        return store

    yield build
    for store in created:
        store.close()


@pytest.mark.parametrize("flavor", ["plain", "sharded", "remote"])
@pytest.mark.parametrize(
    "bad, name, detail",
    [
        ({"name": "x", "score": -1}, "KeyLab.Alpha.oc_a", "object "),
        ({"name": "a", "score": 1}, "KeyLab.Alpha.cc_key", "extent of Alpha"),
    ],
)
def test_rejected_op_carries_the_transactions_violation(
    make, flavor, bad, name, detail
):
    # The same insert as an op on one fresh store and inside a transaction
    # on another, so both assign the culprit the same oid.
    op_store, txn_store = make(flavor), make(flavor)
    for store in (op_store, txn_store):
        store.insert("Alpha", name="a", score=1)
    with pytest.raises(ConstraintViolation) as rejected:
        op_store.insert("Alpha", **bad)
    with pytest.raises(ConstraintViolation) as txn:
        with txn_store.transaction():
            culprit = txn_store.insert("Alpha", **bad)
    op = rejected.value
    (found,) = op.violations
    assert (found.constraint_name, found.detail) == (op.constraint_name, op.detail)
    assert found.constraint_name == name
    assert found.detail.startswith(detail)
    assert list(txn.value.violations) == [found]
    if flavor != "remote":  # the wire carries name and detail only
        expected = culprit.oid if name.endswith("oc_a") else None
        assert found.oid == expected == txn.value.violations[0].oid
        assert op.trace is found.trace is not None


def test_routed_op_carries_the_transactions_violation():
    def build():
        return ShardedStore(parse_database(CROSSDB_SOURCE), 2)

    op_store, txn_store = build(), build()
    for store in (op_store, txn_store):
        store.insert("Right", tag=1)
    routed = op_store.routed_global_ops
    with pytest.raises(ConstraintViolation) as op:
        op_store.insert("Left", tag=9)
    assert op_store.routed_global_ops == routed + 1
    with pytest.raises(ConstraintViolation) as txn:
        with txn_store.transaction():
            txn_store.insert("Left", tag=9)
    (found,) = op.value.violations
    assert found == txn.value.violations[0]
    assert (found.constraint_name, found.detail) == (
        "CrossDB.db_cover",
        "database constraint",
    )
    assert found.oid is None


def _count_extent_reads(monkeypatch):
    calls = []
    extent = ObjectStore.extent

    def counting(self, *args, **kwargs):
        calls.append(args)
        return extent(self, *args, **kwargs)

    monkeypatch.setattr(ObjectStore, "extent", counting)
    return calls


@pytest.mark.parametrize("shards", [None, 2])
def test_class_constraint_rejection_reads_no_extent(monkeypatch, shards):
    schema = parse_database(KEYLAB_SOURCE)
    store = ObjectStore(schema) if shards is None else ShardedStore(schema, shards)
    with store.transaction():
        for number in range(1_000):
            store.insert("Alpha", name=f"n{number}", score=1)
    calls = _count_extent_reads(monkeypatch)
    with pytest.raises(ConstraintViolation, match="cc_key") as rejected:
        store.insert("Alpha", name="n7", score=1)
    assert calls == []
    assert rejected.value.detail == "extent of Alpha"
    store.close()


def test_op_check_is_looked_up_on_its_module(monkeypatch):
    """The suite tracer rebinds ``incremental.check_delta``; an op check
    that imported the function by name would bypass the rebinding."""
    from repro.engine import incremental

    store = ObjectStore(parse_database(KEYLAB_SOURCE))
    store.insert("Alpha", name="a", score=1)  # takes the validated baseline
    checked = []
    check = incremental.check_delta

    def spy(store, delta):
        checked.append(delta)
        return check(store, delta)

    monkeypatch.setattr(incremental, "check_delta", spy)
    store.insert("Alpha", name="b", score=1)
    with pytest.raises(ConstraintViolation):
        store.insert("Alpha", name="a", score=2)
    assert len(checked) == 2
