"""Server lifecycle and tenancy: admission, eviction, shutdown, failure.

The edges the conformance suite does not reach: what happens when a
client disconnects mid-transaction, when the connection limit is hit,
when a tenant idles past its timeout, and when the server shuts down with
durable state open.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.client import connect
from repro.engine import ObjectStore, ShardedStore
from repro.errors import (
    AdmissionError,
    ConnectionLostError,
    ConstraintViolation,
    ProtocolError,
    SchemaError,
)
from repro.server import ServerConfig, ServerThread
from repro.server.tenants import TenantRegistry
from repro.server.protocol import OP_TXN_COMMIT


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- tenancy ----------------------------------------------------------------


def test_tenants_are_isolated(server, servlab_source, fresh_tenant):
    """Same schema, separate stores: constants, extents and constraint
    enforcement in one tenant never leak into another."""
    a = connect(server, tenant=fresh_tenant(), schema=servlab_source)
    b = connect(server, tenant=fresh_tenant(), schema=servlab_source)
    try:
        a.set_constant("CAP", 5)
        with pytest.raises(ConstraintViolation):
            a.insert("Alpha", name="x", score=100)
        # Tenant b still runs with CAP = 1000: the same insert is fine.
        b.insert("Alpha", name="x", score=100)
        assert len(a) == 0 and len(b) == 1
    finally:
        a.close()
        b.close()


def test_first_open_of_memory_tenant_requires_schema(server, fresh_tenant):
    with pytest.raises(SchemaError, match="not registered"):
        connect(server, tenant=fresh_tenant())


def test_reregistering_a_different_database_is_refused(
    server, servlab_source, fresh_tenant
):
    tenant = fresh_tenant()
    first = connect(server, tenant=tenant, schema=servlab_source)
    try:
        other = servlab_source.replace("Database ServLab", "Database Other")
        with pytest.raises(SchemaError, match="cannot re-register"):
            connect(server, tenant=tenant, schema=other)
        # Repeating the same registration is fine (idempotent open).
        again = connect(server, tenant=tenant, schema=servlab_source)
        again.close()
    finally:
        first.close()


def test_hostile_tenant_ids_are_refused(server, servlab_source):
    for bad in ("../escape", "", "a/b", ".hidden", "x" * 80):
        with pytest.raises(ProtocolError, match="invalid tenant id"):
            connect(server, tenant=bad, schema=servlab_source)


# -- admission control -------------------------------------------------------


def test_admission_rejects_surplus_connection_with_retryable_frame(
    servlab_source,
):
    thread = ServerThread(
        ServerConfig(max_connections=1, idle_timeout=0.0)
    )
    address = thread.start()
    try:
        first = connect(address, tenant="only", schema=servlab_source)
        try:
            with pytest.raises(AdmissionError) as excinfo:
                connect(address)
            assert excinfo.value.retryable is True
            assert "limit" in str(excinfo.value)
        finally:
            first.close()
        # The slot freed: the retry the error invited now succeeds.
        assert _wait_until(lambda: thread.server.connection_count == 0)
        retry = connect(address, tenant="only")
        retry.close()
    finally:
        thread.stop()


# -- idle eviction -----------------------------------------------------------


def test_idle_tenant_is_checkpointed_and_evicted(tmp_path, servlab_source):
    thread = ServerThread(
        ServerConfig(root=tmp_path, idle_timeout=0.2)
    )
    address = thread.start()
    try:
        store = connect(address, tenant="sleepy", schema=servlab_source)
        store.insert("Alpha", name="a", score=1)
        registry = thread.server.registry
        assert registry.open_tenants() == ["sleepy"]
        store.close()
        # The sweep must close the unleased store within the timeout
        # (plus sweep interval); a leased store would never be evicted.
        assert _wait_until(lambda: registry.open_tenants() == [])
        # Eviction checkpointed first: recovery starts from a snapshot.
        assert (tmp_path / "sleepy" / "snapshot.json").exists()
        # Re-opening needs no schema (durable) and sees the data.
        again = connect(address, tenant="sleepy")
        try:
            assert [obj.state["name"] for obj in again.extent("Alpha")] == ["a"]
        finally:
            again.close()
    finally:
        thread.stop()


def test_leased_tenant_survives_the_sweep(tmp_path, servlab_source):
    thread = ServerThread(ServerConfig(root=tmp_path, idle_timeout=0.1))
    address = thread.start()
    try:
        store = connect(address, tenant="busy", schema=servlab_source)
        try:
            time.sleep(0.4)  # several sweep intervals
            assert thread.server.registry.open_tenants() == ["busy"]
            store.insert("Alpha", name="still-here", score=1)
        finally:
            store.close()
    finally:
        thread.stop()


# -- clean shutdown ----------------------------------------------------------


def test_shutdown_checkpoints_durable_tenants(tmp_path, servlab_source):
    thread = ServerThread(ServerConfig(root=tmp_path, idle_timeout=0.0))
    address = thread.start()
    store = connect(address, tenant="acme", schema=servlab_source)
    store.insert("Alpha", name="kept", score=7)
    # Stop with the connection still open: the server drains it, releases
    # the lease, checkpoints and closes the store.
    thread.stop()
    assert (tmp_path / "acme" / "snapshot.json").exists()
    reopened = ObjectStore.open(tmp_path / "acme")
    try:
        assert [obj.state["name"] for obj in reopened.extent("Alpha")] == [
            "kept"
        ]
        assert reopened.audit() == []
    finally:
        reopened.close()


@pytest.mark.parametrize("with_schema", [False, True])
def test_sharded_durable_tenant_reopens_sharded(
    tmp_path, servlab_source, with_schema
):
    """The tenant directory decides the flavor: a reopen that names no
    shard count still finds the sharded store and its data."""
    registry = TenantRegistry(tmp_path)
    store = registry.lease("t", servlab_source, shards=2)
    store.insert("Alpha", name="kept", score=1)
    registry.shutdown()

    again = TenantRegistry(tmp_path)
    try:
        reopened = again.lease("t", servlab_source if with_schema else None)
        assert isinstance(reopened, ShardedStore)
        assert len(reopened) == 1
        assert again.stats()[0]["flavor"] == "sharded"
    finally:
        again.shutdown()
    # Nothing plain was written into the sharded root.
    assert not (tmp_path / "t" / "snapshot.json").exists()


# -- disconnect handling -----------------------------------------------------


def test_mid_transaction_disconnect_rolls_back_without_poisoning(
    tmp_path, servlab_source
):
    thread = ServerThread(ServerConfig(root=tmp_path, idle_timeout=0.0))
    address = thread.start()
    try:
        doomed = connect(address, tenant="acme", schema=servlab_source)
        doomed.insert("Alpha", name="base", score=1)
        txn = doomed.transaction()
        txn.__enter__()
        doomed.insert("Alpha", name="uncommitted", score=2)
        # Tear the socket down with the transaction open — no abort frame.
        doomed._sock.close()

        survivor = connect(address, tenant="acme")
        try:
            # The server rolls the orphaned transaction back on the dead
            # connection's own worker thread; only the committed row stays.
            assert _wait_until(lambda: len(survivor) == 1)
            assert [obj.state["name"] for obj in survivor.extent("Alpha")] == [
                "base"
            ]
            # The store is not poisoned: writes and audits still work.
            survivor.insert("Alpha", name="after", score=3)
            assert survivor.audit() == []
            survivor.checkpoint()
        finally:
            survivor.close()
    finally:
        thread.stop()


def test_protocol_abuse_closes_the_connection(
    server, servlab_source, fresh_tenant
):
    store = connect(server, tenant=fresh_tenant(), schema=servlab_source)
    with pytest.raises(ProtocolError, match="without an open transaction"):
        store._call(OP_TXN_COMMIT)
    # A protocol error is a hangup: the frame stream is not trusted after.
    with pytest.raises(ConnectionLostError):
        store.insert("Alpha", name="x", score=1)
    store.close()


def test_unknown_operation_is_a_protocol_error(server):
    store = connect(server)
    with pytest.raises(ProtocolError, match="unknown operation"):
        store._call("frobnicate")
    store.close()


def test_ops_without_open_tenant_are_protocol_errors(server):
    store = connect(server)
    try:
        with pytest.raises(ProtocolError, match="no tenant opened"):
            store.insert("Alpha", name="x", score=1)
    finally:
        store.close()


# -- codec negotiation -------------------------------------------------------


def test_codec_negotiation_falls_back_to_json(server):
    """Asking for msgpack must work whether or not the optional dependency
    is importable — the connection lands on a codec both ends speak."""
    store = connect(server, codec="msgpack")
    try:
        from repro.server.protocol import available_codecs

        assert store.server_info["codec"] in available_codecs()
        if "msgpack" not in available_codecs():
            assert store.server_info["codec"] == "json"
    finally:
        store.close()


# -- the CLI -----------------------------------------------------------------


def test_cli_serve_socket_smoke(tmp_path, servlab_source):
    """``repro serve`` end to end: spawn the process, read the port file,
    run real traffic against a durable tenant, SIGINT, verify the clean
    shutdown checkpointed the store."""
    port_file = tmp_path / "port"
    root = tmp_path / "stores"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--port-file", str(port_file),
            "--root", str(root), "--seconds", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        assert _wait_until(port_file.exists, timeout=30.0)
        port = int(port_file.read_text().strip())
        store = connect(
            ("127.0.0.1", port), tenant="cli", schema=servlab_source
        )
        store.insert("Alpha", name="via-cli", score=1)
        with pytest.raises(ConstraintViolation):
            store.insert("Alpha", name="via-cli", score=2)
        assert store.stats()["tenant"]["durable"] is True
        store.close()
        process.send_signal(signal.SIGINT)
        output, _ = process.communicate(timeout=30)
        assert process.returncode == 0, output
        assert "clean shutdown" in output
        assert (root / "cli" / "snapshot.json").exists()
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
