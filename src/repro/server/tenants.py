"""Per-tenant stores: registration, leasing, idle eviction, shutdown.

The interoperation workbench becomes multi-tenant here: each tenant
registers its *own* TM schema — its own classes, constants and constraint
namespace — and gets its own store under the server root, fully isolated
from every other tenant's (separate extents, separate write-ahead log,
separate writer lock, separate group-commit batcher).  Tenants never share
schema objects, so one tenant's ``set_constant`` or conformation-style
schema change can never invalidate another's validation baseline.

A :class:`TenantRegistry` owns the mapping.  Connections *lease* a tenant
store (:meth:`TenantRegistry.lease` / :meth:`~TenantRegistry.release`);
the registry refcounts leases so a store stays open while any connection
uses it, and an eviction sweep closes stores that have sat unleased past
the idle timeout (checkpointing durable ones first, so the next open
recovers from a fresh snapshot instead of a long log replay).  Shutdown
checkpoints and closes every open store.

Store flavor per tenant: ``shards=None`` opens a plain
:class:`~repro.engine.store.ObjectStore`, ``shards=N`` a
:class:`~repro.engine.sharding.ShardedStore` (a durable tenant whose
directory holds a shard manifest reopens sharded either way) — both behind
:class:`~repro.engine.api.StoreAPI`, so the connection layer never cares.
With a server ``root`` directory tenants are durable under
``<root>/<tenant>/``; without one they are in-memory (testing, benches).
"""

from __future__ import annotations

import re
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.api import StoreAPI
from repro.engine.sharding import ShardedStore, read_manifest
from repro.engine.store import ObjectStore
from repro.errors import EngineError, ProtocolError, SchemaError

#: Tenant ids become directory names: keep them boring and unambiguous.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_tenant_name(tenant: str) -> str:
    """Validate a tenant id (raises :class:`ProtocolError`); returns it."""
    if not isinstance(tenant, str) or not _TENANT_NAME.match(tenant):
        raise ProtocolError(
            f"invalid tenant id {tenant!r}: expected 1-64 characters from "
            "[A-Za-z0-9_.-], not starting with a separator"
        )
    return tenant


@dataclass
class _TenantRecord:
    store: StoreAPI
    database: str
    flavor: str  # "object" | "sharded"
    leases: int = 0
    #: ``time.monotonic()`` of the last release; meaningful at leases == 0.
    released_at: float = field(default_factory=time.monotonic)


class TenantRegistry:
    """Thread-safe tenant id → open store mapping (see module docstring).

    All methods may be called from the event loop or from connection
    worker threads; one coarse lock serializes registry mutations (store
    *operations* never run under it — only open/close/bookkeeping).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        sync: bool = False,
        checkpoint_every: int = 10_000,
    ):
        self.root = Path(root) if root is not None else None
        self.sync = sync
        self.checkpoint_every = checkpoint_every
        self._records: dict[str, _TenantRecord] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- leasing -----------------------------------------------------------

    def lease(
        self,
        tenant: str,
        schema_source: str | None = None,
        shards: int | None = None,
        spread: Iterable[str] = (),
    ) -> StoreAPI:
        """Open (or join) the tenant's store and take a lease on it.

        First open registers the tenant: in-memory tenants require
        ``schema_source``; durable tenants recover an existing
        ``<root>/<tenant>/`` directory without one.  Later opens may repeat
        the schema (ignored if it names the same database) but cannot
        re-register a different one — a tenant's constraint namespace is
        fixed by its first registration for as long as the store is open.
        """
        check_tenant_name(tenant)
        with self._lock:
            if self._closed:
                raise EngineError("the tenant registry is shut down")
            record = self._records.get(tenant)
            if record is None:
                record = self._open(tenant, schema_source, shards, spread)
                self._records[tenant] = record
            else:
                self._check_compatible(tenant, record, schema_source, shards)
            record.leases += 1
            return record.store

    def release(self, tenant: str) -> None:
        """Drop one lease; the store stays open for the idle sweep."""
        with self._lock:
            record = self._records.get(tenant)
            if record is None:
                return
            record.leases = max(0, record.leases - 1)
            if record.leases == 0:
                record.released_at = time.monotonic()

    def _open(
        self,
        tenant: str,
        schema_source: str | None,
        shards: int | None,
        spread: Iterable[str],
    ) -> _TenantRecord:
        from repro.tm.parser import parse_database

        schema = (
            parse_database(schema_source) if schema_source is not None else None
        )
        store: StoreAPI
        if self.root is None:
            if schema is None:
                raise SchemaError(
                    f"tenant {tenant!r} is not registered: the first open of "
                    "an in-memory tenant must carry a schema"
                )
            if shards is None:
                store = ObjectStore(schema)
            else:
                store = ShardedStore(schema, shards, spread=spread)
        else:
            directory = self.root / tenant
            if schema is None and not directory.exists():
                raise SchemaError(
                    f"tenant {tenant!r} is not registered: no durable state "
                    f"under {str(directory)!r} and no schema in the open "
                    "request"
                )
            # The directory decides the flavor: a root that holds a shard
            # manifest reopens sharded even when the request names none.
            if shards is None and read_manifest(directory) is None:
                store = ObjectStore.open(
                    directory,
                    schema,
                    sync=self.sync,
                    checkpoint_every=self.checkpoint_every,
                )
            else:
                store = ShardedStore.open(
                    directory,
                    schema,
                    shards,
                    spread=spread,
                    sync=self.sync,
                    checkpoint_every=self.checkpoint_every,
                )
        return _TenantRecord(
            store=store,
            database=store.schema.name,  # type: ignore[attr-defined]
            flavor="sharded" if isinstance(store, ShardedStore) else "object",
        )

    def _check_compatible(
        self,
        tenant: str,
        record: _TenantRecord,
        schema_source: str | None,
        shards: int | None,
    ) -> None:
        """A re-open may repeat the registration, never change it."""
        if shards is not None and record.flavor != "sharded":
            raise SchemaError(
                f"tenant {tenant!r} is open as a plain store; cannot re-open "
                f"it sharded"
            )
        if schema_source is not None:
            from repro.tm.parser import parse_database

            offered = parse_database(schema_source)
            if offered.name != record.database:
                raise SchemaError(
                    f"tenant {tenant!r} serves database "
                    f"{record.database!r}; cannot re-register it as "
                    f"{offered.name!r} while open"
                )

    # -- lifecycle ---------------------------------------------------------

    def evict_idle(self, idle_timeout: float) -> list[str]:
        """Close stores with no leases that have idled past the timeout.

        Durable stores are checkpointed first (best-effort — a poisoned
        store cannot checkpoint but must still close and evict), so the
        next open recovers from a fresh snapshot.  Returns the evicted
        tenant ids.
        """
        now = time.monotonic()
        evicted: list[str] = []
        with self._lock:
            for tenant, record in list(self._records.items()):
                if record.leases > 0 or now - record.released_at < idle_timeout:
                    continue
                self._checkpoint_and_close(record)
                del self._records[tenant]
                evicted.append(tenant)
        return evicted

    def shutdown(self) -> None:
        """Checkpoint and close every open tenant store (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for record in self._records.values():
                self._checkpoint_and_close(record)
            self._records.clear()

    @staticmethod
    def _checkpoint_and_close(record: _TenantRecord) -> None:
        store = record.store
        if store.durable:
            try:
                store.checkpoint()
            except Exception:
                # Closing must win: a poisoned or mid-fault store cannot
                # checkpoint, but its durable prefix is already safe.
                pass
        try:
            store.close()
        except Exception:
            pass

    # -- observability -----------------------------------------------------

    def open_tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def stats(self) -> list[dict[str, Any]]:
        """Per-tenant counters for the ``stats`` op and the CLI."""
        entries: list[dict[str, Any]] = []
        with self._lock:
            records = list(self._records.items())
        for tenant, record in sorted(records):
            entry: dict[str, Any] = {
                "tenant": tenant,
                "database": record.database,
                "flavor": record.flavor,
                "leases": record.leases,
                "objects": len(record.store),
                "durable": record.store.durable,
            }
            entry.update(_wal_stats(record.store))
            entries.append(entry)
        return entries


def _wal_stats(store: StoreAPI) -> dict[str, Any]:
    """Group-commit telemetry summed over the store's write-ahead logs
    (one for a plain store, one per core for a sharded one)."""
    logs = []
    wal = getattr(store, "wal", None)
    if wal is not None:
        logs.append(wal)
    for core in getattr(store, "cores", ()):
        if core.wal is not None:
            logs.append(core.wal)
    if not logs:
        return {}
    fsyncs = sum(log.fsyncs for log in logs)
    commits = sum(log.sync_commits for log in logs)
    return {
        "fsyncs": fsyncs,
        "sync_commits": commits,
        "fsyncs_per_commit": (fsyncs / commits) if commits else 0.0,
    }
