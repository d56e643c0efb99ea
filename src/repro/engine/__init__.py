"""An in-memory object database engine with integrity enforcement.

The paper's setting is interoperation of *autonomous component databases*
that each enforce their own integrity constraints ("the scope of this paper
is restricted to constraints that are being enforced by the component
databases").  This package provides that substrate: a small OO database
engine that stores typed objects in inheritance-aware class extents and
rejects any operation that would violate an object, class or database
constraint of its TM schema.

* :mod:`~repro.engine.objects` — object identities and states;
* :mod:`~repro.engine.store` — the store: insert/update/delete, extents,
  reference dereferencing, evaluation contexts;
* :mod:`~repro.engine.enforcement` — full (store-wide) constraint checking;
* :mod:`~repro.engine.oracle` — the engine's single reference: a naive
  scan-only store whose verdict is the full check, against which the
  differential test suites hold the delta-driven, indexed store;
* :mod:`~repro.engine.incremental` — delta-driven constraint checking: the
  constraint-dependency index, mutation dirty sets, and the validators that
  intersect them (the enforcement hot path);
* :mod:`~repro.engine.indexes` — maintained auxiliary state: per-class
  deep-extent indexes, running aggregates and key hash indexes, kept
  transactionally consistent with the store so aggregate/key constraint
  checks and ``extent()`` stop scanning;
* :mod:`~repro.engine.query` — predicate queries over extents;
* :mod:`~repro.engine.transactions` — snapshot transactions with deferred,
  delta-driven constraint checking at commit;
* :mod:`~repro.engine.wal` — durability: the append-only write-ahead log,
  snapshot checkpoints, group commit (batched fsync), schema-change
  records, and crash recovery behind
  :meth:`~repro.engine.store.ObjectStore.open`;
* :mod:`~repro.engine.concurrency` — concurrent serving: immutable
  snapshot reads (multi-version history behind
  :meth:`~repro.engine.store.ObjectStore.snapshot`) beside the store's
  single writer;
* :mod:`~repro.engine.faults` — deterministic fault injection for the
  durability stack (torn writes, failed fsyncs, ENOSPC, bit rot,
  crash-at-rename), the errno classification policy, and the fail-stop
  (poisoned, read-only) degradation the write-ahead log applies when a
  commit point dies;
* :mod:`~repro.engine.sharding` — horizontal scale: shard-partitioned
  stores (:class:`~repro.engine.sharding.ShardedStore`) that route
  operations to independent shard cores behind a constraint-aware commit
  router, with two-phase commit across shard WALs for cross-shard
  transactions;
* :mod:`~repro.engine.api` — the unified :class:`StoreAPI` protocol that
  :class:`~repro.engine.store.ObjectStore`,
  :class:`~repro.engine.sharding.ShardedStore` and the network client's
  :class:`~repro.client.RemoteStore` all
  satisfy (mypy-enforced): the supported public surface, so code written
  against it runs unchanged embedded or remote.
"""

from repro.engine.api import (
    SnapshotAPI,
    StoreAPI,
    StoredObject,
    TransactionAPI,
    ViolationLike,
)
from repro.engine.concurrency import ConcurrencyControl, Snapshot, SnapshotObject
from repro.engine.faults import (
    FaultInjector,
    FaultSpec,
    SimulatedCrash,
    classify_os_error,
    flip_byte,
)
from repro.engine.objects import DBObject
from repro.engine.store import ObjectStore
from repro.engine.query import select
from repro.engine.incremental import (
    ConstraintDependencyIndex,
    MutationDelta,
    check_delta,
    delta_violations,
)
from repro.engine.indexes import IndexManager, KeyIndex, RunningAggregate
from repro.engine.sharding import MergedSnapshot, ShardedStore, plan_placement
from repro.engine.wal import FsckReport, WriteAheadLog, fsck

__all__ = [
    "StoreAPI",
    "TransactionAPI",
    "SnapshotAPI",
    "StoredObject",
    "ViolationLike",
    "MergedSnapshot",
    "ConcurrencyControl",
    "Snapshot",
    "SnapshotObject",
    "DBObject",
    "ObjectStore",
    "select",
    "ConstraintDependencyIndex",
    "MutationDelta",
    "check_delta",
    "delta_violations",
    "IndexManager",
    "KeyIndex",
    "RunningAggregate",
    "ShardedStore",
    "plan_placement",
    "WriteAheadLog",
    "FsckReport",
    "fsck",
    "FaultInjector",
    "FaultSpec",
    "SimulatedCrash",
    "classify_os_error",
    "flip_byte",
]
