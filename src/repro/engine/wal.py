"""Durability: an append-only write-ahead log with snapshot checkpoints.

The paper's interoperation architecture assumes component databases that
survive their clients: a constraint the transaction manager accepted must
still hold after a process restart.  This module gives
:class:`~repro.engine.store.ObjectStore` that substrate — a durable store is
a directory holding two files:

* ``snapshot.json`` — a full image of the store at some checkpoint: the TM
  schema (as re-parseable surface syntax), the oid counter, every live
  object, and ``next_lsn``, the log sequence number the snapshot is current
  up to.  One header line, ``repro-snapshot <format> sha256=<hex>``, then
  the body; the hex digest is of exactly the body bytes.  The body (format
  5) is one line per JSON value: a head line
  ``{"counter":…,"database":…,"next_lsn":…,"schema":…}``, then one line
  per object holding its *snapshot row* ``[oid, class, state]`` (see
  *Checkpoints*).  Written atomically (temp file + fsync + rename).

* ``wal.jsonl`` — the write-ahead log: one CRC-framed JSON record per line,
  appended at the log stage of every accepted commit.  Record kinds::

      {"c": counter, "n": lsn, "ops": [entry, ...], "t": "commit"}
      {"c": counter, "g": gid, "n": lsn, "ops": [entry, ...], "t": "prepare"}
      {"g": gid, "n": lsn, "ok": true|false, "t": "decide"}
      {"g": gid, "n": lsn, "ok": true|false, "t": "resolve"}
      {"n": lsn, "source": ..., "t": "schema"}

  where an ``entry`` is one touched object's redo::

      {"row": [oid, class, state], "t": "put"}
      {"oid": ..., "t": "delete"}

  and ``counter`` is the store's oid counter at the commit.  A ``put``
  carries the object's snapshot row, the same bytes a checkpoint writes
  for it; every record is compact JSON with sorted keys.

Two-phase commit
----------------

A transaction spanning several shard stores (:mod:`repro.engine.sharding`)
cannot write an independent ``commit`` on each shard — a crash between two
commits would persist half the transaction.  The commit router instead
writes each participant's redo set as a ``prepare`` record (*in-doubt*:
durably logged, neither applied nor discarded by replay), appends one
``decide`` record to the coordinator shard's log (the lowest participating
shard id) once every participant prepared, and then marks each participant
with ``resolve`` carrying the outcome.  Replay applies a prepared redo set
when its ``resolve`` says so, discards it when ``resolve`` says abort, and
otherwise leaves it in-doubt on the :class:`RecoveredImage`
(``prepared``/``decisions``) — presumed abort, except that only the router,
having read *every* shard's log, may decide: the coordinator's ``decide``
is the transaction's durable fate.  Flush ordering carries atomicity: every
``prepare`` is flushed before the ``decide`` is written, and the ``decide``
is flushed before any ``resolve`` — so a surviving ``decide`` implies every
participant's prepare survived, and a surviving ``resolve`` implies the
decision did.

Schema-change records
---------------------

A checkpoint snapshot captures the schema, but the schema can *move* after
the checkpoint: a store's schema is a frozen value, and
:meth:`~repro.engine.store.ObjectStore.change_schema` (which
``set_constant`` also goes through) replaces it.  That is the one schema
write path, and it logs one record kind: the next schema re-printed whole
into a ``schema`` record, appended and flushed *before* the store adopts
the value, so memory never runs ahead of the log.  Recovery replays the
last ``schema`` record's source in place of the snapshot's.  The store
refuses schema changes inside a transaction, so a schema record never
falls between a transaction's operations and its commit.
Format 2 logged constant rebinds as their own record kind, which this
reader would skip as unknown and silently lose, so format-2 directories
are refused; format 3 hashed a second, canonical rendering of its payload
and accepted a payload with no digest at all, so format-3 directories are
refused too.  Format 4 logged ``insert`` and ``update`` entries, which
replay no longer knows, so format-4 directories are refused as well: a
reader that skipped them would silently lose commits.

When a replayed ``schema`` record's source differs from the snapshot's
``schema`` source, recovery flags ``schema_drift`` — ``repro recover``
warns (and exits non-zero under ``--strict``) that the snapshot no longer
describes the schema the store actually runs, until a fresh checkpoint
folds the change in.

Redo-only commits
-----------------

The log is *deferred-update* (redo-only): nothing is written before the
commit decision.  Every commit that passed its check — an auto-commit op,
a routed op, an outermost transaction — writes its whole touched set as one
``commit`` record at the log stage of the store's commit tail
(:meth:`~repro.engine.store.ObjectStore._commit`): the post-image of every
surviving touched object, a ``delete`` for every object that existed
before, nothing for an object inserted and deleted inside the commit.  A
rejected, aborted or rolled-back transaction writes nothing, and memory
never runs ahead of the log (a failed append undoes the commit), so the
log needs no undo records and no brackets.  Recovery applies every intact
``commit`` in log order and holds every ``prepare`` until its ``resolve``;
whatever log prefix survives, it reconstructs precisely a prefix of the
*committed* history.

Each record's ``c`` is the oid counter's high-water mark, so an oid burned
by rejected or aborted work before an accepted commit is never reissued
after a restart.  An oid burned after the last commit may be; no write
carrying it was ever acknowledged.

Each line carries a CRC32 of its payload; a torn or corrupt line ends the
replay (everything before it is intact — the file is append-only), and
re-attaching the log truncates the tail so new records never follow garbage.

Checkpoints
-----------

A checkpoint snapshots the live store and then resets the log.  Records
carry explicit LSNs and the snapshot stores ``next_lsn``, so every crash
window is covered: a crash after the snapshot rename but before the log
reset just makes recovery skip the already-snapshotted records (their LSNs
lie below ``next_lsn``).  A commit is one record, so no committed
transaction ever straddles a snapshot boundary.  The store triggers one
automatically every ``checkpoint_every`` log records (see
:meth:`WriteAheadLog.should_checkpoint`).

Snapshot rows are rendered once, at the commit that wrote the state:
each :class:`~repro.engine.objects.DBObject` keeps its row (the compact,
key-sorted JSON of ``[oid, class, encoded state]``) and the state dict that
row came from.  The log stage renders the row of every surviving touched
object and embeds those bytes in the record's ``put`` entry; a checkpoint
then only joins the rows, hashes them and writes them.  A row is current
while its state dict *is* still the object's state — states are never
mutated in place: a write installs a new dict, a rollback reinstalls the
old one — so identity is enough, and the checkpoint renders again only a
state a rollback reinstalled.  Recovery keeps each snapshot line's bytes as
the row of the object parsed from it; an object a replayed log record
wrote starts without one, and the next checkpoint renders it.

Group commit
------------

``sync=True`` makes every commit point durable against power loss with an
``fsync``.  Under concurrent committers that cost is amortized by **group
commit**: the commit point splits into :meth:`WriteAheadLog.commit_flush`
(buffer flush + durability ticket, called under the store's writer lock)
and :meth:`WriteAheadLog.wait_durable` (called *after* the writer lock is
released).  The first waiter becomes the fsync leader; committers arriving
while the leader syncs — or during the short batching window the leader
adds once it has seen concurrent committers — are covered by the same
fsync and return without issuing their own.  One fsync thus retires many
commits (the ``fsyncs``/``sync_commits`` counters expose the ratio), while
a lone committer keeps the exact pre-group-commit latency: no concurrent
ticket, no window, immediate fsync.

Failure model
-------------

Every file operation goes through one file layer, picked once when the log
is built: a :class:`~repro.engine.faults.FaultInjector` when the caller
passes one, the plain OS calls (``_OsFiles``) otherwise.  The log is
**fail-stop**: an IO failure at a commit point — the append whose
bytes may now sit partially in a userspace buffer, the flush whose state
is unknown, or the fsync that must never be retried (fsyncgate: the kernel
may have dropped the dirty pages while marking them clean) — **poisons**
the log.  A poisoned log refuses every further append and flush with
:class:`~repro.errors.StorePoisonedError`; the owning store degrades to
read-only (snapshots still served) until the directory is reopened, which
recovers exactly the durable committed prefix.  Retry-with-backoff is
applied only where it is sound: directory fsyncs and renames, on the
transient errno classes (``EINTR``/``EAGAIN``), with unsupported-class
errors (directory fsync on filesystems where it is advisory) counted in
``telemetry`` instead of silently swallowed.

On the read side :func:`load_image` checks a snapshot's header, then
hashes its body bytes against the header's digest, and only then parses
the body (once); the previous checkpoint snapshot is retained
as ``snapshot.prev.json`` with automatic fallback when the newest is
damaged (an LSN-contiguity check then truncates any log tail the older
base cannot replay onto, so fallback recovery still yields exactly a
committed prefix — the previous checkpoint's).  :func:`load_image` is the
one reader of a durable directory and records each condition it worked
around as one of the image's ``findings``; :func:`fsck` scrubs a directory
offline by grading them (plus the retained previous snapshot's digest),
with ``clean``/``truncatable``/``fatal`` verdicts mapped to exit codes
0/1/2 by the ``repro fsck`` CLI.

Single-writer: a durable directory must be attached to at most one live
store at a time (the owning store's writer lock serializes appends);
nothing locks the directory itself against other processes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Mapping
from typing import Any

from repro.engine.faults import (
    UNSUPPORTED_DIR_FSYNC_ERRNOS,
    FaultInjector,
    classify_os_error,
)
from repro.engine.objects import DBObject
from repro.errors import EngineError, StorePoisonedError

SNAPSHOT_NAME = "snapshot.json"
SNAPSHOT_PREV_NAME = "snapshot.prev.json"
LOG_NAME = "wal.jsonl"
#: Name of the shard-layout manifest inside a sharded store root.
MANIFEST_NAME = "shards.json"
SNAPSHOT_FORMAT = 5
#: First word of a snapshot file's header line.
_SNAPSHOT_MAGIC = b"repro-snapshot"

#: Bounded-retry policy for the call sites where retry is *sound*
#: (directory fsync, rename): attempts and the base backoff that doubles
#: between them.  Commit-point fsyncs are never retried — see
#: :meth:`WriteAheadLog.poison`.
_RETRY_ATTEMPTS = 3
_RETRY_BACKOFF = 0.001

#: The short wait a group-commit fsync leader adds while the system is
#: under concurrent commit load (see :meth:`WriteAheadLog.wait_durable`).
_GROUP_WINDOW = 0.001


# ---------------------------------------------------------------------------
# value codec — states hold type-checked values only: str/int/float/bool and
# frozensets thereof (set-typed attributes), plus oid strings for references
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    if isinstance(value, (frozenset, set)):
        return {"$set": sorted((encode_value(member) for member in value), key=repr)}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise EngineError(
        f"cannot serialize {value!r} ({type(value).__name__}) into the "
        "write-ahead log"
    )


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$set"}:
            return frozenset(decode_value(member) for member in value["$set"])
        raise EngineError(f"unknown value encoding {value!r} in the write-ahead log")
    return value


#: Value types the codec stores as they are; ``encode_state`` passes
#: them through without ``encode_value``'s ``isinstance`` chain.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def encode_state(state: Mapping[str, Any]) -> dict[str, Any]:
    return {
        name: value if type(value) in _PLAIN else encode_value(value)
        for name, value in state.items()
    }


def decode_state(state: dict[str, Any]) -> dict[str, Any]:
    """``state`` decoded in place and returned: callers pass a freshly
    parsed (or copied) dict, which becomes the object's state, and only
    set values need decoding."""
    for name, value in state.items():
        if type(value) is dict:
            state[name] = decode_value(value)
    return state


#: The one renderer of snapshot rows: compact, key-sorted JSON, built once
#: rather than per call as ``json.dumps`` with options would.
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def snapshot_row(oid: str, class_name: str, state: Mapping[str, Any]) -> bytes:
    """One object's snapshot row: the compact, key-sorted JSON of ``[oid,
    class, encoded state]`` — the line a checkpoint writes for it and the
    row its log ``put`` entry carries."""
    return _ROW_ENCODER.encode([oid, class_name, encode_state(state)]).encode(
        "utf-8"
    )


def _row(obj: DBObject) -> bytes:
    """``obj``'s snapshot row, rendered only when its state dict was
    replaced since the row was (see *Checkpoints*)."""
    state = obj.state
    if obj.row_state is not state:
        obj.row = snapshot_row(obj.oid, obj.class_name, state)
        obj.row_state = state
    return obj.row


# ---------------------------------------------------------------------------
# record framing
# ---------------------------------------------------------------------------


def _frame(record: dict) -> bytes:
    """The log line of a record rendered whole (``schema``, ``decide``,
    ``resolve``)."""
    return _frame_payload(
        json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    )


def _frame_payload(payload: bytes) -> bytes:
    """The log line of an already rendered record: its CRC32, then it."""
    return b"%08x:%s\n" % (zlib.crc32(payload), payload)


def _parse_line(line: bytes) -> dict | None:
    """The record behind one complete log line, or ``None`` when torn/corrupt."""
    if len(line) < 10 or line[8:9] != b":":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(record, dict) or "t" not in record or "n" not in record:
        return None
    return record


def scan_log(data: bytes) -> tuple[list[dict], int, bool]:
    """Parse a log image into ``(records, valid_bytes, torn)``.

    Replay stops at the first incomplete or corrupt line: the file is
    append-only, so everything before that point is intact and everything
    from it on is a crash artifact.  ``valid_bytes`` is where a re-attached
    writer must truncate before appending.
    """
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            return records, offset, True  # torn tail: no terminator
        record = _parse_line(data[offset:newline])
        if record is None:
            return records, offset, True  # corrupt line
        records.append(record)
        offset = newline + 1
    return records, offset, False


def _count(telemetry: "dict | None", key: str) -> None:
    if telemetry is not None:
        telemetry[key] = telemetry.get(key, 0) + 1


class _OsFiles:
    """The plain file layer: the :class:`~repro.engine.faults.FaultInjector`
    interface with every operation passed straight to the OS (``point``
    names the call site and is ignored)."""

    def write(self, handle, data: bytes, point: str) -> None:
        handle.write(data)

    def flush(self, handle, point: str) -> None:
        handle.flush()

    def fsync(self, fd: int, point: str) -> None:
        os.fsync(fd)

    def replace(self, src, dst, point: str) -> None:
        os.replace(src, dst)

    def truncate(self, handle, size: int, point: str) -> None:
        handle.truncate(size)


#: The file layer of every write that names no fault injector.
_OS_FILES = _OsFiles()


def _fsync_directory(
    path: Path,
    files: "FaultInjector | _OsFiles" = _OS_FILES,
    telemetry: "dict | None" = None,
) -> None:
    """Fsync a directory entry, with errors classified instead of swallowed.

    Directory fsync is the one fsync where retry *is* sound (nothing was
    handed to the kernel that a failure could have silently dropped — the
    rename itself already happened), and where some filesystems legitimately
    refuse the operation.  Policy per :func:`~repro.engine.faults.classify_os_error`:
    ``unsupported`` errno classes are counted in ``telemetry`` and skipped,
    ``transient`` ones get a bounded retry with doubling backoff, anything
    else (EIO, ENOSPC, the unknown) raises — a durability guarantee the
    disk refused must not be reported as kept.
    """
    for attempt in range(_RETRY_ATTEMPTS):
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                files.fsync(fd, "dir.fsync")
            finally:
                os.close(fd)
            return
        except OSError as exc:
            kind = classify_os_error(exc, UNSUPPORTED_DIR_FSYNC_ERRNOS)
            if kind == "unsupported":
                _count(telemetry, "dir_fsync_unsupported")
                return
            if kind == "transient" and attempt + 1 < _RETRY_ATTEMPTS:
                _count(telemetry, "dir_fsync_retries")
                time.sleep(_RETRY_BACKOFF * (2**attempt))
                continue
            raise


def _replace_with_retry(
    src: Path,
    dst: Path,
    point: str,
    files: "FaultInjector | _OsFiles" = _OS_FILES,
    telemetry: "dict | None" = None,
) -> None:
    """``os.replace`` with a bounded retry on the transient errno classes
    (the other rename-shaped call site where retry is sound: an EINTR'd
    rename either happened or did not — re-issuing it is idempotent)."""
    for attempt in range(_RETRY_ATTEMPTS):
        try:
            files.replace(src, dst, point)
            return
        except OSError as exc:
            if (
                classify_os_error(exc) == "transient"
                and attempt + 1 < _RETRY_ATTEMPTS
            ):
                _count(telemetry, "replace_retries")
                time.sleep(_RETRY_BACKOFF * (2**attempt))
                continue
            raise


def _write_atomic(
    path: Path,
    data: bytes,
    files: "FaultInjector | _OsFiles" = _OS_FILES,
    telemetry: "dict | None" = None,
    retain: "Path | None" = None,
    points: str = "snapshot.",
) -> None:
    """Atomically publish ``data`` at ``path`` (tmp + fsync + rename +
    directory fsync).  With ``retain``, the previous file at ``path`` is
    rotated there first — the rotation order (tmp written and fsynced →
    current→retain rename → tmp→current rename → directory fsync) leaves
    every crash window recoverable: at any instant at least one of
    ``path``/``retain`` holds a complete, verifiable payload.  ``points``
    prefixes the fault-point names (``snapshot.fsync``, ``log.reset_fsync``
    ...)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        files.write(handle, data, points + "write")
        handle.flush()
        files.fsync(handle.fileno(), points + "fsync")
    if retain is not None and path.exists():
        _replace_with_retry(path, retain, points + "retain", files, telemetry)
    _replace_with_retry(tmp, path, points + "replace", files, telemetry)
    _fsync_directory(path.parent, files, telemetry)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveredImage:
    """What recovery reconstructed from a durable directory."""

    schema_source: str
    database: str
    #: oid -> recovered object, in snapshot-then-log order; the store
    #: adopts this table as it is.  An object parsed from the snapshot keeps
    #: its line as its row; one a replayed log record wrote has none yet.
    objects: dict[str, DBObject]
    #: Highest oid counter the history used: the snapshot's, raised by each
    #: replayed ``commit``/``prepare`` record's high-water mark ``c`` (oids
    #: burned by rejected or aborted work before a commit included).
    counter: int
    #: The LSN the re-attached writer continues from.
    next_lsn: int
    #: Byte length of the log's intact prefix — the truncation point for
    #: re-attachment, cutting the torn/corrupt tail (0 after an LSN gap).
    log_valid_bytes: int
    #: Records in the surviving prefix that postdate the snapshot (the
    #: re-attached writer's pending backlog toward the next checkpoint).
    log_records: int
    #: Committed operations applied on top of the snapshot.
    replayed: int
    #: Operations discarded: prepared redo sets resolved as aborted.
    discarded: int
    #: Intact CRC frames at the head of the log, as found on disk.
    frames: int
    #: Byte length of the log file, as found on disk.
    log_bytes: int
    #: Schema-affecting records replayed from the log tail.
    schema_changes: int = 0
    #: True when the replayed tail moved the schema away from the
    #: snapshot's ``schema`` source — the snapshot no longer describes the
    #: running schema until the next checkpoint.
    schema_drift: bool = False
    #: True when ``snapshot.json`` was missing or damaged and recovery fell
    #: back to the retained ``snapshot.prev.json``.
    used_fallback_snapshot: bool = False
    #: What recovery had to work around, as ``(verdict, text)`` pairs in
    #: detection order: ``truncatable`` for damage a reopen repairs at the
    #: cost of a suffix (a torn log tail, a snapshot fallback, an LSN gap),
    #: ``clean`` for a condition that loses nothing (schema drift).  The
    #: one wording :func:`fsck` grades and ``repro recover`` warns with.
    findings: list[tuple[str, str]] = field(default_factory=list)
    #: In-doubt two-phase commits: gid -> the ``prepare`` record's redo
    #: entries, durably prepared but with no ``resolve`` in this log.
    #: Neither applied nor discarded — the commit router resolves them from
    #: the coordinator shard's ``decide`` (see :func:`apply_resolutions`).
    prepared: dict[str, list[dict]] = field(default_factory=dict)
    #: Coordinator decisions replayed from this log: gid -> outcome.  On a
    #: sharded root the union over all shards resolves every in-doubt gid;
    #: a gid absent everywhere is presumed aborted.
    decisions: dict[str, bool] = field(default_factory=dict)


@contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector for a bulk load, restoring
    its previous state on exit.  Recovery allocates one state dict per
    object and creates no reference cycles; with the collector running,
    every collection of the oldest generation walks the whole growing
    image, which makes loading superlinear in the store."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_snapshot(snapshot_path: Path) -> tuple[dict, list[bytes], list]:
    """Verify, then parse, one snapshot file: the header line must name
    this ``SNAPSHOT_FORMAT`` and the SHA-256 of exactly the body bytes
    after it, and only then is the body parsed.  Returns the head line's
    mapping, the object lines' bytes and the rows parsed from them.

    Raises :class:`EngineError` on unreadable bytes, a missing or other
    format's header (every file written before format 4 has none), a
    digest mismatch, or a verified body that is not one JSON value per
    line."""
    where = repr(str(snapshot_path))
    try:
        raw = snapshot_path.read_bytes()
    except OSError as exc:
        raise EngineError(f"unreadable snapshot at {where}: {exc}") from exc
    # The body is hashed and split in place: a store-sized copy of it would
    # cost as much as the parse.
    newline = raw.find(b"\n")
    header_end = newline if newline >= 0 else len(raw)
    body = header_end + 1
    magic, _, rest = raw[:header_end].partition(b" ")
    version, _, digest = rest.partition(b" ")
    if magic != _SNAPSHOT_MAGIC or version != b"%d" % SNAPSHOT_FORMAT:
        found = version.decode("ascii", "replace") if magic == _SNAPSHOT_MAGIC else "no header"
        raise EngineError(f"unsupported snapshot format at {where}: {found}")
    with memoryview(raw) as view:
        actual = hashlib.sha256(view[body:]).hexdigest()
    if digest != b"sha256=" + actual.encode("ascii"):
        raise EngineError(
            f"snapshot digest mismatch at {where}: the file was altered "
            "after it was written"
        )
    lines = raw.split(b"\n")
    del raw
    try:
        # Every line ends in a newline (JSON escapes the ones inside
        # strings), so the split ends in one empty piece.
        _header, head, *rows, end = lines
        if end:
            raise ValueError("the body does not end in a newline")
        # One parse of all the rows, not one call per line: two sentinel
        # values make the joined lines one JSON array.
        parsed = json.loads(b",".join([b"[0", *rows, b"0]"]))
        return json.loads(head), rows, parsed[1:-1]
    except ValueError as exc:
        raise EngineError(f"corrupt snapshot at {where}: {exc}") from exc


def _apply_ops(objects: dict[str, DBObject], ops: list[dict]) -> None:
    """Apply one committed redo set onto a recovering ``objects`` image.
    An object a ``put`` writes starts without a snapshot row."""
    for op in ops:
        if op["t"] == "put":
            oid, class_name, state = op["row"]
            objects[oid] = DBObject(oid, class_name, decode_state(state))
        elif op["t"] == "delete":
            objects.pop(op["oid"], None)


@collector_paused()
def load_image(path: str | Path) -> RecoveredImage | None:
    """Recover the durable image under ``path``; ``None`` when nothing exists.

    Replays the snapshot, then every intact ``commit`` record with
    ``lsn >= snapshot.next_lsn``, holding each ``prepare`` until its
    ``resolve`` (see the module docstring).  A damaged or missing
    ``snapshot.json`` falls back to the retained ``snapshot.prev.json``
    when one exists (``used_fallback_snapshot`` flags it); a hole in the
    log's LSN sequence relative to the recovered base truncates replay at
    the hole, so the result is always exactly a committed prefix.  Each
    condition recovery works around is recorded in ``findings`` where it
    is detected.  Raises :class:`EngineError` when no intact snapshot
    survives, on a log with no snapshot at all (the snapshot holds the
    schema, so a bare log is unrecoverable), and on a sharded store root.
    """
    base = Path(path)
    snapshot_path = base / SNAPSHOT_NAME
    prev_path = base / SNAPSHOT_PREV_NAME
    log_path = base / LOG_NAME
    findings: list[tuple[str, str]] = []
    if snapshot_path.exists():
        try:
            snapshot = _read_snapshot(snapshot_path)
        except EngineError as exc:
            if not prev_path.exists():
                raise
            # Newest snapshot damaged but the previous checkpoint was
            # retained: fall back.  If the fallback is damaged too,
            # nothing recoverable remains: the error names both.
            try:
                snapshot = _read_snapshot(prev_path)
            except EngineError as prev_exc:
                raise EngineError(
                    f"snapshot damaged and no intact fallback exists: {exc} "
                    f"(retained previous snapshot: {prev_exc})"
                ) from exc
            findings.append((
                "truncatable",
                f"snapshot damaged ({exc}); recovery falls back to the "
                "retained previous snapshot",
            ))
    elif prev_path.exists():
        # Crash window inside the snapshot rotation: the old current was
        # renamed to .prev but the new file never made it into place.
        snapshot = _read_snapshot(prev_path)
        findings.append((
            "truncatable",
            f"missing {SNAPSHOT_NAME} (crash during snapshot rotation); "
            "recovery falls back to the retained previous snapshot",
        ))
    elif log_path.exists():
        raise EngineError(
            f"write-ahead log without a snapshot at {str(base)!r}: the "
            "snapshot holds the schema, so the log alone cannot be recovered"
        )
    elif (base / MANIFEST_NAME).exists():
        # Recovering the root as a plain store would find nothing and then
        # create a fresh store beside the shard directories.
        raise EngineError(
            f"{str(base)!r} is a sharded store root (it holds "
            f"{MANIFEST_NAME}): open it with ShardedStore.open, or scrub it "
            "with `repro fsck`"
        )
    else:
        return None
    # Only a snapshot fallback can have been recorded so far.
    used_fallback = bool(findings)

    head, lines, parsed = snapshot
    # The parse gives every row its own copy of its class name; one shared
    # string per class keeps each later lookup by class name on one object.
    names: dict[str, str] = {}
    objects: dict[str, DBObject] = {}
    for line, (oid, class_name, state) in zip(lines, parsed):
        obj = objects[oid] = DBObject(
            oid, names.setdefault(class_name, class_name), decode_state(state)
        )
        obj.row = line
        obj.row_state = obj.state
    counter = int(head.get("counter", 0))
    start_lsn = int(head.get("next_lsn", 0))
    schema_source = head.get("schema", "")
    schema_changes = 0

    records: list[dict] = []
    valid_bytes = log_bytes = 0
    if log_path.exists():
        log_bytes = log_path.stat().st_size
        records, valid_bytes, torn = scan_log(log_path.read_bytes())
        if torn:
            findings.append((
                "truncatable",
                f"log: torn or corrupt frame at byte {valid_bytes} "
                f"({log_bytes - valid_bytes} trailing bytes unreadable)",
            ))
    frames = len(records)

    prepared: dict[str, list[dict]] = {}
    decisions: dict[str, bool] = {}
    replayed = 0
    discarded = 0
    #: Post-snapshot records that survive in the log after recovery.
    kept = 0
    max_lsn = start_lsn - 1
    if used_fallback and records and int(records[0]["n"]) > start_lsn:
        # The log starts *above* the fallback base's LSN horizon: it was
        # reset for a checkpoint the fallback predates, so the records
        # between ``start_lsn`` and the log's first record are folded into
        # the damaged newer snapshot only.  Replaying the survivors onto
        # the older base would fabricate a state no commit ever produced —
        # drop the whole log instead; recovery then yields exactly the
        # fallback checkpoint's committed state (still a committed prefix).
        findings.append((
            "truncatable",
            "log: LSN gap behind the fallback snapshot (the log was reset "
            "for a newer checkpoint); replay drops its records and stops at "
            "the fallback checkpoint's committed state",
        ))
        records = []
        valid_bytes = 0
    for record in records:
        lsn = int(record["n"])
        if lsn < start_lsn:
            continue  # already folded into the snapshot
        max_lsn = max(max_lsn, lsn)
        kind = record["t"]
        if kind == "commit":
            counter = max(counter, int(record["c"]))
            _apply_ops(objects, record["ops"])
            replayed += len(record["ops"])
        elif kind == "prepare":
            counter = max(counter, int(record["c"]))
            prepared[str(record["g"])] = record["ops"]
        elif kind == "decide":
            decisions[str(record["g"])] = bool(record["ok"])
        elif kind == "resolve":
            ops = prepared.pop(str(record["g"]), None)
            if ops is not None:
                if record["ok"]:
                    _apply_ops(objects, ops)
                    replayed += len(ops)
                else:
                    discarded += len(ops)
        elif kind == "schema":
            schema_source = record["source"]
            schema_changes += 1
        # unknown record kinds are skipped: forward compatibility
        kept += 1

    schema_drift = schema_source != head.get("schema", "")
    if schema_drift:
        findings.append((
            "clean",
            f"schema drift: the log tail carries {schema_changes} "
            "schema-change record(s) newer than the snapshot, and its schema "
            "differs — the snapshot no longer describes the running schema; "
            "run `repro snapshot` to fold the changes in",
        ))
    return RecoveredImage(
        schema_source=schema_source,
        database=head.get("database", ""),
        objects=objects,
        counter=counter,
        next_lsn=max_lsn + 1,
        log_valid_bytes=valid_bytes,
        log_records=kept,
        replayed=replayed,
        discarded=discarded,
        frames=frames,
        log_bytes=log_bytes,
        schema_changes=schema_changes,
        schema_drift=schema_drift,
        used_fallback_snapshot=used_fallback,
        findings=findings,
        prepared=prepared,
        decisions=decisions,
    )


def apply_resolutions(
    image: RecoveredImage, outcomes: "Mapping[str, bool]"
) -> list[tuple[str, bool]]:
    """Resolve an image's in-doubt prepared redo sets against ``outcomes``.

    The commit router calls this after gathering every shard's replayed
    ``decide`` records: each prepared gid found in ``outcomes`` with a
    ``True`` verdict is applied onto ``image.objects`` (in log order);
    everything else — explicit ``False`` or absent entirely — is presumed
    aborted and discarded.  Returns the ``(gid, outcome)`` pairs in
    resolution order so the caller can append matching ``resolve`` records
    to the re-attached log, making the next recovery self-contained.
    """
    resolved: list[tuple[str, bool]] = []
    for gid, ops in image.prepared.items():
        ok = bool(outcomes.get(gid, False))
        if ok:
            _apply_ops(image.objects, ops)
            image.replayed += len(ops)
        else:
            image.discarded += len(ops)
        resolved.append((gid, ok))
    image.prepared = {}
    return resolved


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """The append side of one durable directory.

    Owned by an :class:`~repro.engine.store.ObjectStore`, and holding no
    transaction state: at the log stage of each accepted commit the store
    renders the touched set's redo entries with
    :meth:`log_insert`/:meth:`log_update`/:meth:`log_delete` and writes
    them as one record with :meth:`commit_transaction` (or, as a two-phase
    participant, :meth:`prepare_transaction`).  Rejected and aborted work
    never reaches the log.

    ``sync=True`` fsyncs at every commit point (durable against power loss);
    the default flushes Python's buffer at commit points, which survives a
    process crash but not a kernel one.  ``checkpoint_every`` is the
    auto-checkpoint threshold in log records (0 disables).

    Under concurrent committers, ``sync=True`` commits coalesce through
    group commit (see the module docstring): the fsync leader waits
    :data:`_GROUP_WINDOW` while the system is under concurrent commit load,
    letting more committers flush before the single fsync that covers them
    all.  It never delays a lone committer.
    """

    def __init__(
        self,
        path: str | Path,
        sync: bool = False,
        checkpoint_every: int = 10_000,
        faults: "FaultInjector | None" = None,
    ):
        self.path = Path(path)
        self.sync = sync
        self.checkpoint_every = checkpoint_every
        #: The file layer every file operation routes through: the fault
        #: injector (:mod:`repro.engine.faults`), or the plain OS calls.
        self.files = faults if faults is not None else _OS_FILES
        #: Why this log fail-stopped, or ``None`` while healthy.  Set once
        #: (first failure wins) by :meth:`poison`; never cleared — recovery
        #: means reopening the directory, not resuscitating this object.
        self._poisoned: "str | None" = None
        #: Classified-error and degraded-path counters: keys like
        #: ``dir_fsync_unsupported``, ``dir_fsync_retries``,
        #: ``replace_retries``.
        self.telemetry: dict[str, int] = {}
        self._handle = None
        self._next_lsn = 0
        self._records_since_snapshot = 0
        # -- group commit state (guarded by ``_sync_cond``'s lock) ---------
        self._sync_cond = threading.Condition()
        #: Highest LSN known flushed to the OS (updated at commit_flush,
        #: i.e. under the store's writer lock; read by the fsync leader).
        self._flushed_lsn = 0
        #: Highest LSN covered by an fsync.
        self._synced_lsn = 0
        #: True while a leader is inside os.fsync.
        self._syncing = False
        #: Committers between ticket issue and durability.
        self._pending_syncs = 0
        #: Monotonic deadline: while now < deadline the system counts as
        #: under concurrent commit load and leaders apply the window.
        self._group_load_until = 0.0
        #: Telemetry: fsyncs issued by the group path / sync commit points.
        self.fsyncs = 0
        self.sync_commits = 0

    @property
    def snapshot_path(self) -> Path:
        return self.path / SNAPSHOT_NAME

    @property
    def prev_snapshot_path(self) -> Path:
        return self.path / SNAPSHOT_PREV_NAME

    @property
    def log_path(self) -> Path:
        return self.path / LOG_NAME

    def has_data(self) -> bool:
        # The retained previous snapshot counts: a directory that crashed
        # mid-rotation holds only snapshot.prev.json, and initializing a
        # fresh store over it would clobber the recoverable state.
        return (
            self.snapshot_path.exists()
            or self.prev_snapshot_path.exists()
            or self.log_path.exists()
        )

    # -- fail-stop ---------------------------------------------------------------

    @property
    def poisoned(self) -> "str | None":
        """Why this log fail-stopped, or ``None`` while healthy."""
        return self._poisoned

    def poison(self, reason: str) -> None:
        """Fail-stop the log: every further append, flush, and durability
        wait raises :class:`StorePoisonedError`.

        Called on any commit-point IO failure.  The fsync case is the
        load-bearing one (fsyncgate): after a failed fsync the kernel may
        have dropped the dirty pages *and marked them clean*, so a retry
        that returns success proves nothing about the lost writes — the
        only honest outcome is to stop accepting commits and let a reopen
        recover the prefix the disk actually holds.  Append/flush failures
        poison for a different reason: part of a record may sit in the
        userspace buffer, and if it ever flushed it would be mid-log
        garbage that truncates *later* committed records at recovery.

        First reason wins; waiters blocked in :meth:`wait_durable` are
        woken so they can fail instead of hanging.
        """
        with self._sync_cond:
            if self._poisoned is None:
                self._poisoned = reason
            self._sync_cond.notify_all()

    def check_poisoned(self) -> None:
        """Raise :class:`StorePoisonedError` if the log has fail-stopped."""
        if self._poisoned is not None:
            raise StorePoisonedError(
                f"write-ahead log at {str(self.path)!r} is poisoned: "
                f"{self._poisoned}; the store is read-only (reopen the "
                "directory to recover the durable prefix)"
            )

    @property
    def pending_records(self) -> int:
        """Log records not yet folded into a snapshot."""
        return self._records_since_snapshot

    # -- lifecycle ---------------------------------------------------------------

    def initialize(
        self,
        schema_source: str,
        database: str,
        objects: Iterable[DBObject],
        counter: int,
    ) -> None:
        """Create a fresh durable directory (initial snapshot + empty log)."""
        self.path.mkdir(parents=True, exist_ok=True)
        self._write_snapshot_file(schema_source, database, objects, counter)
        self._reset_log()

    def resume(self, image: RecoveredImage) -> None:
        """Attach to a recovered directory: truncate everything recovery
        discarded — the torn tail, and the whole log after an LSN gap — and
        continue the LSN sequence.

        Crash windows here are benign by construction and pinned by
        regression tests: a crash *before* the truncate changes nothing
        (the next recovery discards the same tail again), and a crash
        *between truncate and fsync* can at worst resurrect part of the
        discarded tail, which the next recovery re-discards — truncation
        never touches the committed prefix, so no window loses it.

        When recovery fell back to the retained previous snapshot, the
        damaged ``snapshot.json`` is repaired first (atomically overwritten
        with the fallback's content): the next checkpoint's rotation would
        otherwise rotate the *damaged* file over the good fallback.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        if image.used_fallback_snapshot and self.prev_snapshot_path.exists():
            self._repair_snapshot_rotation()
        if self.log_path.exists():
            if self.log_path.stat().st_size > image.log_valid_bytes:
                with open(self.log_path, "r+b") as handle:
                    self.files.truncate(
                        handle, image.log_valid_bytes, "wal.resume_truncate"
                    )
                    handle.flush()
                    self.files.fsync(handle.fileno(), "wal.resume_fsync")
        else:  # snapshot-only directory (e.g. crash between snapshot and log reset)
            self.log_path.touch()
        self._next_lsn = image.next_lsn
        self._records_since_snapshot = image.log_records

    def _repair_snapshot_rotation(self) -> None:
        """Atomically overwrite a damaged/missing ``snapshot.json`` with the
        retained previous snapshot's bytes.  Afterwards both files hold the
        same verified payload, so every later rotation window stays
        recoverable; a crash inside the repair itself just re-runs it on
        the next open (the fallback is read-only here)."""
        _write_atomic(
            self.snapshot_path,
            self.prev_snapshot_path.read_bytes(),
            self.files,
            self.telemetry,
        )

    def flush(self) -> None:
        self._commit_point()

    def close(self) -> None:
        # Drain in-flight group commits first: a leader mid-fsync (or a
        # ticket holder about to become one) must not race the handle
        # teardown.  New tickets cannot be issued meanwhile — the owning
        # store calls close() under its writer lock, which commit_flush
        # also requires.
        with self._sync_cond:
            while self._syncing or self._pending_syncs > 0:
                self._sync_cond.wait()
        if self._handle is not None:
            try:
                if self._poisoned is None:
                    self._handle.flush()
            finally:
                # On a poisoned log the explicit flush is skipped and the
                # close is best-effort: whatever close()'s own flush still
                # writes is either an already-acked record or tail bytes
                # recovery truncates (the log is append-only and a failed
                # append never entered the buffer), and a handle that
                # cannot even close must still be released — the data
                # loss is already declared.
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # -- appending ---------------------------------------------------------------

    def _open_handle(self):
        if self._handle is None:
            self._handle = open(self.log_path, "ab")
        return self._handle

    def _append(self, record: dict) -> None:
        """Append one record rendered whole (``schema``, ``decide``,
        ``resolve``)."""
        self.check_poisoned()
        record["n"] = self._next_lsn
        self._write_line(_frame(record))

    def _append_redo(self, head: bytes, ops: list[bytes], kind: bytes) -> None:
        """Append one ``commit`` or ``prepare`` record assembled from bytes:
        ``head`` holds its keys that sort before ``n``, and ``ops`` the
        rendered redo entries.  The result is exactly the compact,
        key-sorted JSON :func:`_frame` would render."""
        self.check_poisoned()
        self._write_line(
            _frame_payload(
                b'%s"n":%d,"ops":[%s],"t":"%s"}'
                % (head, self._next_lsn, b",".join(ops), kind)
            )
        )

    def _write_line(self, data: bytes) -> None:
        handle = self._open_handle()
        try:
            self.files.write(handle, data, "wal.append")
        except BaseException:
            # The record's durable fate is unknown (none, some, or all of
            # its bytes may reach the log).  Fail stop: the caller rolls
            # the in-memory mutation back, and recovery truncates whatever
            # tail actually landed.
            self.poison("write-ahead log append failed")
            raise
        self._next_lsn += 1
        self._records_since_snapshot += 1

    def _commit_point(self) -> None:
        ticket = self.commit_flush()
        if ticket is not None:
            self.wait_durable(ticket)

    # -- group commit ------------------------------------------------------------

    def commit_flush(self) -> int | None:
        """First half of a commit point: flush the buffer to the OS and,
        in ``sync`` mode, issue a durability ticket.

        Must run under the store's writer lock (it touches the buffered
        handle).  The returned ticket is redeemed with :meth:`wait_durable`
        *after* the lock is released, so other committers can append while
        this one waits — that overlap is what group commit batches.
        Returns ``None`` when no fsync is owed (non-sync mode, or nothing
        written yet).
        """
        if self._handle is None:
            return None
        self.check_poisoned()
        try:
            self.files.flush(self._handle, "wal.flush")
        except BaseException:
            # How much of the buffer reached the OS is unknown; nothing
            # sound can be appended behind it.  Fail stop.
            self.poison("write-ahead log flush failed at a commit point")
            raise
        if not self.sync:
            return None
        ticket = self._next_lsn
        with self._sync_cond:
            self._flushed_lsn = max(self._flushed_lsn, ticket)
            self.sync_commits += 1
            # The ticket is outstanding from *issue*, not from the wait:
            # close()'s drain must cover a committer preempted between
            # releasing the writer lock and redeeming its ticket.
            self._pending_syncs += 1
            if self._pending_syncs > 1:
                # Two committers in flight at once: flag concurrent load
                # for a while, so leaders batch even when the committers
                # alternate rather than overlap exactly.
                self._group_load_until = time.monotonic() + 0.05
        return ticket

    def abandon_ticket(self, ticket: "int | None") -> None:
        """Release an issued ticket without waiting for durability (the
        commit path failed after the flush).  Keeps the outstanding count
        balanced so :meth:`close` cannot wait forever."""
        if ticket is None:
            return
        with self._sync_cond:
            self._pending_syncs -= 1
            if self._pending_syncs == 0:
                self._sync_cond.notify_all()

    def wait_durable(self, ticket: int) -> None:
        """Block until every record with ``lsn < ticket`` is fsynced.

        The first waiter becomes the leader: it (optionally) waits out the
        batching window, issues one fsync, and wakes everyone it covered.
        Later waiters piggyback.  Callers must not hold locks an fsync
        leader could need — the store releases its writer lock first.

        A failed fsync is **never retried** (fsyncgate: the kernel may
        have dropped the dirty pages while marking them clean, so a retry
        that succeeds proves nothing about the lost writes).  The leader
        :meth:`poison`\\ s the log and raises
        :class:`~repro.errors.StorePoisonedError`; every follower waiting
        on the same batch — and every committer arriving later — fails the
        same way instead of hanging or falsely reporting durability.
        Followers whose ticket was already covered by an earlier completed
        fsync still succeed: their durability was provided before the
        failure.
        """
        try:
            while True:
                with self._sync_cond:
                    # Order matters: a ticket the disk already covered is
                    # durable regardless of any later poisoning.
                    if self._synced_lsn >= ticket:
                        return
                    if self._poisoned is not None:
                        raise StorePoisonedError(
                            "durable commit failed: write-ahead log at "
                            f"{str(self.path)!r} is poisoned "
                            f"({self._poisoned}); the commit's durability "
                            "cannot be established"
                        )
                    if self._syncing:
                        self._sync_cond.wait()
                        continue
                    self._syncing = True
                    under_load = time.monotonic() < self._group_load_until
                # -- leader, outside the condition lock --------------------
                synced = False
                try:
                    if under_load:
                        # Let concurrently running committers reach their
                        # commit_flush; one fsync will cover them all.
                        time.sleep(_GROUP_WINDOW)
                    with self._sync_cond:
                        cover = self._flushed_lsn
                    handle = self._handle
                    if handle is None:
                        # Only possible when the log was torn down under
                        # an unredeemed ticket; never claim durability the
                        # disk cannot provide any more.
                        raise EngineError(
                            "write-ahead log closed while a durable commit "
                            "was waiting for its fsync"
                        )
                    try:
                        self.files.fsync(handle.fileno(), "wal.fsync")
                    except OSError as exc:
                        self.poison(f"commit-point fsync failed: {exc}")
                        raise StorePoisonedError(
                            "durable commit failed: commit-point fsync "
                            f"raised {exc!r}; the write-ahead log is "
                            "poisoned (fsync is never retried after a "
                            "failure) and the store is read-only"
                        ) from exc
                    except BaseException:
                        # A simulated crash (or interpreter teardown) at
                        # the fsync point: still fail stop, then let the
                        # crash propagate untouched.
                        self.poison("crash at a commit-point fsync")
                        raise
                    self.fsyncs += 1
                    synced = True
                finally:
                    with self._sync_cond:
                        self._syncing = False
                        if synced:
                            # Only a completed fsync advances durability.
                            self._synced_lsn = max(self._synced_lsn, cover)
                        # Wakes followers either way: on failure they see
                        # the poisoned flag and fail instead of re-leading.
                        self._sync_cond.notify_all()
        finally:
            with self._sync_cond:
                self._pending_syncs -= 1
                if self._pending_syncs == 0:
                    self._sync_cond.notify_all()

    # -- records -----------------------------------------------------------------

    def log_insert(self, obj: DBObject) -> bytes:
        """The redo entry of an object the commit inserted: a ``put`` of
        its snapshot row, rendered here and kept on the object for the next
        checkpoint."""
        return b'{"row":%s,"t":"put"}' % _row(obj)

    def log_update(self, obj: DBObject) -> bytes:
        """The redo entry of an object the commit changed: the same ``put``
        as an insert's — a full post-image, so replay needs no pre-state."""
        return b'{"row":%s,"t":"put"}' % _row(obj)

    def log_delete(self, oid: str) -> bytes:
        """The redo entry of an object the commit deleted."""
        return b'{"oid":%s,"t":"delete"}' % json.dumps(oid).encode("utf-8")

    def commit_transaction(self, ops: list[bytes], counter: int) -> "int | None":
        """Append one commit's redo entries as a ``commit`` record carrying
        the oid counter's high-water mark, flush, and return the
        group-commit durability ticket (redeem with :meth:`wait_durable`
        once locks are released)."""
        self._append_redo(b'{"c":%d,' % counter, ops, b"commit")
        return self.commit_flush()

    def log_schema(self, schema_source: str) -> None:
        """Schema-change record: the next schema re-printed whole,
        superseding the snapshot's source on replay."""
        self._append({"t": "schema", "source": schema_source})

    def begin(self) -> None:
        """Refuse a transaction on a poisoned log before it starts: it
        could never commit."""
        self.check_poisoned()

    def abort_transaction(self) -> None:
        """A no-op.  Aborted work writes nothing; the name stays defined
        only for the benchmark tracer's span table."""

    # -- two-phase commit --------------------------------------------------------

    def prepare_transaction(
        self, gid: str, ops: list[bytes], counter: int
    ) -> "int | None":
        """2PC phase 1: append this participant's redo entries as a
        ``prepare`` record, flush, and return the durability ticket.

        The entries become durably in-doubt — recovery neither applies nor
        discards them until a ``resolve`` (or, via the router, the
        coordinator's ``decide``) settles the outcome.  The router must
        redeem every participant's ticket (or flush) before writing the
        ``decide`` — that ordering is what makes the decision imply all
        prepares survived."""
        self._append_redo(
            b'{"c":%d,"g":%s,' % (counter, json.dumps(str(gid)).encode("utf-8")),
            ops,
            b"prepare",
        )
        return self.commit_flush()

    def log_decide(self, gid: str, ok: bool) -> None:
        """2PC phase 2: the coordinator's durable verdict for ``gid``.

        The caller must flush (:meth:`commit_flush`) before any
        participant's ``resolve`` is written: the decision is the
        transaction's fate, so it must not be reorderable behind its own
        consequences."""
        self._append({"t": "decide", "g": str(gid), "ok": bool(ok)})

    def log_resolve(self, gid: str, ok: bool) -> None:
        """2PC phase 3: settle this participant's in-doubt ``prepare``.

        Replay applies the prepared entries when ``ok`` and discards them
        otherwise.  Durability is optional: if a crash loses the resolve,
        the prepare is in-doubt again and the coordinator's durable
        ``decide`` re-settles it at the next sharded recovery."""
        self._append({"t": "resolve", "g": str(gid), "ok": bool(ok)})

    # -- checkpoints -------------------------------------------------------------

    def should_checkpoint(self) -> bool:
        return (
            self.checkpoint_every > 0
            and self._records_since_snapshot >= self.checkpoint_every
        )

    def write_snapshot(
        self,
        schema_source: str,
        database: str,
        objects: Iterable[DBObject],
        counter: int,
    ) -> None:
        """Checkpoint: snapshot the given store objects, then reset the log.

        The snapshot claims currency up to ``next_lsn``; a crash between the
        two steps leaves stale records in the log, which recovery skips by
        their LSNs.
        """
        self._commit_point()
        self._write_snapshot_file(schema_source, database, objects, counter)
        self._reset_log()

    def _write_snapshot_file(
        self,
        schema_source: str,
        database: str,
        objects: Iterable[DBObject],
        counter: int,
    ) -> None:
        # The body is one line per JSON value: the head, then each object's
        # snapshot row as its commit rendered it (the rendering is repeated
        # only for a state a rollback reinstalled).  The file is joined in
        # one go behind a placeholder header of the final length, the body
        # hashed in place, and the placeholder overwritten with the header
        # that seals it (verified by load_image/fsck).
        sealed = b"%s %d sha256=" % (_SNAPSHOT_MAGIC, SNAPSHOT_FORMAT)
        head = b'{"counter":%d,"database":%s,"next_lsn":%d,"schema":%s}' % (
            counter,
            json.dumps(database).encode("utf-8"),
            self._next_lsn,
            json.dumps(schema_source).encode("utf-8"),
        )
        placeholder = sealed + b"0" * 64
        data = bytearray(b"\n").join([placeholder, head, *map(_row, objects), b""])
        body = len(placeholder) + 1
        with memoryview(data) as view:
            digest = hashlib.sha256(view[body:]).hexdigest()
        data[: body - 1] = sealed + digest.encode("ascii")
        # The previous snapshot is rotated to .prev so a damaged (or half-
        # rotated) newest file always leaves a verified fallback behind.
        _write_atomic(
            self.snapshot_path,
            data,
            self.files,
            self.telemetry,
            retain=self.prev_snapshot_path,
        )
        self._records_since_snapshot = 0

    def _reset_log(self) -> None:
        # Crash windows: before the replace, the old log survives and its
        # records are skipped by LSN against the just-written snapshot;
        # after it, the log is empty and the snapshot carries everything.
        # A leftover .tmp is overwritten by the next reset.
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        _write_atomic(
            self.log_path, b"", self.files, self.telemetry, points="log.reset_"
        )
        self._handle = open(self.log_path, "ab")


# ---------------------------------------------------------------------------
# offline scrubbing
# ---------------------------------------------------------------------------

_FSCK_RANK = {"clean": 0, "truncatable": 1, "fatal": 2}


@dataclass
class FsckReport:
    """What :func:`fsck` found in one durable directory.

    ``status`` is the worst verdict across the findings:

    ``clean``
        Every frame checks out, every present snapshot verifies, replay
        certifies the full log — reopening loses nothing.
    ``truncatable``
        Damage was found, but a committed prefix is recoverable: a torn or
        bit-flipped log tail, a damaged newest snapshot with an intact
        fallback, an LSN gap behind a fallback, or a damaged retained
        previous snapshot.  Reopening the directory repairs it (by
        truncation and/or snapshot fallback) at the cost of the damaged
        suffix.
    ``fatal``
        No committed prefix is recoverable: no intact snapshot survives,
        or the directory holds a log with no snapshot at all.  A fatal
        report carries no frame or prefix counts.
    """

    path: str
    status: str
    findings: list[str] = field(default_factory=list)
    #: Intact CRC frames in the log.
    frames_valid: int = 0
    #: Log bytes past the recoverable prefix (truncated on reopen).
    tail_bytes: int = 0
    #: Objects / replayed ops / discarded ops of the certified prefix.
    objects: int = 0
    replayed: int = 0
    discarded: int = 0

    @property
    def exit_code(self) -> int:
        """Process exit code for the CLI: clean=0, truncatable=1, fatal=2."""
        return _FSCK_RANK[self.status]


def fsck(path: str | Path) -> FsckReport:
    """Scrub the durable directory at ``path`` without opening it for
    writing: grade the recovery read :func:`load_image` makes — CRC frames,
    snapshot digests and fallback, replay — by the findings it records,
    and verify the retained previous snapshot recovery did not need.
    Never mutates the directory — the verdict says what a reopen *would*
    do."""
    base = Path(path)
    report = FsckReport(path=str(base), status="clean")

    def degrade(status: str, finding: str) -> None:
        report.findings.append(finding)
        if _FSCK_RANK[status] > _FSCK_RANK[report.status]:
            report.status = status

    try:
        image = load_image(base)
    except EngineError as exc:
        degrade("fatal", f"replay: {exc}")
        return report
    if image is None:
        degrade("fatal", f"no durable store at {str(base)!r}")
        return report
    for status, finding in image.findings:
        degrade(status, finding)
    prev_path = base / SNAPSHOT_PREV_NAME
    if not image.used_fallback_snapshot and prev_path.exists():
        # Recovery never reads the retained previous snapshot while the
        # newest one verifies, so only the scrub notices it rotting.
        try:
            _read_snapshot(prev_path)
        except EngineError as exc:
            degrade(
                "truncatable",
                f"retained previous snapshot damaged ({exc}): fallback "
                "protection lost until the next checkpoint rotates a fresh one",
            )
    report.frames_valid = image.frames
    report.objects = len(image.objects)
    report.replayed = image.replayed
    report.discarded = image.discarded
    report.tail_bytes = image.log_bytes - image.log_valid_bytes
    if image.discarded:
        report.findings.append(
            f"replay: {image.discarded} operation(s) of two-phase "
            "transactions resolved as aborted discarded"
        )
    if image.prepared:
        # Informational, not damage: an in-doubt 2PC prepare is resolved by
        # the commit router from the coordinator shard's decide record when
        # the sharded root is reopened as a whole.
        report.findings.append(
            f"replay: {len(image.prepared)} in-doubt prepared "
            "transaction(s) awaiting the commit router's resolution"
        )
    return report
