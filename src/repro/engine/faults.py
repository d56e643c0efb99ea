"""Deterministic fault injection for the durability stack.

The WAL's crash-safety story (:mod:`repro.engine.wal`) is only as good as
its behaviour at the exact byte where an IO operation dies.  This module
makes those deaths schedulable: a :class:`FaultInjector` carries a static
schedule of :class:`FaultSpec` entries — *the Nth time fault point P is
crossed, fail like K* — and the WAL threads every file operation through
it.  With no schedule every call degrades to the plain OS operation behind
a single dict check, so the success path pays nothing measurable over the
WAL's pass-through file layer (``benchmarks/bench_e19_faults.py`` holds
the gate).

Fault kinds
-----------

``torn``
    Write only the first ``arg`` bytes of the record, flush them to the OS,
    then crash — the classic torn write.  Recovery must treat everything
    from the tear on as garbage.
``bit_flip``
    Complete the write, flush, then flip one byte of what just landed
    (offset ``arg`` into the written span) — silent media corruption.  Only
    checksums can catch this one.
``enospc`` / ``io_error``
    Raise ``OSError`` with ``ENOSPC`` / ``EIO`` — the disk is full, or the
    device failed.  Both are **fatal** classes: no retry is sound.
``transient`` / ``unsupported``
    Raise ``OSError`` with ``EINTR`` / ``EINVAL`` — the two classes
    :func:`classify_os_error` distinguishes from fatal ones: transient
    errors admit a bounded retry, unsupported ones mean the operation is
    advisory on this filesystem (directory fsync on some network mounts).
``crash`` / ``crash_after``
    Raise :class:`SimulatedCrash` before / after performing the operation.
    ``SimulatedCrash`` derives from ``BaseException`` so no ``except
    Exception`` handler in the stack can accidentally swallow a simulated
    power cut; the crash-matrix suite catches it at the top, abandons the
    store object, and recovers the directory like a fresh process would.

Error classification
--------------------

:func:`classify_os_error` is the single policy point for what the storage
layer may do with an ``OSError``: retry (``transient``), ignore-and-count
(``unsupported``, caller opts in per call site), or fail stop (``fatal`` —
everything else, notably ``EIO`` and ``ENOSPC``).  The fsyncgate lesson is
encoded here: a *failed fsync is never retried* — the kernel may have
dropped the dirty pages while marking them clean, so a retry that succeeds
proves nothing about the lost writes.  The WAL poisons itself instead
(see :meth:`repro.engine.wal.WriteAheadLog.poison`).
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable

#: Errno classes where retrying the *same* call is sound: the kernel
#: reported the call never ran to completion, not that it failed.
TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN})

_ENOTSUP = getattr(errno, "ENOTSUP", getattr(errno, "EOPNOTSUPP", errno.EINVAL))

#: Errno classes a directory fsync may raise on filesystems where the
#: operation is advisory or unsupported (some network and FUSE mounts
#: reject directory fds outright).  Callers opt into this set explicitly;
#: it is never applied to data-file fsyncs.
UNSUPPORTED_DIR_FSYNC_ERRNOS = frozenset(
    {errno.EINVAL, _ENOTSUP, errno.EACCES, errno.EPERM, errno.EROFS}
)

#: Valid ``FaultSpec.kind`` values.
FAULT_KINDS = frozenset(
    {
        "torn",
        "bit_flip",
        "enospc",
        "io_error",
        "transient",
        "unsupported",
        "crash",
        "crash_after",
    }
)

_ERRNO_BY_KIND = {
    "enospc": errno.ENOSPC,
    "io_error": errno.EIO,
    "transient": errno.EINTR,
    "unsupported": errno.EINVAL,
}


class SimulatedCrash(BaseException):
    """A scheduled process death at a fault point.

    Derives from ``BaseException`` on purpose: a simulated power cut must
    not be catchable by the ``except Exception`` / ``except EngineError``
    recovery handlers it is supposed to test.  Only the test harness (or
    the injector's owner) catches it, discards the live store object, and
    re-opens the directory the way a restarted process would.
    """

    def __init__(self, spec: "FaultSpec"):
        super().__init__(f"simulated crash at fault point {spec.point!r}")
        self.spec = spec


def classify_os_error(
    exc: OSError, unsupported: frozenset[int] | Iterable[int] = ()
) -> str:
    """``"transient"`` / ``"unsupported"`` / ``"fatal"`` for an ``OSError``.

    ``transient`` (EINTR/EAGAIN) means the call never completed and may be
    retried with backoff.  ``unsupported`` is caller-supplied: errno values
    that mean *this operation is advisory here* (used for directory
    fsyncs), counted in telemetry and skipped.  Everything else — EIO,
    ENOSPC, and the unknown — is ``fatal``: the state of the file is
    undefined and the caller must fail stop.
    """
    code = exc.errno
    if code in TRANSIENT_ERRNOS:
        return "transient"
    if code is not None and code in unsupported:
        return "unsupported"
    return "fatal"


def flip_byte(path: str | Path, offset: int) -> None:
    """Flip every bit of one byte of ``path`` in place (media-rot helper;
    also used by the CI fsck smoke to corrupt a fixture deterministically).
    Negative offsets index from the end, like ``bytes`` indexing."""
    with open(path, "r+b") as handle:
        if offset < 0:
            handle.seek(offset, os.SEEK_END)
            offset = handle.tell()
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            raise ValueError(f"offset {offset} is past the end of {str(path)!r}")
        handle.seek(offset)
        handle.write(bytes((byte[0] ^ 0xFF,)))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: the ``at``-th crossing of ``point`` fails
    like ``kind``.  ``arg`` parameterizes the kind (byte count kept by a
    ``torn`` write, offset flipped by a ``bit_flip``)."""

    point: str
    kind: str
    at: int = 0
    arg: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {sorted(FAULT_KINDS)})"
            )


@dataclass
class FaultInjector:
    """Schedule-driven IO shim the durability stack routes file operations
    through.

    Deterministic by construction: the schedule names fault points and hit
    indexes, and the injector counts crossings — the same operation history
    always dies at the same byte.  ``fired`` records the specs that
    actually triggered (a schedule naming points the history never crosses
    fires nothing), ``crashed`` is sticky once a crash kind fired.

    The no-fault fast path is one truthiness check on an empty dict; an
    injector constructed with an empty schedule is a true no-op shim.
    """

    schedule: Iterable[FaultSpec] = ()
    fired: list[FaultSpec] = field(default_factory=list)
    crashed: bool = False

    def __post_init__(self):
        self._by_point: dict[str, list[FaultSpec]] = {}
        for spec in self.schedule:
            self._by_point.setdefault(spec.point, []).append(spec)
        self._hits: dict[str, int] = {}

    # -- schedule bookkeeping ---------------------------------------------------

    def _take(self, point: str) -> FaultSpec | None:
        """The spec scheduled for this crossing of ``point``, if any."""
        by_point = self._by_point
        if not by_point:
            return None
        hit = self._hits.get(point, 0)
        self._hits[point] = hit + 1
        specs = by_point.get(point)
        if not specs:
            return None
        for spec in specs:
            if spec.at == hit:
                self.fired.append(spec)
                return spec
        return None

    def hits(self, point: str) -> int:
        """How many times ``point`` has been crossed so far."""
        return self._hits.get(point, 0)

    def _crash(self, spec: FaultSpec) -> None:
        self.crashed = True
        raise SimulatedCrash(spec)

    def _raise_errno(self, spec: FaultSpec) -> None:
        code = _ERRNO_BY_KIND.get(spec.kind)
        if code is None:
            raise ValueError(
                f"fault kind {spec.kind!r} applies only to write points "
                f"(scheduled at {spec.point!r})"
            )
        raise OSError(code, f"{os.strerror(code)} [injected at {spec.point!r}]")

    # -- shimmed operations -----------------------------------------------------

    def write(self, handle, data: bytes, point: str) -> None:
        """``handle.write(data)`` with tear/flip/crash semantics.

        ``torn`` keeps the first ``arg`` bytes *and flushes them to the
        OS* before crashing — a tear that stayed in the userspace buffer
        would vanish with the process and test nothing.  ``bit_flip``
        completes the write, then flips the byte at ``arg`` within the
        just-written span (via the handle's backing path).
        """
        spec = self._take(point)
        if spec is None:
            handle.write(data)
            return
        kind = spec.kind
        if kind == "torn":
            keep = max(0, min(len(data), spec.arg))
            if keep:
                handle.write(data[:keep])
            handle.flush()
            self._crash(spec)
        if kind == "bit_flip":
            handle.write(data)
            handle.flush()
            span = max(1, len(data))
            offset = os.path.getsize(handle.name) - span
            offset += max(0, min(spec.arg, span - 1))
            flip_byte(handle.name, offset)
            return
        if kind == "crash":
            self._crash(spec)
        if kind == "crash_after":
            handle.write(data)
            handle.flush()
            self._crash(spec)
        self._raise_errno(spec)

    def flush(self, handle, point: str) -> None:
        spec = self._take(point)
        if spec is None:
            handle.flush()
            return
        if spec.kind == "crash":
            self._crash(spec)
        if spec.kind == "crash_after":
            handle.flush()
            self._crash(spec)
        self._raise_errno(spec)

    def fsync(self, fd: int, point: str) -> None:
        spec = self._take(point)
        if spec is None:
            os.fsync(fd)
            return
        if spec.kind == "crash":
            self._crash(spec)
        if spec.kind == "crash_after":
            os.fsync(fd)
            self._crash(spec)
        self._raise_errno(spec)

    def replace(self, src, dst, point: str) -> None:
        """``os.replace`` with crash-before / crash-after windows — the two
        sides of the atomic-rename crash model."""
        spec = self._take(point)
        if spec is None:
            os.replace(src, dst)
            return
        if spec.kind == "crash":
            self._crash(spec)
        if spec.kind == "crash_after":
            os.replace(src, dst)
            self._crash(spec)
        self._raise_errno(spec)

    def truncate(self, handle, size: int, point: str) -> None:
        spec = self._take(point)
        if spec is None:
            handle.truncate(size)
            return
        if spec.kind == "crash":
            self._crash(spec)
        if spec.kind == "crash_after":
            handle.truncate(size)
            handle.flush()
            self._crash(spec)
        self._raise_errno(spec)
