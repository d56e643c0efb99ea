"""Engine test helpers: the snapshot file layout, stated once on the test side.

A snapshot file is one header line, ``repro-snapshot <format> sha256=<hex>``,
then the body; the hex digest is of exactly the body bytes.  The body is one
JSON value per line: a head object (``counter``, ``database``, ``next_lsn``,
``schema``), then one ``[oid, class, state]`` row per object.  Tests that
hand-build or read a snapshot go through the ``snapshot_file`` fixture, which
spells that layout out independently of the writer in ``repro.engine.wal``.
"""

import hashlib
import json

import pytest


class SnapshotFile:
    @staticmethod
    def read(path) -> dict:
        """The parsed body of the snapshot at ``path`` (header not checked):
        the head's keys plus ``objects``, the list of rows."""
        head, *rows = path.read_bytes().partition(b"\n")[2].splitlines()
        return {**json.loads(head), "objects": [json.loads(row) for row in rows]}

    @staticmethod
    def seal(path, body: dict, fmt: int = 5, digest: bool = True) -> None:
        """Write ``body`` (a mapping shaped like :meth:`read`'s) at ``path``
        under a header naming ``fmt`` and, unless ``digest`` is false, the
        SHA-256 of the body bytes."""
        head = {key: value for key, value in body.items() if key != "objects"}
        lines = [head, *body.get("objects", [])]
        data = b"".join(json.dumps(line).encode("utf-8") + b"\n" for line in lines)
        words = [b"repro-snapshot", str(fmt).encode("ascii")]
        if digest:
            words.append(b"sha256=" + hashlib.sha256(data).hexdigest().encode("ascii"))
        path.write_bytes(b" ".join(words) + b"\n" + data)


@pytest.fixture
def snapshot_file():
    return SnapshotFile
