"""Engine test helpers: the snapshot file layout, stated once on the test side.

A snapshot file is one header line, ``repro-snapshot <format> sha256=<hex>``,
then the JSON body; the hex digest is of exactly the body bytes.  Tests that
hand-build or read a snapshot go through the ``snapshot_file`` fixture, which
spells that layout out independently of the writer in ``repro.engine.wal``.
"""

import hashlib
import json

import pytest


class SnapshotFile:
    @staticmethod
    def read(path) -> dict:
        """The parsed body of the snapshot at ``path`` (header not checked)."""
        return json.loads(path.read_bytes().partition(b"\n")[2])

    @staticmethod
    def seal(path, body: dict, fmt: int = 4, digest: bool = True) -> None:
        """Write ``body`` at ``path`` under a header naming ``fmt`` and,
        unless ``digest`` is false, the SHA-256 of the body bytes."""
        data = json.dumps(body).encode("utf-8")
        words = [b"repro-snapshot", str(fmt).encode("ascii")]
        if digest:
            words.append(b"sha256=" + hashlib.sha256(data).hexdigest().encode("ascii"))
        path.write_bytes(b" ".join(words) + b"\n" + data)


@pytest.fixture
def snapshot_file():
    return SnapshotFile
