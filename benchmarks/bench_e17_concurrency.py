"""E17 — concurrent serving: snapshot-read throughput and group commit.

PR 5 adds the concurrency layer (:mod:`repro.engine.concurrency`): readers
take immutable O(1) snapshots that never touch the coarse writer lock,
while ``sync=True`` durable commits released from the writer lock coalesce
their fsyncs through group commit (:mod:`repro.engine.wal`).  This
benchmark records what concurrent serving actually delivers:

* ``snapshot readers`` — aggregate throughput of 4 reader threads scanning
  snapshot extents, idle vs under one sustained transaction-committing
  writer.  Lock-free reads mean the degradation is bounded by GIL sharing
  (≈ +1 runnable thread), *not* by lock convoys: the acceptance gate is
  **< 2x**.  A single mid-load ``store.snapshot()`` acquisition is also
  timed — it must not block on the writer (CI guard).
* ``group commit`` — fsyncs per durable commit at 1/4/16 concurrent
  committers on one ``sync=True`` store.  The 16-committer gate is
  **< 0.25 fsyncs/commit** (< 1.0 is the hard CI guard); a lone committer
  must keep its immediate-fsync latency.
* ``recovery with schema change`` — crash recovery replays post-checkpoint
  ``set_constant`` schema records *and* restores exactly the committed
  prefix (an open transaction's work never reaches the log), flagging schema
  drift for ``repro recover``.

Store sizes via ``e17_size`` (10³ with ``--quick``, plus 10⁴ full).
Results land in ``BENCH_e17_concurrency.json`` via the shared harness.
"""

import threading
import time

from repro import ObjectStore
from repro.fixtures import cslibrary_schema

READER_THREADS = 4


def _fresh_schema():
    schema = cslibrary_schema()
    schema.set_constant("MAX", 10**15)  # keep the sum constraint satisfiable
    return schema


def _populate(store, size):
    for index in range(size):
        store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"ISBN-{index}",
            publisher="ACM",
            shopprice=50.0,
            ourprice=45.0,
        )


def _reader_aggregate(store, seconds, stop_flag=None):
    """Aggregate snapshot-scan ops completed by READER_THREADS readers in
    ``seconds`` — each op takes a fresh snapshot and sums one attribute
    over the extent."""
    counts = [0] * READER_THREADS
    stop = threading.Event()
    failures = []

    def reader(slot):
        try:
            while not stop.is_set():
                with store.snapshot() as snap:
                    total = 0.0
                    for obj in snap.extent("Publication"):
                        total += obj.state["ourprice"]
                    assert total >= 0.0
                counts[slot] += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(READER_THREADS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - started
    assert not failures, failures[0]
    return sum(counts) / elapsed


def test_e17_snapshot_readers_under_writer(benchmark, e17_size):
    """Snapshot-read throughput must degrade < 2x under a sustained
    writer, and mid-load snapshot acquisition must not block on it."""
    store = ObjectStore(_fresh_schema(), enforce=False, wal=False)
    _populate(store, e17_size)
    store.enforce = True
    store.dependency_index()
    assert store.check_all() == []
    targets = [obj.oid for obj in store.extent("Publication")]
    store.snapshot()  # activate outside the timed regions

    seconds = 0.4
    idle_ops = _reader_aggregate(store, seconds)

    stop = threading.Event()
    commits = [0]
    failures = []

    def writer():
        step = 0
        try:
            while not stop.is_set():
                with store.transaction():
                    store.update(
                        targets[step % len(targets)],
                        ourprice=40.0 + (step % 10),
                    )
                commits[0] += 1
                step += 1
        except BaseException as exc:  # pragma: no cover
            failures.append(exc)

    writer_thread = threading.Thread(target=writer, daemon=True)
    writer_thread.start()
    time.sleep(0.05)  # let the writer reach steady state
    loaded_ops = _reader_aggregate(store, seconds)
    # CI guard: acquiring a snapshot while the writer keeps committing is
    # O(1) — it must never wait for the writer lock.
    acquire_start = time.perf_counter()
    probe = store.snapshot()
    acquire_seconds = time.perf_counter() - acquire_start
    probe.close()
    stop.set()
    writer_thread.join(timeout=30.0)
    assert not failures, failures[0]
    assert commits[0] > 0, "writer never committed — contention not measured"

    degradation = idle_ops / loaded_ops if loaded_ops else float("inf")
    benchmark.extra_info["objects"] = e17_size
    benchmark.extra_info["reader_threads"] = READER_THREADS
    benchmark.extra_info["idle_reads_per_s"] = round(idle_ops, 1)
    benchmark.extra_info["loaded_reads_per_s"] = round(loaded_ops, 1)
    benchmark.extra_info["writer_commits_per_s"] = round(commits[0] / seconds, 1)
    benchmark.extra_info["degradation_factor"] = round(degradation, 3)
    benchmark.extra_info["snapshot_acquire_us_under_load"] = round(
        acquire_seconds * 1e6, 1
    )

    assert degradation < 2.0, (
        f"snapshot readers degrade {degradation:.2f}x under a sustained "
        "writer — reads are serializing behind the writer"
    )
    assert acquire_seconds < 0.05, (
        f"snapshot acquisition took {acquire_seconds * 1e3:.1f}ms under "
        "writer load — it is blocking on the writer"
    )

    # The timing record: one snapshot scan on the quiesced store.
    def scan():
        with store.snapshot() as snap:
            total = 0.0
            for obj in snap.extent("Publication"):
                total += obj.state["ourprice"]
        return total

    benchmark(scan)


def _committer_round(store, committers, commits_each):
    """Run ``committers`` threads × ``commits_each`` durable transaction
    commits; returns (fsyncs per commit, commits per second)."""
    wal = store.wal
    targets = [obj.oid for obj in store.extent("Publication")]
    fsyncs_before = wal.fsyncs
    commits_before = wal.sync_commits
    failures = []

    def committer(slot):
        try:
            for step in range(commits_each):
                with store.transaction():
                    store.update(
                        targets[(slot * commits_each + step) % len(targets)],
                        ourprice=40.0 + (step % 10),
                    )
        except BaseException as exc:  # pragma: no cover
            failures.append(exc)

    threads = [
        threading.Thread(target=committer, args=(slot,), daemon=True)
        for slot in range(committers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    elapsed = time.perf_counter() - started
    assert not failures, failures[0]
    commits = wal.sync_commits - commits_before
    assert commits == committers * commits_each
    fsyncs = wal.fsyncs - fsyncs_before
    return fsyncs / commits, commits / elapsed


def test_e17_group_commit_fsync_amortization(benchmark, tmp_path):
    """Concurrent ``sync=True`` committers must share fsyncs: < 0.25
    fsyncs/commit at 16 committers (< 1.0 is the hard CI guard)."""
    store = ObjectStore.open(
        tmp_path / "db", _fresh_schema(), sync=True, checkpoint_every=0
    )
    store.enforce = False
    _populate(store, 200)
    store.enforce = True
    store.dependency_index()

    ratios = {}
    rates = {}
    for committers in (1, 4, 16):
        ratios[committers], rates[committers] = _committer_round(
            store, committers, 24
        )

    benchmark.extra_info["fsyncs_per_commit"] = {
        str(n): round(ratio, 4) for n, ratio in ratios.items()
    }
    benchmark.extra_info["commits_per_s"] = {
        str(n): round(rate, 1) for n, rate in rates.items()
    }

    # A lone committer fsyncs once per commit — durability is immediate.
    assert ratios[1] >= 0.99
    # The hard CI guard, then the amortization target.
    assert ratios[16] < 1.0, (
        f"group commit broken: {ratios[16]:.2f} fsyncs/commit at 16 "
        "committers"
    )
    assert ratios[16] < 0.25, (
        f"group commit underperforms: {ratios[16]:.2f} fsyncs/commit at 16 "
        "committers (target < 0.25)"
    )

    # The timing record: one 16-committer round.
    benchmark.pedantic(
        lambda: _committer_round(store, 16, 4), rounds=3, iterations=1
    )
    store.close()

    recovered = ObjectStore.open(tmp_path / "db", verify=False)
    assert len(recovered) == 200
    recovered.close()


def test_e17_recovery_replays_schema_changes(benchmark, tmp_path):
    """Crash recovery restores exactly the committed prefix *including*
    post-checkpoint schema-change records (the pre-PR behaviour silently
    reverted them to the checkpoint's schema)."""
    path = tmp_path / "db"
    store = ObjectStore.open(path, _fresh_schema(), checkpoint_every=0)
    store.enforce = False
    _populate(store, 500)
    store.enforce = True
    store.checkpoint()
    store.set_constant("MAX", 10**14)
    store.insert(
        "Publication",
        title="post-schema-change",
        isbn="ISBN-post",
        publisher="ACM",
        shopprice=50.0,
        ourprice=45.0,
    )
    committed = len(store)
    # Crash mid-transaction: enter a transaction, stage an operation, then
    # abandon the process image without ever reaching __exit__ — nothing
    # of the open transaction was logged, so recovery must not see it.
    txn = store.transaction()
    txn.__enter__()
    store.insert(
        "Publication",
        title="uncommitted",
        isbn="ISBN-lost",
        publisher="ACM",
        shopprice=50.0,
        ourprice=45.0,
    )
    del txn
    del store  # no commit, no close, no checkpoint

    def recover():
        recovered = ObjectStore.open(path, verify=False)
        assert len(recovered) == committed
        assert recovered.schema.constants["MAX"] == 10**14
        info = recovered.recovery_info
        assert info.schema_changes == 1 and info.schema_drift
        recovered.close()
        return recovered

    started = time.perf_counter()
    recover()
    elapsed = time.perf_counter() - started
    benchmark.extra_info["objects"] = committed
    benchmark.extra_info["recover_ms"] = round(elapsed * 1e3, 2)
    benchmark.extra_info["schema_changes_replayed"] = 1
    benchmark(recover)
