"""E16 — durability: WAL write-through overhead and crash-recovery time.

PR 4 adds the durability subsystem (:mod:`repro.engine.wal`): every accepted
commit appends its touched set's post-images to a write-ahead log as one
CRC-framed JSON record, and ``ObjectStore.open`` recovers snapshot +
committed log tail.  This benchmark
records what durability costs and how recovery scales:

* ``commit overhead`` — a single-update transaction commit with the WAL
  write-through on vs off.  The log write is O(touched objects), so the
  overhead must be a *constant factor*, not O(store).
* ``constant commit`` — the CI regression guard (runs with ``--quick``): a
  WAL-on commit at 10⁴ objects must stay within a fixed multiple of the 10³
  case; a regression to O(store) logging (e.g. accidentally snapshotting per
  commit) costs >100x and fails the build.
* ``recovery`` — ``ObjectStore.open`` wall time vs store size, both from a
  pure log tail (worst case: replay every record) and from a checkpoint
  snapshot (best case: no tail).  Both are O(store) with index rebuild
  included; the numbers record the constant.
* ``checkpoint renders changes`` — the CI guard for the snapshot row cache
  (runs with ``--quick``): after a first checkpoint of a 10⁴-object store,
  100 updates make the next checkpoint render exactly 100 rows, not 10⁴.
  The count is deterministic; the first (every row rendered) and repeat
  (only the changed rows) checkpoint times are recorded.

Store sizes 10³–10⁵ (10³–10⁴ with ``--quick``).  Results land in
``BENCH_e16_wal.json`` via the shared harness (see ``conftest.py``).
"""

import shutil
import tempfile
import time
from pathlib import Path

import repro.engine.wal as wal_module
from repro import ObjectStore
from repro.engine import WriteAheadLog
from repro.fixtures import cslibrary_schema


def _populate(store: ObjectStore, size: int) -> None:
    for index in range(size):
        store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"ISBN-{index}",
            publisher="ACM",
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )


def _fresh_schema():
    schema = cslibrary_schema()
    schema.set_constant("MAX", 10**12)  # keep the sum constraint satisfiable
    return schema


def _durable_store(size: int, directory: Path | None) -> ObjectStore:
    """A populated store, WAL-attached when ``directory`` is given.

    ``checkpoint_every=0``: the measurements isolate the per-commit log
    write; checkpoint amortization is covered by the recovery case.
    """
    wal = (
        WriteAheadLog(directory, checkpoint_every=0)
        if directory is not None
        else False
    )
    store = ObjectStore(_fresh_schema(), enforce=False, wal=wal)
    _populate(store, size)
    store.enforce = True
    store.dependency_index()  # build outside the timed region
    assert store.check_all() == []
    return store


def _best_of(fn, repetitions: int = 5) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _commit_timer(store):
    target = next(iter(store.objects()))

    def commit():
        with store.transaction():
            store.update(target, ourprice=40.0)

    return commit


def test_e16_commit_overhead(benchmark, e16_size, tmp_path):
    """Durability costs a constant factor per commit, not O(store)."""
    durable = _durable_store(e16_size, tmp_path / "db")
    in_memory = _durable_store(e16_size, None)

    repetitions = 5 if e16_size <= 10_000 else 3
    t_wal = _best_of(_commit_timer(durable), repetitions)
    t_memory = _best_of(_commit_timer(in_memory), repetitions)
    benchmark(_commit_timer(durable))
    durable.close()

    overhead = t_wal / t_memory
    benchmark.extra_info["objects"] = e16_size
    benchmark.extra_info["commit_wal_on_us"] = round(t_wal * 1e6, 2)
    benchmark.extra_info["commit_wal_off_us"] = round(t_memory * 1e6, 2)
    benchmark.extra_info["overhead_factor"] = round(overhead, 2)

    # Acceptance: the write-through is O(touched) — a handful of buffered
    # log lines — so even with timer noise the factor stays small at every
    # store size (an O(store) write-through would scale the factor with
    # e16_size instead).
    assert t_wal <= 5 * t_memory + 5e-4, (
        f"WAL write-through costs {overhead:.1f}x at {e16_size} objects — "
        "not a constant factor"
    )


def test_e16_wal_commit_stays_constant(benchmark, tmp_path):
    """The CI regression guard: WAL-on commits must not regress to O(store)
    — the 10⁴-object commit stays under a fixed multiple of the 10³ case."""
    small = _durable_store(1_000, tmp_path / "small")
    large = _durable_store(10_000, tmp_path / "large")

    t_small = _best_of(_commit_timer(small), 7)
    t_large = _best_of(_commit_timer(large), 7)
    benchmark(_commit_timer(large))
    small.close()
    large.close()

    benchmark.extra_info["commit_1k_us"] = round(t_small * 1e6, 2)
    benchmark.extra_info["commit_10k_us"] = round(t_large * 1e6, 2)
    benchmark.extra_info["ratio_10k_over_1k"] = round(t_large / t_small, 2)

    assert t_large <= 5 * t_small + 5e-4, (
        f"WAL-on commit scales with the store: {t_small * 1e6:.0f}us at 10^3 "
        f"vs {t_large * 1e6:.0f}us at 10^4"
    )


def test_e16_recovery_scaling(benchmark, e16_size):
    """Recovery wall time vs store size: log-tail replay (worst case) and
    snapshot-only (after a checkpoint), index rebuild included."""
    base = Path(tempfile.mkdtemp(prefix="repro-bench-e16-"))
    try:
        path = base / "db"
        store = _durable_store(e16_size, path)
        expected = len(store)
        store.close()

        def recover():
            recovered = ObjectStore.open(path, verify=False)
            assert len(recovered) == expected
            recovered.close()
            return recovered

        repetitions = 3 if e16_size <= 10_000 else 2
        t_log_tail = _best_of(recover, repetitions)

        checkpointed = ObjectStore.open(path, verify=False)
        checkpointed.checkpoint()
        checkpointed.close()
        t_snapshot = _best_of(recover, repetitions)

        # One verified recovery: the recovered store passes a full audit.
        verified = ObjectStore.open(path)
        assert len(verified) == expected
        verified.close()

        benchmark(recover)

        benchmark.extra_info["objects"] = e16_size
        benchmark.extra_info["recover_log_tail_ms"] = round(t_log_tail * 1e3, 2)
        benchmark.extra_info["recover_snapshot_ms"] = round(t_snapshot * 1e3, 2)
        benchmark.extra_info["objects_per_s_log_tail"] = (
            round(e16_size / t_log_tail) if t_log_tail else None
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_e16_checkpoint_renders_changes(benchmark, tmp_path, monkeypatch):
    """The CI regression guard for checkpoints: each object keeps its
    encoded snapshot row until its state is replaced, so a checkpoint after
    100 updates of a 10⁴-object store renders exactly 100 rows."""
    size, touched = 10_000, 100
    store = _durable_store(size, tmp_path / "db")
    rendered = []
    render = wal_module.snapshot_row

    def counting(oid, class_name, state):
        rendered.append(oid)
        return render(oid, class_name, state)

    monkeypatch.setattr(wal_module, "snapshot_row", counting)
    start = time.perf_counter()
    store.checkpoint()
    t_first = time.perf_counter() - start
    assert len(rendered) == size

    targets = list(store.objects())[:touched]

    def touch():
        # Every update installs a new state dict, even at an equal value.
        for target in targets:
            store.update(target, ourprice=40.0)
        rendered.clear()

    touch()
    start = time.perf_counter()
    store.checkpoint()
    t_repeat = time.perf_counter() - start
    assert sorted(rendered) == sorted(obj.oid for obj in targets), (
        f"a checkpoint after {touched} updates rendered {len(rendered)} rows "
        f"of a {size}-object store"
    )
    benchmark.pedantic(store.checkpoint, setup=touch, rounds=5, iterations=1)
    assert len(rendered) == touched
    store.close()

    benchmark.extra_info["objects"] = size
    benchmark.extra_info["updated"] = touched
    benchmark.extra_info["rows_rendered"] = len(rendered)
    benchmark.extra_info["first_checkpoint_ms"] = round(t_first * 1e3, 2)
    benchmark.extra_info["repeat_checkpoint_ms"] = round(t_repeat * 1e3, 2)
