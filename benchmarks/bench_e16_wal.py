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
  included; the numbers record the constant.  The full run gates that
  snapshot recovery stays linear: its time per object at 10⁵ objects is at
  most 1.3x that at 10⁴.  On a shared 2-CPU VM the ratio read 1.03–1.27
  over thirteen runs, median about 1.15, so the bound sits about 0.15
  above the median.  It also counts page faults: a 10⁵ recovery touches
  fresh pages while the 10⁴ ones reuse the freed heap.  A failure just
  above the bound on a loaded machine may be noise; rerun before blaming
  recovery.
* ``checkpoint renders changes`` — the CI guard for the snapshot rows
  (runs with ``--quick``): a commit renders the row of each object it
  wrote, once, and a checkpoint only joins rows.  So the first checkpoint
  of a 10⁴-object store renders 0 rows, 100 updates render exactly 100 at
  their commits and the next checkpoint 0, and the first checkpoint after
  a snapshot-only reopen 0 (recovery keeps the rows it read).  The counts
  are deterministic; the first and repeat checkpoint times are recorded.

Store sizes 10³–10⁵ (10³–10⁴ with ``--quick``).  Results land in
``BENCH_e16_wal.json`` via the shared harness (see ``conftest.py``).
"""

import gc
import shutil
import statistics
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


def _from_collected_heap(fn) -> float:
    """``fn``'s wall time, started from a collected heap.  A dropped store
    is cyclic garbage (the store and its index manager refer to each
    other) that only a full collection frees, so that no timing pays for
    the garbage of the one before."""
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _recoverer(path: Path, expected: int):
    """A timed unit: recover the store at ``path`` (no audit) and close it."""

    def recover():
        recovered = ObjectStore.open(path, verify=False)
        assert len(recovered) == expected
        recovered.close()
        return recovered

    return recover


def test_e16_recovery_scaling(benchmark, e16_size):
    """Recovery wall time vs store size: log-tail replay (worst case) and
    snapshot-only (after a checkpoint), index rebuild included.  At 10⁵
    objects, snapshot recovery must cost at most 1.3x per object what it
    costs at 10⁴."""
    base = Path(tempfile.mkdtemp(prefix="repro-bench-e16-"))
    try:
        path = base / "db"
        store = _durable_store(e16_size, path)
        expected = len(store)
        store.close()
        recover = _recoverer(path, expected)

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

        # Only the recovered stores stay in the heap from here on: the
        # stores built above would otherwise sit beside every timed
        # recovery.
        del store, checkpointed, verified
        ratio = None
        if e16_size == 100_000:
            # The linearity gate.  Recovery keeps no per-object work that
            # grows with the store (the collector is paused while loading,
            # the recovered table becomes the store's without a copy or a
            # sort, each extent is filled in one pass).
            # A 10⁴-object directory is timed in alternation with this
            # one, five recoveries against one per round, so that both
            # sides of each round's ratio see the same stretch of a shared
            # machine's time; the gate takes the median round.  The bound
            # sits about 0.15 above the measured median (about 1.15) and
            # the ratio includes the 10⁵ side's fresh-page faults, so a
            # failure just above it may be noise (see the module docstring).
            small = _durable_store(10_000, base / "small")
            small.checkpoint()
            small.close()
            del small
            recover_small = _recoverer(base / "small", 10_000)
            ratios = []
            for _ in range(5):
                t_small = sum(_from_collected_heap(recover_small) for _ in range(5)) / 5
                t_large = _from_collected_heap(recover)
                ratios.append((t_large / e16_size) / (t_small / 10_000))
            ratio = statistics.median(ratios)

        benchmark(recover)

        benchmark.extra_info["objects"] = e16_size
        benchmark.extra_info["recover_log_tail_ms"] = round(t_log_tail * 1e3, 2)
        benchmark.extra_info["recover_snapshot_ms"] = round(t_snapshot * 1e3, 2)
        benchmark.extra_info["objects_per_s_log_tail"] = (
            round(e16_size / t_log_tail) if t_log_tail else None
        )
        benchmark.extra_info["recover_snapshot_us_per_object"] = round(
            t_snapshot / e16_size * 1e6, 2
        )
        if ratio is not None:
            benchmark.extra_info["snapshot_per_object_ratio_100k_over_10k"] = round(
                ratio, 2
            )
            assert ratio <= 1.3, (
                f"snapshot recovery per object is {ratio:.2f}x at 10^5 objects "
                "what it is at 10^4: recovery scales worse than linearly"
            )
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_e16_checkpoint_renders_changes(benchmark, tmp_path, monkeypatch):
    """The CI regression guard for checkpoints: rows are rendered at the
    commits that wrote the states and kept on the objects, so a checkpoint
    renders none — neither the first one of a 10⁴-object store, nor one
    after 100 updates (whose commits rendered exactly 100 rows), nor the
    first one after a snapshot-only reopen."""
    size, touched = 10_000, 100
    path = tmp_path / "db"
    store = _durable_store(size, path)
    rendered = []
    render = wal_module.snapshot_row

    def counting(oid, class_name, state):
        rendered.append(oid)
        return render(oid, class_name, state)

    monkeypatch.setattr(wal_module, "snapshot_row", counting)
    start = time.perf_counter()
    store.checkpoint()
    t_first = time.perf_counter() - start
    assert rendered == [], f"the first checkpoint rendered {len(rendered)} rows"

    targets = list(store.objects())[:touched]
    committed = []

    def touch():
        # Every update installs a new state dict, even at an equal value.
        rendered.clear()
        for target in targets:
            store.update(target, ourprice=40.0)
        committed[:] = rendered
        rendered.clear()

    touch()
    assert committed == [obj.oid for obj in targets], (
        f"{touched} update commits rendered {len(committed)} rows"
    )
    start = time.perf_counter()
    store.checkpoint()
    t_repeat = time.perf_counter() - start
    assert rendered == [], (
        f"a checkpoint after {touched} updates rendered {len(rendered)} rows "
        f"of a {size}-object store"
    )
    benchmark.pedantic(store.checkpoint, setup=touch, rounds=5, iterations=1)
    assert len(committed) == touched and rendered == []
    store.close()

    reopened = ObjectStore.open(path, verify=False)
    start = time.perf_counter()
    reopened.checkpoint()
    t_reopened = time.perf_counter() - start
    assert rendered == [], (
        f"the first checkpoint after a snapshot-only reopen rendered {len(rendered)} rows"
    )
    reopened.close()

    benchmark.extra_info["objects"] = size
    benchmark.extra_info["updated"] = touched
    benchmark.extra_info["rows_rendered_at_commits"] = len(committed)
    benchmark.extra_info["rows_rendered_at_checkpoints"] = len(rendered)
    benchmark.extra_info["first_checkpoint_ms"] = round(t_first * 1e3, 2)
    benchmark.extra_info["repeat_checkpoint_ms"] = round(t_repeat * 1e3, 2)
    benchmark.extra_info["reopened_checkpoint_ms"] = round(t_reopened * 1e3, 2)
