"""E21 — horizontal scale: shard-partitioned stores behind the commit router.

PR 9 refactors the engine into shard cores behind a constraint-aware
commit router (:mod:`repro.engine.sharding`): extents partition across N
independent cores — each with its own WAL, group-commit batcher and index
manager — and the router plans every commit onto only the shards it
touches.  This benchmark records what the partitioning buys and costs:

* ``single shard parity`` — the degeneration gate (runs with ``--quick``):
  an N=1 ``ShardedStore`` must commit within **1.1x** of a plain
  ``ObjectStore`` on the same workload.  The router's fast path is one
  routing-table lookup per operation; anything above the gate means
  routing leaked onto the single-shard hot path.
* ``shard local scaling`` — the scaling gate, on a *model*: shard-local
  commits partition the workload, so the modelled critical path (the
  busiest shard's wall time for its share of the workload, each share
  timed sequentially on one core) at 4 shards must be at least **3x**
  shorter than the 1-shard baseline for the whole workload.  The model
  assumes that on a multi-core deployment the shards run concurrently
  (independent locks and WALs), so the critical path would be the commit
  wall time; it is not a measured multi-core speedup.  Timing the shares
  sequentially keeps the record deterministic on single-core CI runners
  (``extra_info`` records ``cpu_count`` and the methodology, and names
  the figures ``modelled_*``).
* ``cross shard commit`` — the coordination-cost record: a two-phase
  (2PC) transaction spanning two shards must stay within **3x** of a
  single-shard transaction of the same shape.  Measured on ``sync=False``
  stores — with per-commit fsync the N prepare + decide + N resolve
  barriers are the dominant cost by construction, which is why the router
  only brackets transactions that actually touch multiple shards.

Workload sizes are commits per measured batch (see ``conftest.py``);
results land in ``BENCH_e21_sharding.json`` via the shared harness.
"""

import os
import time

from repro.engine import ObjectStore, ShardedStore
from repro.engine.wal import WriteAheadLog
from repro.tm import parse_database

#: Four reference-free class groups so ``plan_placement`` pins one class
#: per shard at N=4.  Each class carries an object constraint and a key
#: constraint — all shard-local, so single inserts take the fast path and
#: the index layer has real work per commit.
BENCH_SOURCE = """
Database ShardBench
""" + "\n".join(
    f"""
Class C{i}
attributes
  name  : string
  score : int
object constraints
  oc{i}: score >= 0
class constraints
  cc{i}: key name
end C{i}
"""
    for i in range(4)
)

SHARDS = 4
#: Commits per alternating turn of the single-shard parity measurement.
PARITY_CHUNK = 10


def _schema():
    return parse_database(BENCH_SOURCE)


def _plain_store(directory):
    wal = WriteAheadLog(directory, sync=False, checkpoint_every=0)
    return ObjectStore(_schema(), wal=wal)


def _insert_batch(store, class_name, count, tag):
    for index in range(count):
        store.insert(class_name, name=f"{tag}-{index}", score=index)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(make_fn, repetitions=3):
    """Best wall time over fresh runs of ``make_fn()()`` — each repetition
    builds its own closure so measured batches never collide on keys."""
    best = float("inf")
    for repetition in range(repetitions):
        best = min(best, _timed(make_fn(repetition)))
    return best


def test_e21_single_shard_parity(benchmark, e21_size, tmp_path):
    """An N=1 ShardedStore commits within 1.1x of a plain ObjectStore."""
    plain = _plain_store(tmp_path / "plain")
    sharded = ShardedStore.open(
        tmp_path / "sharded", _schema(), 1, sync=False, checkpoint_every=0
    )
    # Warm both: the first mutation pays index/baseline construction.
    _insert_batch(plain, "C0", 50, "warm")
    _insert_batch(sharded, "C0", 50, "warm")

    def sharded_batch(rep):
        return lambda: _insert_batch(sharded, "C0", e21_size, f"s{rep}")

    # Each round alternates plain and sharded chunks of PARITY_CHUNK
    # commits and sums each side: machine speed swings on the scale of one
    # whole batch, so batch-sized turns let a swing land on one side only.
    # Best of five rounds per side.
    t_plain = t_sharded = float("inf")
    for rep in range(5):
        round_plain = round_sharded = 0.0
        for start in range(0, e21_size, PARITY_CHUNK):
            round_plain += _timed(
                lambda: _insert_batch(plain, "C0", PARITY_CHUNK, f"p{rep}-{start}")
            )
            round_sharded += _timed(
                lambda: _insert_batch(sharded, "C0", PARITY_CHUNK, f"s{rep}-{start}")
            )
        t_plain = min(t_plain, round_plain)
        t_sharded = min(t_sharded, round_sharded)
    bench_rounds = [f"r{i}" for i in range(10_000)]
    benchmark(lambda: sharded_batch(bench_rounds.pop())())
    assert sharded.fast_path_ops > 0

    ratio = t_sharded / t_plain
    benchmark.extra_info["commits"] = e21_size
    benchmark.extra_info["plain_us_per_commit"] = round(
        t_plain / e21_size * 1e6, 2
    )
    benchmark.extra_info["sharded_us_per_commit"] = round(
        t_sharded / e21_size * 1e6, 2
    )
    benchmark.extra_info["overhead_factor"] = round(ratio, 3)
    plain.close()
    sharded.close()

    # Acceptance: the N=1 degeneration adds at most 10% per commit (plus
    # an absolute epsilon so micro-batches don't gate on timer noise).
    assert t_sharded <= 1.1 * t_plain + 2e-3, (
        f"N=1 ShardedStore costs {ratio:.2f}x a plain store "
        f"at {e21_size} commits"
    )


def test_e21_shard_local_scaling(benchmark, e21_size, tmp_path):
    """Shard-local commits partition, modelled: the busiest shard's share
    of the workload, timed alone on one core, completes ≥3x faster than
    the whole workload on one shard.  A model of concurrent shards, not a
    measured multi-core speedup."""
    workload = e21_size - e21_size % SHARDS  # divisible share per shard
    baseline = ShardedStore.open(
        tmp_path / "one", _schema(), 1, sync=False, checkpoint_every=0
    )
    scaled = ShardedStore.open(
        tmp_path / "four", _schema(), SHARDS, sync=False, checkpoint_every=0
    )
    assert len(set(scaled.placement.values())) == SHARDS
    for store in (baseline, scaled):
        for shard in range(SHARDS):
            _insert_batch(store, f"C{shard}", 10, "warm")

    def baseline_run(rep):
        def run():
            for shard in range(SHARDS):
                _insert_batch(
                    baseline, f"C{shard}", workload // SHARDS, f"b{rep}"
                )

        return run

    t_baseline = _best_of(baseline_run)

    #: Per-shard wall time for that shard's share, measured in isolation:
    #: shards share no locks, WALs or indexes, so on an M-core box the
    #: shares overlap and the commit wall time is their maximum.
    def shard_share(shard, rep):
        return _timed(
            lambda: _insert_batch(
                scaled, f"C{shard}", workload // SHARDS, f"s{rep}"
            )
        )

    #: Best-of per shard first, then the maximum: each sample of a share
    #: carries independent single-core noise (GC, frequency steps), so
    #: max-then-min would gate on the noisiest sample of the round while
    #: the baseline enjoys a plain best-of.
    shares = [
        min(shard_share(shard, repetition) for repetition in range(3))
        for shard in range(SHARDS)
    ]
    critical_path = max(shares)

    def bench_round():
        rep = bench_rounds.pop()
        for shard in range(SHARDS):
            _insert_batch(scaled, f"C{shard}", workload // SHARDS, rep)

    bench_rounds = [f"r{i}" for i in range(10_000)]
    benchmark(bench_round)
    assert scaled.fast_path_ops > 0
    assert scaled.two_phase_commits == 0

    scaling = t_baseline / critical_path
    benchmark.extra_info["commits"] = workload
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["baseline_s"] = round(t_baseline, 5)
    benchmark.extra_info["modelled_critical_path_s"] = round(critical_path, 5)
    benchmark.extra_info["modelled_scaling_factor"] = round(scaling, 2)
    benchmark.extra_info["methodology"] = (
        "model, not a measurement: per-shard shares timed in isolation on "
        "one core; commit wall time on an N-core deployment is modelled "
        "as their maximum (no shared locks, WALs or indexes between shards)"
    )
    baseline.close()
    scaled.close()

    # Acceptance: near-linear partitioning — the modelled critical path at
    # 4 shards beats the 1-shard baseline by at least 3x.
    assert scaling >= 3.0, (
        f"modelled shard-local scaling is {scaling:.2f}x at {SHARDS} shards "
        f"({workload} commits) — expected >= 3x"
    )


def test_e21_cross_shard_commit(benchmark, e21_size, tmp_path):
    """A 2PC transaction spanning two shards stays within 3x of a
    single-shard transaction of the same shape."""
    store = ShardedStore.open(
        tmp_path / "xs", _schema(), SHARDS, sync=False, checkpoint_every=0
    )
    for shard in range(SHARDS):
        _insert_batch(store, f"C{shard}", 10, "warm")
    batch = max(1, e21_size // 10)

    def local_batch(rep):
        def run():
            for index in range(batch):
                with store.transaction():
                    store.insert("C0", name=f"l{rep}-{index}a", score=1)
                    store.insert("C0", name=f"l{rep}-{index}b", score=2)

        return run

    def cross_batch(rep):
        def run():
            for index in range(batch):
                with store.transaction():
                    store.insert("C0", name=f"x{rep}-{index}a", score=1)
                    store.insert("C1", name=f"x{rep}-{index}b", score=2)

        return run

    t_local = _best_of(local_batch)
    before = store.two_phase_commits
    t_cross = _best_of(cross_batch)
    assert store.two_phase_commits == before + 3 * batch

    bench_rounds = [f"b{i}" for i in range(10_000)]
    benchmark(lambda: cross_batch(bench_rounds.pop())())

    ratio = t_cross / t_local
    benchmark.extra_info["transactions"] = batch
    benchmark.extra_info["local_us_per_txn"] = round(t_local / batch * 1e6, 2)
    benchmark.extra_info["cross_us_per_txn"] = round(t_cross / batch * 1e6, 2)
    benchmark.extra_info["two_phase_factor"] = round(ratio, 2)
    store.close()

    # Acceptance: the prepare/decide/resolve bracket (sync=False: buffered
    # appends, no extra fsyncs) costs less than 3x a plain commit.
    assert t_cross <= 3.0 * t_local + 2e-3, (
        f"cross-shard 2PC costs {ratio:.2f}x a single-shard transaction"
    )
