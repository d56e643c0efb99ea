"""E13 — incremental (delta-driven) vs full constraint enforcement.

The paper's interoperation pipeline assumes component databases enforce
their own constraints on every update; the seed engine did so by re-checking
*every* constraint against the *whole* store at each commit.  This benchmark
records what the constraint-dependency index buys: commit-time validation of
a single-object update touches only the constraints whose read set
intersects the update's dirty set, so its cost is bounded by the affected
constraints — not by the store.

Three workloads per store size (10² – 10⁵ Figure 1-shaped publications):

* ``plain`` — update an attribute only an O(1) object constraint reads
  (``publisher``): incremental validation is constant-time.
* ``aggregate`` — update ``ourprice``, which the ``cc2`` sum constraint
  reads: incremental validation still pays one O(n) aggregate, but skips
  the per-object sweep.
* ``full`` — what the seed did at every commit: ``check_all()``.

Run ``pytest benchmarks/bench_e13_incremental.py --quick`` for the CI smoke
sizes (10², 10³).  The ≥5x acceptance assertion runs at every size; at 10⁴
the observed ratio is ~20x for aggregate-reading updates and >500x for plain
updates.
"""

import time

from repro import ObjectStore
from repro.engine.oracle import Oracle
from repro.fixtures import cslibrary_schema

PUBLISHERS = ("ACM", "IEEE", "Springer", "Elsevier", "Kluwer")


def _schema():
    schema = cslibrary_schema()
    schema.set_constant("MAX", 10**12)  # keep the sum constraint satisfiable
    return schema


def _populate(store, size: int) -> None:
    for index in range(size):
        store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"ISBN-{index}",
            publisher=PUBLISHERS[index % len(PUBLISHERS)],
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )


def _populated_store(size: int) -> ObjectStore:
    store = ObjectStore(_schema(), enforce=False)
    _populate(store, size)
    store.enforce = True
    store.dependency_index()  # build outside the timed region
    assert store.check_all() == []  # baseline: incremental checking resumes
    return store


def _best_of(fn, repetitions: int = 5) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e13_single_update_speedup(benchmark, e13_size):
    store = _populated_store(e13_size)
    target = next(iter(store.objects()))

    def plain_update():
        with store.transaction():
            store.update(target, publisher="IEEE")

    def aggregate_update():
        with store.transaction():
            store.update(target, ourprice=40.0)

    def full_revalidation():
        assert store.check_all() == []

    # Time the comparison baseline and the two incremental workloads with
    # the same best-of-N discipline, then let pytest-benchmark record the
    # headline (plain single-object commit) for the reproduction record.
    repetitions = 5 if e13_size <= 10_000 else 2
    t_full = _best_of(full_revalidation, repetitions)
    t_aggregate = _best_of(aggregate_update, repetitions)
    t_plain = _best_of(plain_update, repetitions)
    benchmark(plain_update)

    benchmark.extra_info["objects"] = e13_size
    benchmark.extra_info["full_ms"] = round(t_full * 1000, 3)
    benchmark.extra_info["aggregate_commit_ms"] = round(t_aggregate * 1000, 3)
    benchmark.extra_info["plain_commit_ms"] = round(t_plain * 1000, 3)
    benchmark.extra_info["speedup_plain"] = round(t_full / t_plain, 1)
    benchmark.extra_info["speedup_aggregate"] = round(t_full / t_aggregate, 1)

    # Acceptance: ≥5x over full revalidation for single-object updates.
    assert t_full / t_plain >= 5.0, (
        f"plain single-object update only {t_full / t_plain:.1f}x faster "
        f"than full revalidation at {e13_size} objects"
    )


def test_e13_equivalence_spot_check(benchmark, e13_size):
    """The fast path must reject exactly what full validation rejects: an
    update that breaks an object constraint fails identically on the store
    and on the full-check oracle (the exhaustive property test lives in
    tests/engine/test_incremental.py)."""
    import pytest

    from repro.errors import ConstraintViolation

    size = min(e13_size, 1_000)  # correctness spot check needs no scale

    def build_and_reject():
        oracle = Oracle(_schema(), enforce=False)
        with oracle.transaction():
            _populate(oracle, size)
        oracle.enforce = True
        for store in (_populated_store(size), oracle):
            target = next(iter(store.objects()))
            with pytest.raises(ConstraintViolation, match="oc1"):
                with store.transaction():
                    store.update(target, ourprice=1e6)  # > shopprice
            assert store.check_all() == []
        return True

    assert benchmark(build_and_reject)
