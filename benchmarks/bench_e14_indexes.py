"""E14 — maintained indexes: O(1) aggregate/key commits and O(|result|) extents.

PR 1 (see ``bench_e13_incremental.py``) made enforcement delta-driven, but a
commit touching an attribute read by an aggregate or key constraint still
re-evaluated in O(extent), and ``ObjectStore.extent()`` scanned the whole
store.  This benchmark records what the index-maintenance subsystem
(:mod:`repro.engine.indexes`) buys over that PR-1 path:

* ``aggregate`` — update ``ourprice``, read by the ``cc2`` running-sum
  constraint: the maintained aggregate answers in O(1) instead of an
  O(extent) re-scan.  Acceptance: ≥10x over the PR-1 path at 10⁴ objects.
* ``key`` — update ``isbn``, guarded by the ``cc1`` key constraint: the key
  hash index answers uniqueness in O(1).
* ``extent`` — ``extent()`` of a 1%-selectivity class resolves from the
  deep-extent index in O(|result|).  Acceptance: ≥20x over the full-store
  scan at 10⁴ objects.
* ``scaling`` — the regression guard CI runs with ``--quick``: an indexed
  aggregate-constraint commit at 10⁴ objects must stay within a fixed
  multiple of the 10³ case (O(1), not O(extent)).

Store sizes 10³–10⁵ (10³–10⁴ with ``--quick``).  Each speedup is measured
against the scan baseline of :class:`repro.engine.oracle.Oracle` holding the
same contents: the unindexed residual check was that scan — the same named
constraint (``cc2``, ``cc1``) evaluated over a scan-only context — so timing
the bare evaluation, without the commit bookkeeping around it, can only
understate the speedup.  The extent baseline is ``Oracle.extent``, the same
full-store scan an unindexed ``extent()`` ran.  Results land in
``BENCH_e14_indexes.json`` via the shared benchmark harness (see
``conftest.py``).
"""

import time

from repro import ObjectStore
from repro.constraints.evaluate import evaluate
from repro.engine.oracle import Oracle
from repro.fixtures import cslibrary_schema

#: One RefereedPubl per RARE_EVERY Publications — the 1%-selectivity class.
RARE_EVERY = 100


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
            publisher="ACM",
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )
        if index % RARE_EVERY == 0:
            store.insert(
                "RefereedPubl",
                title=f"Proc {index}",
                isbn=f"ISBN-R-{index}",
                publisher="IEEE",
                shopprice=60.0,
                ourprice=55.0,
                editors=frozenset({"ed"}),
                rating=3,
                avgAccRate=0.4,
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


def _populated_oracle(size: int) -> Oracle:
    oracle = Oracle(_schema(), enforce=False)
    with oracle.transaction():
        _populate(oracle, size)
    return oracle


def _commit_timer(store, **changes):
    target = next(iter(store.objects()))

    def commit():
        with store.transaction():
            store.update(target, **changes)

    return commit


def _scan_check_timer(oracle: Oracle, label: str):
    """One evaluation of Publication's class constraint ``label`` over the
    oracle's scan-only context: the residual check of an unindexed commit."""
    constraint = next(
        c for c in oracle.schema.class_constraints("Publication") if c.name == label
    )

    def check():
        ctx = oracle.eval_context(self_extent_class="Publication")
        assert evaluate(constraint.formula, ctx)

    return check


def test_e14_aggregate_commit_speedup(benchmark, e14_size):
    """Maintained running sums: aggregate-read-attribute commits are O(1)."""
    indexed = _populated_store(e14_size)
    baseline = _populated_oracle(e14_size)

    repetitions = 5 if e14_size <= 10_000 else 3
    t_indexed = _best_of(_commit_timer(indexed, ourprice=40.0), repetitions)
    t_baseline = _best_of(_scan_check_timer(baseline, "cc2"), repetitions)
    t_key_indexed = _best_of(_commit_timer(indexed, isbn="ISBN-X"), repetitions)
    t_key_baseline = _best_of(_scan_check_timer(baseline, "cc1"), repetitions)
    benchmark(_commit_timer(indexed, ourprice=40.0))

    benchmark.extra_info["objects"] = e14_size
    benchmark.extra_info["aggregate_commit_ms"] = round(t_indexed * 1000, 4)
    benchmark.extra_info["aggregate_commit_pr1_ms"] = round(t_baseline * 1000, 4)
    benchmark.extra_info["speedup_aggregate"] = round(t_baseline / t_indexed, 1)
    benchmark.extra_info["key_commit_ms"] = round(t_key_indexed * 1000, 4)
    benchmark.extra_info["key_commit_pr1_ms"] = round(t_key_baseline * 1000, 4)
    benchmark.extra_info["speedup_key"] = round(t_key_baseline / t_key_indexed, 1)

    # Acceptance: ≥10x over the PR-1 scan path once the extent dominates.
    if e14_size >= 10_000:
        assert t_baseline / t_indexed >= 10.0, (
            f"aggregate-constraint commit only {t_baseline / t_indexed:.1f}x "
            f"faster than the oracle's scan of cc2 at {e14_size} objects"
        )


def test_e14_extent_throughput(benchmark, e14_size):
    """Deep-extent indexes: a 1%-selectivity extent() is O(|result|)."""
    indexed = _populated_store(e14_size)
    baseline = _populated_oracle(e14_size)
    rare = len(indexed.extent("RefereedPubl"))
    assert rare == len(baseline.extent("RefereedPubl")) == (e14_size // RARE_EVERY)

    t_indexed = _best_of(lambda: indexed.extent("RefereedPubl"), 7)
    t_baseline = _best_of(lambda: baseline.extent("RefereedPubl"), 7)
    benchmark(lambda: indexed.extent("RefereedPubl"))

    benchmark.extra_info["objects"] = e14_size
    benchmark.extra_info["rare_extent_size"] = rare
    benchmark.extra_info["extent_indexed_us"] = round(t_indexed * 1e6, 2)
    benchmark.extra_info["extent_scan_us"] = round(t_baseline * 1e6, 2)
    benchmark.extra_info["speedup_extent"] = round(t_baseline / t_indexed, 1)

    if e14_size >= 10_000:
        assert t_baseline / t_indexed >= 20.0, (
            f"indexed extent() only {t_baseline / t_indexed:.1f}x faster than "
            f"the full-store scan at {e14_size} objects"
        )


def test_e14_commit_stays_constant(benchmark):
    """The CI regression guard: an indexed aggregate-constraint commit must
    not regress to O(extent) — the 10⁴-object commit stays under a fixed
    multiple of the 10³ case (plus absolute slack for timer noise; a
    regression to scanning costs ~70x, far outside the envelope)."""
    small = _populated_store(1_000)
    large = _populated_store(10_000)

    t_small = _best_of(_commit_timer(small, ourprice=40.0), 7)
    t_large = _best_of(_commit_timer(large, ourprice=40.0), 7)
    benchmark(_commit_timer(large, ourprice=40.0))

    benchmark.extra_info["commit_1k_ms"] = round(t_small * 1000, 4)
    benchmark.extra_info["commit_10k_ms"] = round(t_large * 1000, 4)
    benchmark.extra_info["ratio_10k_over_1k"] = round(t_large / t_small, 2)

    assert t_large <= 5 * t_small + 5e-4, (
        f"aggregate-constraint commit scales with the extent: "
        f"{t_small * 1e6:.0f}us at 10^3 vs {t_large * 1e6:.0f}us at 10^4"
    )


def test_e14_indexed_oracle_equivalence(benchmark, e14_size):
    """The fast path must reject exactly what the oracle's full check
    rejects (the exhaustive property test lives in
    tests/engine/test_indexes.py)."""
    import pytest

    from repro.errors import ConstraintViolation

    size = min(e14_size, 1_000)  # correctness spot check needs no scale

    def build_and_reject():
        oracle = _populated_oracle(size)
        oracle.enforce = True
        for store in (_populated_store(size), oracle):
            target = next(iter(store.objects()))
            # Break the key constraint (duplicate isbn) and the sum ceiling.
            with pytest.raises(ConstraintViolation, match="cc1"):
                with store.transaction():
                    store.update(target, isbn="ISBN-1")
            store.set_constant("MAX", 1)
            with pytest.raises(ConstraintViolation, match="cc2"):
                store.update(target, ourprice=44.0)
            store.set_constant("MAX", 10**12)
            assert store.check_all() == []
        return True

    assert benchmark(build_and_reject)
