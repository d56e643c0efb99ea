"""E15 — reference-count indexes: O(1) referential-constraint commits.

PR 2 (see ``bench_e14_indexes.py``) made aggregate/key commits O(1), leaving
quantified referential database constraints — the paper's ``db1: forall p in
Publisher exists i in Item | i.publisher = p`` — as the last extent-scan
residual: a commit touching ``Item.publisher`` re-evaluated db1 by a nested
scan in O(|Publisher|·|Item|).  This benchmark records what the
reference-count index subsystem (:class:`repro.engine.indexes.ReferenceIndex`)
buys over that path:

* ``referential`` — a transaction retargeting one Item's publisher, which
  dirties ``(Item, publisher)`` and re-checks db1: the maintained
  live-referenced counter answers the whole formula in O(1) instead of the
  nested scan.  Acceptance: ≥20x over the scan path at 10⁴ objects.
* ``scaling`` — the regression guard CI runs with ``--quick``: an indexed
  referential commit at 10⁴ objects must stay within a fixed multiple of
  the 10³ case (O(1), not O(extent) or worse).

Population shape: one Publisher per :data:`ITEMS_PER_PUBLISHER` Items, items
grouped in per-publisher blocks so publisher *k*'s first referencing item
sits at extent position 100·k — the nested scan's total work grows as
size²/200 (quadratic in extent size), while the indexed commit stays flat.
The speedup is measured against the scan baseline of
:class:`repro.engine.oracle.Oracle` holding the same contents: the unindexed
residual check was that scan — ``db1`` evaluated over a scan-only context —
so timing the bare evaluation, without the commit bookkeeping around it, can
only understate the speedup.  Results land in ``BENCH_e15_references.json``
via the shared harness (see ``conftest.py``).
"""

import time

from repro import ObjectStore
from repro.constraints.evaluate import evaluate
from repro.engine.oracle import Oracle
from repro.fixtures import bookseller_schema

#: Block size: each Publisher is referenced by this many consecutive Items.
ITEMS_PER_PUBLISHER = 100


def _populate(store, size: int) -> None:
    publishers = [
        store.insert("Publisher", name=f"Pub {index}", location="NY")
        for index in range(max(size // ITEMS_PER_PUBLISHER, 2))
    ]
    for index in range(size):
        block = min(index // ITEMS_PER_PUBLISHER, len(publishers) - 1)
        store.insert(
            "Item",
            title=f"Book {index}",
            isbn=f"ISBN-{index}",
            publisher=publishers[block],
            authors=frozenset({"a"}),
            shopprice=50.0,
            libprice=45.0,
        )


def _populated_store(size: int) -> ObjectStore:
    store = ObjectStore(bookseller_schema(), enforce=False)
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
    oracle = Oracle(bookseller_schema(), enforce=False)
    with oracle.transaction():
        _populate(oracle, size)
    return oracle


def _scan_check_timer(oracle: Oracle):
    """One evaluation of ``db1`` over the oracle's scan-only context: the
    residual check of an unindexed commit (a nested extent scan)."""
    (db1,) = oracle.schema.database_constraints

    def check():
        assert evaluate(db1.formula, oracle.eval_context())

    return check


def _commit_timer(store):
    """One committed transaction flipping an Item between two publishers.

    The flip-and-restore keeps db1 satisfied and the store state invariant
    across repetitions; the accumulated delta dirties ``(Item, publisher)``,
    so commit-time validation re-checks db1 by O(1) probe.
    """
    items = store.extent("Item")
    publishers = store.extent("Publisher")
    target = items[1]  # second item of publisher 0's block: both stay referenced
    original, other = publishers[0], publishers[1]

    def commit():
        with store.transaction():
            store.update(target, publisher=other)
            store.update(target, publisher=original)

    return commit


def test_e15_referential_commit_speedup(benchmark, e15_size):
    """Maintained referrer counts: referential-constraint commits are O(1)."""
    indexed = _populated_store(e15_size)
    baseline = _populated_oracle(e15_size)

    repetitions = 3 if e15_size <= 10_000 else 1
    t_indexed = _best_of(_commit_timer(indexed), 5)
    t_baseline = _best_of(_scan_check_timer(baseline), repetitions)
    benchmark(_commit_timer(indexed))

    benchmark.extra_info["objects"] = e15_size
    benchmark.extra_info["publishers"] = len(indexed.extent("Publisher"))
    benchmark.extra_info["referential_commit_ms"] = round(t_indexed * 1000, 4)
    benchmark.extra_info["referential_commit_scan_ms"] = round(t_baseline * 1000, 4)
    benchmark.extra_info["speedup_referential"] = round(t_baseline / t_indexed, 1)

    # Acceptance: ≥20x over the nested-scan path once the extent dominates.
    if e15_size >= 10_000:
        assert t_baseline / t_indexed >= 20.0, (
            f"referential-constraint commit only {t_baseline / t_indexed:.1f}x "
            f"faster than the oracle's scan of db1 at {e15_size} objects"
        )


def test_e15_commit_stays_constant(benchmark):
    """The CI regression guard: an indexed referential-constraint commit must
    not regress to O(extent) — the 10⁴-object commit stays under a fixed
    multiple of the 10³ case (plus absolute slack for timer noise; a
    regression to the nested scan costs orders of magnitude more)."""
    small = _populated_store(1_000)
    large = _populated_store(10_000)

    t_small = _best_of(_commit_timer(small), 7)
    t_large = _best_of(_commit_timer(large), 7)
    benchmark(_commit_timer(large))

    benchmark.extra_info["commit_1k_ms"] = round(t_small * 1000, 4)
    benchmark.extra_info["commit_10k_ms"] = round(t_large * 1000, 4)
    benchmark.extra_info["ratio_10k_over_1k"] = round(t_large / t_small, 2)

    assert t_large <= 5 * t_small + 5e-4, (
        f"referential-constraint commit scales with the extent: "
        f"{t_small * 1e6:.0f}us at 10^3 vs {t_large * 1e6:.0f}us at 10^4"
    )


def test_e15_indexed_oracle_equivalence(benchmark, e15_size):
    """The fast path must reject exactly what the oracle's full check
    rejects (the exhaustive property test lives in
    tests/engine/test_reference_indexes.py)."""
    import pytest

    from repro.errors import ConstraintViolation

    size = min(e15_size, 1_000)  # correctness spot check needs no scale

    def build_and_reject():
        oracle = _populated_oracle(size)
        oracle.enforce = True
        for store in (_populated_store(size), oracle):
            # An unreferenced publisher violates db1.
            with pytest.raises(ConstraintViolation, match="db1"):
                store.insert("Publisher", name="Ghost", location="X")
            # Deleting a referenced publisher leaves danglers: rejected too.
            with pytest.raises(ConstraintViolation):
                store.delete(store.extent("Publisher")[0])
            # A publisher arriving with its first item commits fine.
            with store.transaction():
                publisher = store.insert("Publisher", name="New", location="Y")
                store.insert(
                    "Item",
                    title="New Book",
                    isbn="ISBN-NEW",
                    publisher=publisher,
                    authors=frozenset({"a"}),
                    shopprice=50.0,
                    libprice=45.0,
                )
            assert store.check_all() == []
        return True

    assert benchmark(build_and_reject)
