"""E18 — explainable violations: what reason tracing and conflict cores cost.

PR 6 added reason-traced evaluation (``repro.constraints.evaluate``) and
deletion-based subset-minimal conflict cores (``repro.engine.explain``).
The design contract is asymmetric: the success path must not pay for
explainability at all (tracing only starts *after* a check has failed), a
rejection may pay at most one extra traced re-run of the failing check, and
full core extraction is an offline/audit-time cost.  This module records all
three prices:

* ``success_commit`` — a committed transaction on an enforcing store with
  ``explain=True`` vs ``explain=False``.  Acceptance: the tracing-enabled
  store's commit latency is unchanged (≤1.5x with absolute timer slack —
  nothing on this path allocates a trace).
* ``rejection`` — an insert that violates the referential constraint
  ``db1``, explain on vs off.  Acceptance: ≤2x — detection runs once
  untraced, then once more traced to build the reason graph.
* ``core_extraction`` — ``store.explain_violations()`` on a store with a
  planted referential violation and a key collision, at 10³ and 10⁴
  objects.  The trace-seeded support keeps the shrink loop's conflict
  checks over a handful of candidates (each check re-filters extents, so
  the cost is a small multiple of one audit, not quadratic in it); the gate
  asserts the 10³→10⁴ growth stays linear-ish.
* ``aggregate_core_extraction`` — the opposite shape: CSLibrary's
  ``sum(ourprice) < MAX`` violated over 2 000 publications (the workbench's
  ``integrate`` shape), whose core has ~1 500 members and costs ~2 500
  shrink probes.  Untraced probes answer the sum from frozen columns
  instead of re-reading every member, so extraction must stay within
  1 000 scan-semantics checks of ``cc2`` (the per-member re-evaluation
  this replaced costs ~3 000).

Results land in ``BENCH_e18_explain.json`` via the shared harness
(see ``conftest.py``).
"""

import time

from repro import ObjectStore
from repro.errors import ConstraintViolation
from repro.fixtures import bookseller_schema

#: Block size: each Publisher is referenced by this many consecutive Items.
ITEMS_PER_PUBLISHER = 100


def _populated_store(size: int, enforce: bool = True, **kwargs) -> ObjectStore:
    store = ObjectStore(bookseller_schema(), enforce=False, **kwargs)
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
    if enforce:
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
    """One committed transaction flipping an Item between two publishers —
    the e15 workload: dirties ``(Item, publisher)``, re-checks db1, passes."""
    items = store.extent("Item")
    publishers = store.extent("Publisher")
    target = items[1]
    original, other = publishers[0], publishers[1]

    def commit():
        with store.transaction():
            store.update(target, publisher=other)
            store.update(target, publisher=original)

    return commit


def _rejection_timer(store):
    """One rejected insert: an unreferenced publisher violates db1."""

    def reject():
        try:
            store.insert("Publisher", name="Ghost", location="X")
        except ConstraintViolation:
            return
        raise AssertionError("ghost publisher was not rejected")

    return reject


def test_e18_success_commit_latency_unchanged(benchmark, e18_size):
    """Tracing off the success path: explain=True costs nothing on commits
    that pass — the flag only changes what happens after a check fails."""
    explaining = _populated_store(e18_size, explain=True)
    plain = _populated_store(e18_size, explain=False)

    t_explaining = _best_of(_commit_timer(explaining), 7)
    t_plain = _best_of(_commit_timer(plain), 7)
    benchmark(_commit_timer(explaining))

    benchmark.extra_info["objects"] = e18_size
    benchmark.extra_info["commit_explain_on_ms"] = round(t_explaining * 1000, 4)
    benchmark.extra_info["commit_explain_off_ms"] = round(t_plain * 1000, 4)
    benchmark.extra_info["ratio_on_over_off"] = round(t_explaining / t_plain, 2)

    assert t_explaining <= 1.5 * t_plain + 5e-4, (
        f"explain=True slowed the success path: {t_explaining * 1e6:.0f}us "
        f"vs {t_plain * 1e6:.0f}us at {e18_size} objects"
    )


def test_e18_rejection_overhead_bounded(benchmark, e18_size):
    """A rejection pays at most one traced re-run of the failing check:
    detection with explain=True stays within 2x of explain=False."""
    explaining = _populated_store(e18_size, explain=True)
    plain = _populated_store(e18_size, explain=False)

    t_explaining = _best_of(_rejection_timer(explaining), 7)
    t_plain = _best_of(_rejection_timer(plain), 7)
    benchmark(_rejection_timer(explaining))

    # sanity: the traced rejection actually carries a reason graph
    try:
        explaining.insert("Publisher", name="Ghost", location="X")
    except ConstraintViolation as exc:
        assert exc.trace is not None and exc.trace.events
    else:  # pragma: no cover - guarded by the timer above
        raise AssertionError("ghost publisher was not rejected")

    benchmark.extra_info["objects"] = e18_size
    benchmark.extra_info["reject_explain_on_ms"] = round(t_explaining * 1000, 4)
    benchmark.extra_info["reject_explain_off_ms"] = round(t_plain * 1000, 4)
    benchmark.extra_info["ratio_on_over_off"] = round(t_explaining / t_plain, 2)

    assert t_explaining <= 2.0 * t_plain + 1e-3, (
        f"traced rejection {t_explaining * 1e6:.0f}us exceeds 2x the "
        f"untraced {t_plain * 1e6:.0f}us at {e18_size} objects"
    )


def _violating_store(size: int) -> ObjectStore:
    """A non-enforcing store with one violation per explanation shape:
    an unreferenced publisher (db1, quantified/referential) and an isbn
    collision (cc1, key)."""
    store = _populated_store(size, enforce=False)
    store.insert("Publisher", name="Ghost", location="X")
    referenced = store.extent("Publisher")[0]
    store.insert(
        "Item",
        title="Duplicate",
        isbn="ISBN-0",
        publisher=referenced,
        authors=frozenset({"a"}),
        shopprice=50.0,
        libprice=45.0,
    )
    return store


def test_e18_core_extraction_time(benchmark, e18_size):
    """Core extraction: audit-time cost, trace-seeded so the shrink loop's
    conflict checks stay over a handful of candidates at any store size."""
    store = _violating_store(e18_size)
    violations = store.audit()
    assert violations

    cores = benchmark(lambda: store.explain_violations(violations))

    by_suffix = {core.constraint_name.rsplit(".", 1)[-1]: core for core in cores}
    assert set(by_suffix) == {"db1", "cc1"}
    assert all(core.minimal for core in cores)
    ghost = by_suffix["db1"]
    assert [m.class_name for m in ghost.members] == ["Publisher"]
    collision = by_suffix["cc1"]
    assert len(collision.members) == 2  # exactly the colliding pair

    benchmark.extra_info["objects"] = e18_size
    benchmark.extra_info["cores"] = len(cores)
    benchmark.extra_info["shrink_checks"] = sum(core.checks for core in cores)


def _scan_check_timer(store):
    """One untraced scan-semantics evaluation of every non-object
    constraint — the unit of work core extraction is measured against.
    (Extraction must mask extents, and the maintained indexes describe the
    full store, so scan semantics is the fair baseline, not the O(1)
    probes.)"""
    from repro.constraints.evaluate import evaluate
    from repro.constraints.model import ConstraintKind

    constraints = [
        c
        for c in store.schema.all_constraints()
        if c.kind is not ConstraintKind.OBJECT
    ]

    def check():
        for constraint in constraints:
            ctx = store.eval_context(
                self_extent_class=(
                    constraint.owner
                    if constraint.kind is ConstraintKind.CLASS
                    else None
                )
            )
            ctx.indexes = None
            evaluate(constraint.formula, ctx)

    return check


def test_e18_core_extraction_bounded_by_scan_checks(benchmark, e18_size):
    """The complexity gate: extraction costs a small constant number of
    scan-semantics checks — the traced seed, the trace-seeded shrink loop
    (a handful of conflict checks over masked views), and one isolated
    re-trace.  It must never regress to shrinking over the whole extent,
    which would cost O(extent) checks instead."""
    store = _violating_store(e18_size)
    violations = store.audit()

    t_scan = _best_of(_scan_check_timer(store), 5)
    t_extract = _best_of(lambda: store.explain_violations(violations), 3)
    benchmark(lambda: store.explain_violations(violations))

    benchmark.extra_info["objects"] = e18_size
    benchmark.extra_info["scan_check_ms"] = round(t_scan * 1000, 4)
    benchmark.extra_info["extract_ms"] = round(t_extract * 1000, 4)
    benchmark.extra_info["checks_per_scan"] = round(t_extract / t_scan, 2)

    assert t_extract <= 10 * t_scan + 1e-2, (
        f"core extraction costs {t_extract / t_scan:.1f} scan checks at "
        f"{e18_size} objects — the shrink loop is no longer trace-seeded"
    )


#: Publications in the aggregate-core case: the ``integrate`` workload's
#: CSLibrary side, large enough that ``sum(ourprice) < MAX`` is violated.
AGGREGATE_PUBLICATIONS = 2_000


def test_e18_aggregate_core_extraction(benchmark):
    """Aggregate cores: every shrink probe re-decides ``sum < MAX`` on a
    masked view of ~2 000 publications.  Probes filter frozen columns, so
    extraction costs a bounded number of scan checks of ``cc2`` even at
    ~2 500 probes — re-reading every member per probe costs ~3 000."""
    from repro.constraints.evaluate import evaluate
    from repro.fixtures import cslibrary_schema

    store = ObjectStore(cslibrary_schema(), enforce=False)
    publishers = ("ACM", "IEEE", "Springer", "Elsevier", "Kluwer")
    for index in range(AGGREGATE_PUBLICATIONS):
        store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"L-{index}",
            publisher=publishers[index % 5],
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )
    violations = store.audit()
    (cc2,) = [
        c for c in store.schema.all_constraints() if c.qualified_name.endswith(".cc2")
    ]

    def scan_check():
        ctx = store.eval_context(self_extent_class=cc2.owner)
        ctx.indexes = None
        assert not evaluate(cc2.formula, ctx)

    t_scan = _best_of(scan_check, 20)
    t_extract = _best_of(lambda: store.explain_violations(violations), 3)
    (core,) = benchmark(lambda: store.explain_violations(violations))
    assert core.constraint_name == cc2.qualified_name and core.minimal

    benchmark.extra_info["objects"] = AGGREGATE_PUBLICATIONS
    benchmark.extra_info["core_size"] = len(core.members)
    benchmark.extra_info["probes"] = core.checks
    benchmark.extra_info["scan_check_ms"] = round(t_scan * 1000, 4)
    benchmark.extra_info["extract_ms"] = round(t_extract * 1000, 2)
    benchmark.extra_info["checks_per_scan"] = round(t_extract / t_scan, 1)

    assert t_extract <= 1000 * t_scan, (
        f"aggregate core extraction costs {t_extract / t_scan:.0f} scan "
        f"checks of cc2 ({core.checks} probes) — probes are re-reading "
        f"every member instead of filtering frozen columns"
    )
