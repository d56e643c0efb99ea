"""E18 — explainable violations: what reason tracing and conflict cores cost.

PR 6 added reason-traced evaluation (``repro.constraints.evaluate``) and
deletion-based subset-minimal conflict cores (``repro.engine.explain``).
The design contract is asymmetric: the success path must not pay for
explainability at all (tracing only starts *after* a check has failed), a
rejection may pay at most one extra traced re-run of the failing check, and
full core extraction is an offline/audit-time cost.  Every store explains,
so the first two prices are gated as deterministic counts of
:func:`repro.engine.explain.failure_trace` calls (the traced re-run), with
the latencies kept as records; extraction is gated against scan checks:

* ``success_commit`` — committed transactions on an enforcing store.
  Acceptance: no commit calls ``failure_trace`` (nothing on this path
  allocates a trace).  Records the commit latency.
* ``rejection`` — an insert that violates the referential constraint
  ``db1``.  Acceptance: exactly one ``failure_trace`` call — detection runs
  once untraced, then once more traced to build the reason graph, which
  must carry events.  Records the rejection latency.
* ``core_extraction`` — ``store.explain_violations()`` on a store with a
  planted referential violation and a key collision, at 10³ and 10⁴
  objects.  The trace-seeded support keeps the shrink loop's conflict
  checks over a handful of candidates (each check re-filters extents, so
  the cost is a small multiple of one audit, not quadratic in it); the gate
  asserts the 10³→10⁴ growth stays linear-ish.
* ``aggregate_core_extraction`` — the opposite shape: CSLibrary's
  ``sum(ourprice) < MAX`` violated over 2 000 publications (the workbench's
  ``integrate`` shape), whose core has ~1 400 members.  The violation is
  monotone (non-negative prices), so the core is found in closed form:
  acceptance is at most 16 probes (deletion shrinking took ~2 500), and
  extraction must stay within 1 000 scan-semantics checks of ``cc2``.

Results land in ``BENCH_e18_explain.json`` via the shared harness
(see ``conftest.py``).
"""

import time

from repro import ObjectStore
from repro.errors import ConstraintViolation
from repro.fixtures import bookseller_schema

#: Block size: each Publisher is referenced by this many consecutive Items.
ITEMS_PER_PUBLISHER = 100


def _populated_store(size: int, enforce: bool = True) -> ObjectStore:
    store = ObjectStore(bookseller_schema(), enforce=False)
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


def _count_traces(monkeypatch) -> list:
    """Record every call of :func:`repro.engine.explain.failure_trace`
    (its callers import it at call time, so patching the module attribute
    reaches all of them); returns the list the constraint names land in."""
    from repro.engine import explain

    calls: list = []
    original = explain.failure_trace

    def counted(store, constraint, *args, **kwargs):
        calls.append(constraint.qualified_name)
        return original(store, constraint, *args, **kwargs)

    monkeypatch.setattr(explain, "failure_trace", counted)
    return calls


def test_e18_success_commit_builds_no_trace(benchmark, e18_size, monkeypatch):
    """Tracing off the success path: a run of passing commits never calls
    ``failure_trace`` — traces are built only after a check has failed."""
    store = _populated_store(e18_size)
    commit = _commit_timer(store)
    calls = _count_traces(monkeypatch)

    t_commit = _best_of(commit, 7)
    benchmark(commit)

    benchmark.extra_info["objects"] = e18_size
    benchmark.extra_info["commit_ms"] = round(t_commit * 1000, 4)
    benchmark.extra_info["failure_traces"] = len(calls)

    assert calls == [], (
        f"passing commits built {len(calls)} failure trace(s) at "
        f"{e18_size} objects"
    )


def test_e18_rejection_builds_one_trace(benchmark, e18_size, monkeypatch):
    """A rejection pays exactly one traced re-run of the failing check: one
    rejected insert calls ``failure_trace`` once, and the trace carries the
    reason graph."""
    store = _populated_store(e18_size)
    reject = _rejection_timer(store)

    t_reject = _best_of(reject, 7)
    benchmark(reject)

    calls = _count_traces(monkeypatch)
    try:
        store.insert("Publisher", name="Ghost", location="X")
    except ConstraintViolation as exc:
        trace = exc.trace
    else:  # pragma: no cover - guarded by the timer above
        raise AssertionError("ghost publisher was not rejected")

    benchmark.extra_info["objects"] = e18_size
    benchmark.extra_info["reject_ms"] = round(t_reject * 1000, 4)
    benchmark.extra_info["failure_traces"] = len(calls)

    assert len(calls) == 1, f"one rejection built {len(calls)} failure traces: {calls}"
    assert trace is not None and trace.events


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
    """Aggregate cores: ``sum < MAX`` over non-negative prices is a
    monotone violation, so its core is the shortest largest-first prefix
    reaching ``MAX`` — a binary search over ~2 000 prefix lengths plus one
    drop-last certificate, gated as a probe count (deletion shrinking took
    ~2 500).  Probes filter frozen columns, so extraction also stays within
    a bounded number of scan checks of ``cc2``."""
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

    assert core.checks <= 16, (
        f"aggregate core extraction took {core.checks} probes — the "
        f"closed-form prefix search should need ~12"
    )
    assert t_extract <= 1000 * t_scan, (
        f"aggregate core extraction costs {t_extract / t_scan:.0f} scan "
        f"checks of cc2 ({core.checks} probes) — probes are re-reading "
        f"every member instead of filtering frozen columns"
    )
