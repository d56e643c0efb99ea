"""E20 — static analysis: registration-time cost and the pruned hot path.

PR 8 added a static-analysis subsystem over constraint ASTs
(:mod:`repro.constraints.analysis`): lint, per-constraint satisfiability,
cross-constraint contradiction/subsumption, and redundancy pruning folded
into the incremental-enforcement check plans.  This benchmark records its two
performance claims:

* analysis is a **bounded one-time cost** paid at schema registration
  (``ObjectStore(schema, analyze=True)``) — the cross-constraint pass is
  O(n²) solver calls over n object constraints, but runs once per schema,
  never per commit;
* steady-state commits are **no slower** with analysis on (the paper-shaped
  fixture schema has nothing to prune: both stores run identical check
  plans), and **≥1.5x faster** where redundancy pruning applies (a ladder
  of entailed constraints collapses to its strongest member).

``e20_size`` is the number of object constraints in the synthetic ladder
schema (``size >= 1`` … ``size >= n``: the strongest entails all others, so
n−1 of n are pruned).  Run with ``--quick`` for the CI smoke size.
"""

import time

from repro import ObjectStore
from repro.constraints.solver import _clear_memo
from repro.fixtures import cslibrary_schema
from repro.tm.parser import parse_database


def _ladder_source(constraints: int) -> str:
    lines = [
        "Database Bench",
        "Class Widget",
        "  attributes",
        "    size : int",
        "    label : string",
        "  object constraints",
    ]
    for k in range(1, constraints + 1):
        lines.append(f"    oc{k:03d} : size >= {k}")
    lines.append("end Widget")
    return "\n".join(lines) + "\n"


def _best_of(fn, repetitions: int = 5) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _populate(store: ObjectStore, objects: int = 200) -> None:
    for index in range(objects):
        store.insert("Widget", size=1_000 + index, label=f"w{index}")


def _best_update(store: ObjectStore, rounds: int = 300) -> float:
    target = store.extent("Widget")[0]
    best = float("inf")
    for round_index in range(rounds):
        start = time.perf_counter()
        store.update(target, size=2_000 + round_index % 10)
        best = min(best, time.perf_counter() - start)
    return best


def test_e20_registration_cost_is_bounded(benchmark, e20_size):
    """Analysis-on registration pays the full pass pipeline once; record it
    against plain registration and hold a generous absolute ceiling."""
    source = _ladder_source(e20_size)

    def register_analyzed():
        # Cold: the solver's judgement memo would answer a repeated
        # registration's questions without deciding them.
        _clear_memo()
        return ObjectStore(parse_database(source), analyze=True)

    def register_plain():
        return ObjectStore(parse_database(source))

    t_plain = _best_of(register_plain, 3)
    store = benchmark(register_analyzed)
    t_analyzed = _best_of(register_analyzed, 3)

    benchmark.extra_info["constraints"] = e20_size
    benchmark.extra_info["plain_registration_ms"] = round(t_plain * 1000, 3)
    benchmark.extra_info["analyzed_registration_ms"] = round(t_analyzed * 1000, 3)
    benchmark.extra_info["one_time_overhead_ms"] = round(
        (t_analyzed - t_plain) * 1000, 3
    )
    # Bounded one-time cost: even the O(n²) cross pass over the largest
    # ladder stays far below this ceiling (observed ~0.5 s at n=64).
    assert t_analyzed < 5.0, (
        f"analysis-on registration took {t_analyzed:.2f}s "
        f"for {e20_size} constraints"
    )
    assert store.analyze is True


def test_e20_steady_state_parity_on_fixture_schema(benchmark, e20_size):
    """Nothing prunes on the paper's fixture schema, so analyze-on commits
    must match the analyze-off baseline (same check plans)."""

    def fresh(analyze: bool) -> ObjectStore:
        schema = cslibrary_schema()
        schema.set_constant("MAX", 10**12)
        store = ObjectStore(schema, analyze=analyze)
        for index in range(200):
            store.insert(
                "Publication",
                title=f"Book {index}",
                isbn=f"ISBN-{index}",
                publisher="ACM",
                shopprice=50.0,
                ourprice=45.0,
            )
        return store

    baseline = fresh(analyze=False)
    analyzed = fresh(analyze=True)
    target_off = baseline.extent("Publication")[0]
    target_on = analyzed.extent("Publication")[0]

    def commit_off():
        baseline.update(target_off, publisher="IEEE")

    def commit_on():
        analyzed.update(target_on, publisher="IEEE")

    t_off = _best_of(commit_off, 200)
    t_on = _best_of(commit_on, 200)
    benchmark(commit_on)

    benchmark.extra_info["baseline_commit_us"] = round(t_off * 1e6, 2)
    benchmark.extra_info["analyzed_commit_us"] = round(t_on * 1e6, 2)
    benchmark.extra_info["ratio"] = round(t_on / t_off, 3)
    # Parity within noise: the analyze-on store adds one frozenset lookup.
    assert t_on <= t_off * 1.3 + 20e-6, (
        f"analyze-on steady-state commit {t_on * 1e6:.1f}us vs "
        f"baseline {t_off * 1e6:.1f}us"
    )


def test_e20_pruned_hot_path_speedup(benchmark, e20_size):
    """Where pruning applies (n−1 of n ladder constraints are entailed by
    the strongest), commits on the analyzed store are ≥1.5x faster."""
    source = _ladder_source(e20_size)
    plain = ObjectStore(parse_database(source))
    pruned = ObjectStore(parse_database(source), analyze=True)
    _populate(plain)
    _populate(pruned)

    t_plain = _best_update(plain)
    t_pruned = _best_update(pruned)
    target = pruned.extent("Widget")[0]
    benchmark(lambda: pruned.update(target, size=3_000))

    pruned_set = pruned.dependency_index().pruned_constraints()
    benchmark.extra_info["constraints"] = e20_size
    benchmark.extra_info["pruned_away"] = len(pruned_set)
    benchmark.extra_info["plain_commit_us"] = round(t_plain * 1e6, 2)
    benchmark.extra_info["pruned_commit_us"] = round(t_pruned * 1e6, 2)
    benchmark.extra_info["speedup"] = round(t_plain / t_pruned, 2)

    assert len(pruned_set) == e20_size - 1
    assert t_plain / t_pruned >= 1.5, (
        f"pruned hot path only {t_plain / t_pruned:.2f}x faster at "
        f"{e20_size} ladder constraints"
    )
    # Equivalence spot check: both stores still reject below the keeper.
    import pytest

    from repro.errors import ConstraintViolation

    for store in (plain, pruned):
        with pytest.raises(ConstraintViolation, match="oc"):
            store.insert("Widget", size=1, label="reject")
