"""E11 — scalability of the algorithms the paper leaves implicit.

The paper reports no measurements; these benchmarks document that the
design-tool loop stays interactive as extents grow: instance matching uses a
hash join on key-to-key equality rules (linear in the extents), conformation
and merging are linear in the number of objects, and the solver's entailment
checks are independent of extent size.  Global update validation and
selection over the integrated view cost per object, not per view: the view
builds its evaluation state once per generation and the validator
precomputes its plan (``test_e11_update_validation_flat``).
"""

import gc
import itertools
import statistics
import time

import pytest

from repro import ObjectStore, Solver, TypeEnvironment, parse_expression
from repro.fixtures import (
    bookseller_schema,
    cslibrary_schema,
    library_integration_spec,
)
from repro.integration.conformation import conform
from repro.integration.matching import match_instances
from repro.integration.merging import merge_instances
from repro.types import RangeType

PUBLISHERS = ("ACM", "IEEE", "Springer", "Elsevier", "Kluwer")


def _generate_stores(size: int, overlap: float = 0.5):
    """Synthetic Figure 1-shaped extents: ``size`` publications per side,
    with ``overlap`` of the ISBNs shared (the objects to be merged)."""
    local_store = ObjectStore(cslibrary_schema(), enforce=False)
    remote_store = ObjectStore(bookseller_schema(), enforce=False)
    publisher_objects = {
        name: remote_store.insert(
            "Publisher", name=name, location=f"{name} City"
        )
        for name in PUBLISHERS
    }
    shared = int(size * overlap)
    for index in range(size):
        publisher = PUBLISHERS[index % len(PUBLISHERS)]
        local_store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"L-{index}",
            publisher=publisher,
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )
    for index in range(size):
        isbn = f"L-{index}" if index < shared else f"R-{index}"
        remote_store.insert(
            "Monograph",
            title=f"Book {index}",
            isbn=isbn,
            publisher=publisher_objects[PUBLISHERS[index % len(PUBLISHERS)]],
            authors=frozenset({f"Author {index}"}),
            shopprice=52.0 + index % 40,
            libprice=47.0 + index % 40,
            subjects=frozenset({"misc"}),
        )
    return local_store, remote_store


@pytest.mark.parametrize("size", [50, 200, 500])
def test_e11_match_and_merge_scaling(benchmark, size):
    spec = library_integration_spec()
    local_store, remote_store = _generate_stores(size)

    def run():
        match = match_instances(spec, local_store, remote_store)
        conformation = conform(spec, local_store, remote_store)
        view = merge_instances(spec, conformation, match)
        return match, view

    match, view = benchmark(run)
    expected_merges = int(size * 0.5) + len(PUBLISHERS)
    assert len(view.merged_objects()) == expected_merges
    benchmark.extra_info["objects per side"] = size
    benchmark.extra_info["merged"] = expected_merges


@pytest.mark.parametrize("size", [50, 500])
def test_e11_conformation_scaling(benchmark, size):
    spec = library_integration_spec()
    local_store, remote_store = _generate_stores(size)
    conformation = benchmark(conform, spec, local_store, remote_store)
    assert len(conformation.local.instances) >= size


def test_e11_entailment_throughput(benchmark):
    """A batch of entailment checks of the paper's shapes (solver cost is
    independent of extent sizes — it is pure constraint reasoning)."""
    env = TypeEnvironment({"rating": RangeType(1, 10)})
    solver = Solver(env)
    judgements = [
        ("rating >= 7", "rating >= 4", True),
        ("rating >= 3", "rating >= 4", False),
        ("ref? = true and (ref? = true implies rating >= 7)", "rating >= 7", True),
        ("rating in {8, 9}", "rating >= 7", True),
        (
            "publisher.name = 'ACM' implies rating >= 6",
            "publisher.name = 'ACM' implies rating >= 5",
            True,
        ),
    ]
    parsed = [
        (parse_expression(p), parse_expression(c), expected)
        for p, c, expected in judgements
    ]

    def run():
        return [solver.entails(p, c) for p, c, _ in parsed]

    results = _cold_and_warm(benchmark, run, rounds=300)
    assert results == [expected for _, _, expected in parsed]
    benchmark.extra_info["judgements per round"] = len(parsed)


def test_e11_workbench_constraint_analysis(benchmark):
    """The schema-level (no instances) analysis loop — what a designer
    iterates on — is milliseconds."""
    from repro.integration import IntegrationWorkbench

    spec = library_integration_spec()
    result = _cold_and_warm(benchmark, lambda: IntegrationWorkbench(spec).run(), rounds=20)
    assert result.derivation is not None
    benchmark.extra_info["global constraints"] = len(result.global_constraints)


def _cold_and_warm(benchmark, fn, rounds: int):
    """Time ``fn`` with the solver's judgement memo cleared before every
    round, so the benchmark keeps measuring the decision procedure; record
    the median of as many warm (memo-hit) calls as ``warm_median_ms``."""
    from repro.constraints.solver import _clear_memo

    result = benchmark.pedantic(fn, setup=_clear_memo, rounds=rounds, iterations=1)
    warm = []
    for _ in range(rounds):
        begin = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - begin)
    benchmark.extra_info["warm_median_ms"] = round(statistics.median(warm) * 1000, 4)
    return result


def _decided(result) -> tuple:
    """What a workbench run decided through the solver, as text."""
    derivation = result.derivation
    return (
        [constraint.describe() for constraint in result.global_constraints],
        [conflict.describe() for conflict in result.rule_checks.conflicts],
        [conflict.describe() for conflict in derivation.explicit_conflicts],
        [risk.describe() for risk in derivation.implicit_risks],
        [diagnostic.render() for diagnostic in result.static_warnings],
        [suggestion.describe() for suggestion in result.suggestions],
        result.conflict_count(),
    )


def test_e11_second_workbench_run_solves_nothing(library_setup, monkeypatch):
    """The solver's judgements are a pure function of (formula, typing
    environment), so a second run over the same specification asks the
    memo every question the first run decided: zero branch solves, and the
    same derived constraints, conflicts, warnings and suggestions."""
    from repro.constraints import solver
    from repro.integration import IntegrationWorkbench

    spec, local_store, remote_store = library_setup
    solves = []
    original = solver._Branch._solve

    def counting(branch):
        solves.append(branch)
        return original(branch)

    monkeypatch.setattr(solver._Branch, "_solve", counting)
    solver._clear_memo()
    first = IntegrationWorkbench(spec, local_store, remote_store).run()
    cold_solves = len(solves)
    solves.clear()
    second = IntegrationWorkbench(spec, local_store, remote_store).run()
    assert cold_solves > 0 and solves == []
    assert _decided(second) == _decided(first)
    assert first.global_constraints and first.suggestions


#: Publications per side of the small and the large view; both run even in
#: --quick mode, since the gate is their ratio.
FLAT_SIZES = (100, 1_000)


def _interleaved_medians(fns, rounds: int) -> list[float]:
    """Median seconds per call of each of ``fns``, calling them in turn so a
    slow phase of the machine hits every one alike, with the cyclic
    collector paused (as ``timeit`` does)."""
    samples: list[list[float]] = [[] for _ in fns]
    gc.disable()
    try:
        for _ in range(rounds):
            for fn, times in zip(fns, samples):
                begin = time.perf_counter()
                fn()
                times.append(time.perf_counter() - begin)
    finally:
        gc.enable()
    return [statistics.median(times) for times in samples]


def _validation_workload(size: int):
    """(one validation, one select, rows the select scans) over a view of
    ``size`` publications per side; checks every verdict once."""
    from repro.integration import IntegrationWorkbench
    from repro.integration.relationships import Side
    from repro.integration.updates import GlobalUpdateValidator

    local_store, remote_store = _generate_stores(size)
    result = IntegrationWorkbench(
        library_integration_spec(), local_store, remote_store
    ).run()
    view = result.view
    validator = GlobalUpdateValidator(result)
    merged = [
        obj
        for obj in view.merged_objects()
        if "libprice" in obj.component_on(Side.REMOTE).state
    ]
    updates = []
    for number, obj in enumerate(merged[:50]):
        libprice = obj.component_on(Side.REMOTE).state["libprice"]
        rejected = number % 2 == 1
        updates.append((obj.oid, libprice - 1.0 if rejected else libprice + 1.0, rejected))
    for oid, price, rejected in updates:
        verdict = validator.validate(oid, shopprice=price)
        assert [r.constraint for r in verdict.rejections] == (
            ["Bookseller.Item.oc1"] if rejected else []
        )
    cycle = itertools.cycle(updates)

    def validate_one():
        oid, price, _ = next(cycle)
        return validator.validate(oid, shopprice=price)

    def select():
        return view.select("Bookseller.Item", "shopprice > 60")

    rows = len(view.extent("Bookseller.Item"))
    assert 0 < len(select()) < rows
    return validate_one, select, rows


def test_e11_update_validation_flat(benchmark):
    """Validating a global update and selecting over the integrated view
    cost per object, not per view: 10x the publications must stay within
    2x per validation and per selected row.  Rebuilding the view's
    evaluation state per check made validation ~4x here."""
    small, large = FLAT_SIZES
    (small_validate, small_select, small_rows), (large_validate, large_select, large_rows) = (
        _validation_workload(size) for size in FLAT_SIZES
    )
    small_per_validate, large_per_validate = _interleaved_medians(
        [small_validate, large_validate], 400
    )
    small_select_s, large_select_s = _interleaved_medians([small_select, large_select], 5)
    small_row, large_row = small_select_s / small_rows, large_select_s / large_rows
    benchmark(large_validate)
    benchmark.extra_info["objects per side"] = list(FLAT_SIZES)
    benchmark.extra_info[f"validate_{small}_ms"] = round(small_per_validate * 1000, 4)
    benchmark.extra_info[f"validate_{large}_ms"] = round(large_per_validate * 1000, 4)
    benchmark.extra_info[f"select_row_{small}_us"] = round(small_row * 1e6, 3)
    benchmark.extra_info[f"select_row_{large}_us"] = round(large_row * 1e6, 3)
    validate_ratio = large_per_validate / small_per_validate
    row_ratio = large_row / small_row
    benchmark.extra_info["validate_ratio"] = round(validate_ratio, 2)
    benchmark.extra_info["select_row_ratio"] = round(row_ratio, 2)
    assert validate_ratio <= 2.0, (
        f"validate scales with the view: {small_per_validate * 1e3:.3f}ms at "
        f"{small} vs {large_per_validate * 1e3:.3f}ms at {large} per side"
    )
    assert row_ratio <= 2.0, (
        f"select scales with the view per row: {small_row * 1e6:.1f}us at "
        f"{small} vs {large_row * 1e6:.1f}us at {large} per side"
    )
