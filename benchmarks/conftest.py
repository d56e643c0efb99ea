"""Shared fixtures for the benchmark harness.

Every benchmark both *verifies* the paper artifact it regenerates (plain
assertions — a benchmark that reproduces the wrong result must fail) and
*times* the machinery behind it, so `pytest benchmarks/ --benchmark-only`
doubles as the reproduction record.  Each module's docstring names the
paper artifact or engine mechanism it covers; the whole-system benchmark
(workloads, end-to-end and per-layer metrics) is declared in
``BENCHMARK.json`` and documented in ``benchmarks/suite/README.md``.

Every clean full run additionally writes one machine-readable
``BENCH_<name>.json`` summary per benchmark module (median/p95 per case,
plus each case's ``extra_info``) into the repository root, stamped with the
machine that produced it (CPU count, platform, Python, git commit and
whether the tree had uncommitted changes), so the performance trajectory is
comparable across changes.  Committed baselines (e.g.
``BENCH_e14_indexes.json``) are refreshed by simply re-running the module;
a ``--quick`` run leaves them as they are.
"""

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="smoke-run: cap benchmark store sizes so CI finishes in seconds",
    )


def pytest_generate_tests(metafunc):
    quick = metafunc.config.getoption("--quick")
    if "e13_size" in metafunc.fixturenames:
        sizes = [100, 1_000] if quick else [100, 1_000, 10_000, 100_000]
        metafunc.parametrize("e13_size", sizes)
    if "e14_size" in metafunc.fixturenames:
        # The O(1)-commit regression guard needs the 10³→10⁴ pair even in
        # --quick mode; the full run adds 10⁵.
        sizes = [1_000, 10_000] if quick else [1_000, 10_000, 100_000]
        metafunc.parametrize("e14_size", sizes)
    if "e15_size" in metafunc.fixturenames:
        # Same 10³→10⁴ pair for the referential guard.  The full run tops
        # out at 3·10⁴: the oracle baseline re-evaluates db1 by a nested
        # scan in O(extent²), so larger sizes only burn time on the
        # comparison store, not on the indexed path under test.
        sizes = [1_000, 10_000] if quick else [1_000, 10_000, 30_000]
        metafunc.parametrize("e15_size", sizes)
    if "e16_size" in metafunc.fixturenames:
        # The WAL-overhead guard needs the 10³→10⁴ pair even in --quick
        # mode; the full run adds 10⁵ (recovery time is O(store), so the
        # large case mainly sizes the recovery-throughput record).
        sizes = [1_000, 10_000] if quick else [1_000, 10_000, 100_000]
        metafunc.parametrize("e16_size", sizes)
    if "e18_size" in metafunc.fixturenames:
        # Explanation-cost record: tracing is free until a check fails, so
        # both sizes of the 10³–10⁴ pair run even in --quick mode to hold
        # the overhead gates.
        sizes = [1_000, 10_000]
        metafunc.parametrize("e18_size", sizes)
    if "e19_size" in metafunc.fixturenames:
        # The no-op fault-shim gate (≤1.05x per commit) holds at every
        # size; --quick keeps the 10³ case, the full run adds 10⁴ so the
        # fsck-throughput record covers a non-trivial directory.
        sizes = [1_000] if quick else [1_000, 10_000]
        metafunc.parametrize("e19_size", sizes)
    if "e20_size" in metafunc.fixturenames:
        # Number of object constraints in the synthetic ladder schema; the
        # pruning-speedup gate (≥1.5x) holds from 32 up, so --quick keeps
        # that size and the full run adds 64 (where the O(n²) registration
        # pass is most visible).
        sizes = [32] if quick else [32, 64]
        metafunc.parametrize("e20_size", sizes)
    if "e21_size" in metafunc.fixturenames:
        # Commits per measured batch.  The parity (≤1.1x), scaling (≥3x
        # critical path at 4 shards) and 2PC (≤3x) gates all hold from 200
        # commits up, so --quick keeps that size; the full run adds 800
        # where per-commit noise is negligible.
        sizes = [200] if quick else [200, 800]
        metafunc.parametrize("e21_size", sizes)
    if "e22_conns" in metafunc.fixturenames:
        # Concurrent connections against one served tenant.  The
        # coalescing gate (≤0.2 fsyncs/commit) is defined at 16; the 1-
        # and 4-connection cases record the latency floor and the trend,
        # and the solo case gates the lone-committer fast path (~1
        # fsync/commit), so all three run even in --quick mode.
        metafunc.parametrize("e22_conns", [1, 4, 16])
    if "e22_size" in metafunc.fixturenames:
        # Commits per connection per measured round.  Both gates hold
        # from 50 commits up; the full run uses 200 where the fsync
        # ratio has fully converged.
        sizes = [50] if quick else [200]
        metafunc.parametrize("e22_size", sizes)
    if "e17_size" in metafunc.fixturenames:
        # Snapshot-reader throughput under a sustained writer; the
        # degradation gate holds at every size, so --quick keeps one.
        sizes = [1_000] if quick else [1_000, 10_000]
        metafunc.parametrize("e17_size", sizes)


def _percentile(sorted_data, fraction):
    if not sorted_data:
        return None
    rank = fraction * (len(sorted_data) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_data) - 1)
    weight = rank - low
    return sorted_data[low] * (1 - weight) + sorted_data[high] * weight


def _machine() -> dict:
    """The machine block of a ``BENCH_*.json`` summary."""
    git = ["git", "-C", str(_REPO_ROOT)]
    try:
        sha = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            git + ["status", "--porcelain"], capture_output=True, text=True, check=True
        ).stdout
        dirty = bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        sha = dirty = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_<module>.json`` per benchmark module that ran.

    Only clean full runs update the files — a failing run must not replace a
    committed baseline with its own numbers, and a ``--quick`` run (capped
    sizes, a gate check) writes nothing.  (Single-case runs still write a
    single-case summary; refresh baselines with a full module run.)"""
    if exitstatus != 0 or session.config.getoption("--quick"):
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    by_module: dict[str, list] = {}
    for bench in bench_session.benchmarks:
        module = Path(bench.fullname.split("::", 1)[0]).stem
        name = module[len("bench_"):] if module.startswith("bench_") else module
        data = sorted(bench.stats.data) if bench.stats.data else []
        by_module.setdefault(name, []).append(
            {
                "case": bench.name,
                "rounds": len(data),
                "median_s": _percentile(data, 0.5),
                "p95_s": _percentile(data, 0.95),
                "min_s": data[0] if data else None,
                "extra_info": dict(bench.extra_info),
            }
        )
    machine = _machine()
    for name, cases in by_module.items():
        summary = {
            "benchmark": f"bench_{name}",
            "quick": False,
            "python": platform.python_version(),
            "machine": machine,
            "cases": cases,
        }
        path = _REPO_ROOT / f"BENCH_{name}.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


from repro.fixtures import (
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.integration import IntegrationWorkbench


@pytest.fixture()
def library_setup():
    """Fresh Figure 1 stores + spec (stores are mutable, so per-test)."""
    local_store, local_named = cslibrary_store()
    remote_store, remote_named = bookseller_store()
    return library_integration_spec(), local_store, remote_store


@pytest.fixture()
def personnel_setup():
    db1, db2, named = personnel_stores()
    return personnel_integration_spec(), db1, db2


@pytest.fixture()
def library_result(library_setup):
    spec, local_store, remote_store = library_setup
    return IntegrationWorkbench(spec, local_store, remote_store).run()
