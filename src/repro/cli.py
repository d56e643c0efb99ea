"""Command-line interface: run the Figure 3 workbench on specification files.

Usage::

    python -m repro scaffold DIR    # write the Figure 1 sources to DIR
    python -m repro report --local DIR/cslibrary.tm \\
        --remote DIR/bookseller.tm --spec DIR/library.spec
    python -m repro validate --local DIR/cslibrary.tm \\
        --remote DIR/bookseller.tm --spec DIR/library.spec
    python -m repro demo            # the built-in Figure 1 scenario
    python -m repro recover STOREDIR   # recover a durable store, audit it
    python -m repro snapshot STOREDIR  # checkpoint: snapshot + compact log
    python -m repro fsck STOREDIR      # read-only scrub: frames, digests, replay
    python -m repro stress --writers 2 --readers 4 --seconds 2
    python -m repro explain STOREDIR   # minimal conflict cores for violations
    python -m repro explain --demo     # cores for every violation class
    python -m repro lint DIR/cslibrary.tm DIR/bookseller.tm

``validate`` exits non-zero when the specification is inconsistent with the
component constraints, so the workbench slots into CI pipelines.
``scaffold`` emits the paper's built-in schemas and integration
specification as editable files, giving ``report``/``validate`` something to
run on out of the box.  ``recover`` and ``snapshot`` operate on the durable
store directories of :meth:`repro.ObjectStore.open` (``snapshot.json`` +
``wal.jsonl``); ``recover`` exits non-zero when the recovered state violates
its constraints, and warns with every finding recovery recorded (a torn
tail, a snapshot fallback, an LSN gap, schema drift — non-zero under
``--strict`` on schema drift).
``fsck`` scrubs a durable directory *without* opening it for writing — it
grades the one recovery read by the same findings, and verifies the
retained fallback snapshot — and exits 0 (clean), 1 (damaged but a
committed prefix is recoverable by reopening) or 2 (no committed prefix
survives); a sharded store root is scrubbed shard by shard.
``stress`` exercises the store under concurrent load: writer threads
committing updates and transactions against one shared store (a sharded
one with ``--shards``) while reader threads consume lock-free snapshots —
with ``--dir``/``--sync`` the committers additionally demonstrate group
commit (one fsync covering a batch of concurrent durable commits).
``explain`` audits a durable store and prints a subset-minimal conflict
core for every violation found — which objects, exactly, conflict with
which constraint, with the binding chain that convicts each member
(``--demo`` runs the same machinery on an in-memory store violating one
constraint of every class: object, key, aggregate, referential).
``lint`` statically analyses TM schema files *before any data exists*:
type/well-formedness lint with file positions, per-constraint
satisfiability (always-violated and tautological constraints), and
cross-constraint contradiction/redundancy detection.  It exits 0 when
clean, 1 on warnings only, 2 on errors — info-level diagnostics (honest
"unknown" reports) never affect the exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine.store import ObjectStore
from repro.errors import ReproError, ShardingError
from repro.fixtures import (
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
)
from repro.integration.report import render_report
from repro.integration.spec_parser import parse_specification
from repro.integration.workbench import IntegrationWorkbench
from repro.tm.parser import parse_database


def _read(path: str, role: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SystemExit(
            f"repro: cannot read {role} file {path!r}: {exc}"
        ) from exc


def _load_result(args: argparse.Namespace):
    local_schema = parse_database(_read(args.local, "local schema"))
    remote_schema = parse_database(_read(args.remote, "remote schema"))
    spec = parse_specification(
        _read(args.spec, "spec"), local_schema, remote_schema
    )
    return IntegrationWorkbench(
        spec, descriptivity_view=args.descriptivity_view
    ).run()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--local", required=True, help="local TM schema file")
    parser.add_argument("--remote", required=True, help="remote TM schema file")
    parser.add_argument("--spec", required=True, help="integration spec file")
    parser.add_argument(
        "--descriptivity-view",
        choices=("object", "value"),
        default="object",
        help="how to settle object-value conflicts (default: object)",
    )


def _run_durable_command(args: argparse.Namespace) -> int:
    """``recover`` / ``snapshot`` over a durable store directory."""
    try:
        # verify=False: the point of `recover` is to *report* violations,
        # not to refuse stores whose history ran unenforced.
        store = ObjectStore.open(args.directory, verify=False)
    except ReproError as exc:
        raise SystemExit(
            f"repro: cannot open {args.directory!r}: {exc}"
        ) from exc
    try:
        info = store.recovery_info
        drifted = False
        if info is not None:
            for _, finding in info.findings:
                print(f"warning: {finding}", file=sys.stderr)
            drifted = args.command == "recover" and info.schema_drift
        violations = store.check_all()
        by_class: dict[str, int] = {}
        for obj in store.objects():
            by_class[obj.class_name] = by_class.get(obj.class_name, 0) + 1
        extents = ", ".join(
            f"{name}: {count}" for name, count in sorted(by_class.items())
        )
        print(
            f"recovered {len(store)} object(s) from {args.directory} "
            f"({extents})" if extents else
            f"recovered 0 objects from {args.directory}"
        )
        if args.command == "snapshot":
            pending = store.wal.pending_records
            store.checkpoint()
            print(
                f"checkpointed: snapshot rewritten, {pending} log record(s) "
                "compacted away"
            )
        if violations:
            print(f"{len(violations)} constraint violation(s):", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 0 if args.command == "snapshot" else 1
        print("all constraints hold")
        return 1 if (drifted and getattr(args, "strict", False)) else 0
    finally:
        store.close()


def _scrub_directory(directory: str, deep: bool) -> int:
    """Scrub one durable store directory; print the report, return the
    severity (0 clean, 1 truncatable, 2 unrecoverable)."""
    from repro.engine.wal import fsck

    report = fsck(directory)
    print(
        f"{report.path}: {report.status} — {report.frames_valid} intact log "
        f"frame(s); certified prefix holds {report.objects} object(s) "
        f"({report.replayed} op(s) replayed, {report.discarded} discarded, "
        f"{report.tail_bytes} log byte(s) beyond it)"
    )
    for finding in report.findings:
        print(f"  {finding}", file=sys.stderr)
    if deep and report.status != "fatal":
        return _deep_audit(
            lambda: ObjectStore.open(directory, verify=False), report.exit_code
        )
    return report.exit_code


def _deep_audit(open_store, severity: int) -> int:
    """``fsck --deep``: actually *open* the store and audit its constraints.
    Unlike the scrub passes this repairs on the way in (tail truncation,
    snapshot-rotation repair), exactly like any reopen.  Returns the exit
    code: ``severity`` (the scrub's), raised to 1 by violations and to 2
    when the store cannot be opened."""
    try:
        store = open_store()
    except ReproError as exc:
        print(f"deep audit: cannot open: {exc}", file=sys.stderr)
        return 2
    try:
        violations = store.check_all()
    finally:
        store.close()
    if violations:
        print(
            f"deep audit: {len(violations)} constraint violation(s):",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return max(severity, 1)
    print("deep audit: all constraints hold")
    return severity


def _run_fsck(args: argparse.Namespace) -> int:
    """``fsck``: read-only scrub of a durable store directory — shard by
    shard when it is a sharded store root (it holds a manifest or
    ``shard-*`` directories), exiting with the worst severity."""
    from repro.engine.sharding import ShardedStore, read_manifest, shard_directory

    root = Path(args.directory)
    try:
        manifest = read_manifest(root)
    except ShardingError as exc:
        print(f"repro fsck: {exc}", file=sys.stderr)
        return 2
    if manifest is not None:
        directories = [shard_directory(root, shard) for shard in range(manifest[0])]
    else:
        # No manifest: scrub whatever shard directories are on disk.
        directories = sorted(
            entry for entry in root.glob("shard-*") if entry.is_dir()
        )
    if not directories:
        return _scrub_directory(args.directory, args.deep)
    # Per-shard deep audits would resolve in-doubt two-phase prepares
    # without the other shards' decide records, so the scrub stays
    # per-directory and the deep audit (if asked) opens the store whole.
    worst = max(
        _scrub_directory(str(directory), deep=False)
        for directory in directories
    )
    if args.deep and worst < 2:
        return _deep_audit(lambda: ShardedStore.open(root, verify=False), worst)
    return worst


def _explain_demo_stores() -> "list[ObjectStore]":
    """In-memory stores violating one constraint of every class the
    evaluator distinguishes: object (``oc1``), membership (``oc2``), key
    (``cc1``), aggregate (``cc2``) and the quantified referential database
    constraint (``db1``)."""
    from repro.fixtures import bookseller_schema, cslibrary_schema

    library = ObjectStore(cslibrary_schema(), enforce=False)
    common = dict(publisher="ACM", shopprice=50.0, ourprice=40.0)
    library.insert("Publication", title="Duplicate A", isbn="X", **common)
    library.insert("Publication", title="Duplicate B", isbn="X", **common)
    library.insert(  # oc1: ourprice <= shopprice
        "Publication", title="Overpriced", isbn="Y",
        publisher="ACM", shopprice=50.0, ourprice=60.0,
    )
    library.insert(  # oc2: publisher in KNOWNPUBLISHERS
        "Publication", title="Obscure", isbn="Z",
        publisher="Nobody Press", shopprice=50.0, ourprice=40.0,
    )
    library.insert(  # cc2: sum over ourprice < MAX (MAX = 100000)
        "Publication", title="Priceless", isbn="W",
        publisher="ACM", shopprice=99999.0, ourprice=99999.0,
    )

    seller = ObjectStore(bookseller_schema(), enforce=False)
    referenced = seller.insert("Publisher", name="Referenced", location="NY")
    seller.insert("Publisher", name="Ghost", location="Nowhere")  # db1
    seller.insert(
        "Item", title="Book", isbn="1", publisher=referenced,
        authors=frozenset({"a"}), shopprice=50.0, libprice=45.0,
    )
    return [library, seller]


def _run_explain(args: argparse.Namespace) -> int:
    """``explain``: subset-minimal conflict cores for a store's violations."""
    if args.demo:
        stores = _explain_demo_stores()
    else:
        if not args.directory:
            raise SystemExit("repro: explain needs a store directory (or --demo)")
        try:
            store = ObjectStore.open(args.directory, verify=False)
        except ReproError as exc:
            raise SystemExit(
                f"repro: cannot open {args.directory!r}: {exc}"
            ) from exc
        stores = [store]
    try:
        total_violations = 0
        total_cores = 0
        for store in stores:
            violations = store.audit()
            if not violations:
                continue
            total_violations += len(violations)
            cores = store.explain_violations(violations)
            total_cores += len(cores)
            print(
                f"{store.schema.name}: {len(violations)} violation(s), "
                f"{len(cores)} conflict core(s)"
            )
            for index, core in enumerate(cores, start=1):
                print(f"\ncore {index} — ", end="")
                print(core.describe())
                if args.trace and core.trace is not None:
                    print("  isolated-check trace:")
                    for line in core.trace.describe().splitlines():
                        print(f"    {line}")
        if total_violations == 0:
            print("all constraints hold — nothing to explain")
            return 0
        print(
            f"\n{total_violations} violation(s) explained by "
            f"{total_cores} subset-minimal conflict core(s); removing any "
            "one member of a core resolves that core's conflict"
        )
        return 1
    finally:
        for store in stores:
            store.close()


def _run_lint(args: argparse.Namespace) -> int:
    """``lint``: static analysis of TM schema files (exit 0/1/2)."""
    import json

    from repro.constraints.analysis import AnalysisReport, analyze_schema, summarize

    reports: dict[str, AnalysisReport] = {}
    for path in args.files:
        source = _read(path, "schema")
        try:
            schema = parse_database(source)
        except ReproError as exc:
            raise SystemExit(f"repro: cannot parse {path!r}: {exc}") from exc
        reports[path] = analyze_schema(schema, include_info=not args.no_info)
    if args.format == "json":
        print(json.dumps(summarize(reports), indent=2, sort_keys=True))
    else:
        for index, (path, report) in enumerate(reports.items()):
            if index:
                print()
            print(f"== {path} ==")
            print(report.render_text())
    return max((report.exit_code() for report in reports.values()), default=0)


def _stress_shard_source(classes: int) -> str:
    """A TM schema of ``classes`` reference-free classes, one per shard:
    the placement planner pins ``S<i>`` to shard ``i``, so single-object
    commits are shard-local and multi-class transactions exercise the
    two-phase commit."""
    parts = ["Database StressShards\n"]
    for index in range(classes):
        parts.append(
            f"\nClass S{index}\n"
            "attributes\n"
            "  name      : string\n"
            "  shopprice : real\n"
            "  ourprice  : real\n"
            "object constraints\n"
            f"  oc{index}: ourprice <= shopprice\n"
            "class constraints\n"
            f"  cc{index}: key name\n"
            f"end S{index}\n"
        )
    return "".join(parts)


def _run_stress(args: argparse.Namespace) -> int:
    """``stress``: hammer one shared store — an :class:`ObjectStore`, or
    with ``--shards N`` a :class:`~repro.engine.sharding.ShardedStore` —
    with writer threads committing single updates plus a two-object
    transaction every 16th step (a two-phase commit across shards), and
    reader threads scanning lock-free snapshots; then audit the result.  A
    sharded run also reports the router's op counters and each shard's
    group-commit telemetry."""
    import threading
    import time

    from repro.engine.sharding import ShardedStore

    shards = args.shards
    if shards is not None and shards < 1:
        raise SystemExit("repro: --shards must be at least 1")
    classes = [f"S{index}" for index in range(shards or 1)]
    schema = parse_database(_stress_shard_source(len(classes)))

    def open_store(*schema_args):
        if shards is None:
            return ObjectStore.open(args.dir, *schema_args, sync=args.sync)
        return ShardedStore.open(args.dir, *schema_args, shards=shards, sync=args.sync)

    if args.dir:
        # Re-running against the same directory recovers the previous
        # population (the snapshot carries the schema) instead of
        # colliding with it on the name key constraint.
        try:
            store = open_store()
        except ReproError:
            try:
                store = open_store(schema)
            except ReproError as exc:
                raise SystemExit(
                    f"repro: cannot open stress store at {args.dir!r}: {exc}"
                ) from exc
    elif args.sync:
        raise SystemExit("repro: --sync requires --dir (a durable store)")
    elif shards is None:
        store = ObjectStore(schema, wal=False)
    else:
        store = ShardedStore(schema, shards)
    try:
        for index in range(len(store), args.objects):
            store.insert(
                classes[index % len(classes)],
                name=f"Obj {index}",
                shopprice=50.0,
                ourprice=45.0,
            )
    except ReproError as exc:
        store.close()
        raise SystemExit(
            f"repro: cannot populate the stress store: {exc}"
        ) from exc
    # A sharded store's merged object table orders by insertion counter
    # then shard, so adjacent targets live on different shards — the
    # transaction step below pairs neighbours to guarantee a two-phase
    # commit.
    targets = [obj.oid for obj in store.objects()]
    if not targets:
        store.close()
        raise SystemExit("repro: --objects must be at least 1")

    stop = threading.Event()
    commits = [0] * args.writers
    reads = [0] * args.readers
    failures: list[BaseException] = []

    def writer(slot: int) -> None:
        step = 0
        try:
            while not stop.is_set():
                index = (slot + step * args.writers) % len(targets)
                price = 40.0 + (step % 10)  # stays under shopprice (50.0)
                if step % 16 == 15 and len(targets) > 1:
                    neighbour = targets[(index + 1) % len(targets)]
                    with store.transaction():
                        store.update(targets[index], ourprice=price)
                        store.update(neighbour, ourprice=price)
                else:
                    store.update(targets[index], ourprice=price)
                commits[slot] += 1
                step += 1
        except BaseException as exc:  # surface, don't swallow
            failures.append(exc)

    def reader(slot: int) -> None:
        try:
            while not stop.is_set():
                with store.snapshot() as snap:
                    total = 0.0
                    for name in classes:
                        for obj in snap.extent(name):
                            total += obj.state["ourprice"]
                    assert total >= 0.0
                reads[slot] += 1
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=writer, args=(slot,), daemon=True)
        for slot in range(args.writers)
    ] + [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(args.readers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(args.seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - started

    total_commits = sum(commits)
    total_reads = sum(reads)
    across = "" if shards is None else f" across {shards} shard(s)"
    print(
        f"{args.writers} writer(s) committed {total_commits} operation(s) "
        f"({total_commits / elapsed:.0f}/s), {args.readers} reader(s) took "
        f"{total_reads} snapshot scan(s) ({total_reads / elapsed:.0f}/s) "
        f"over {len(store)} object(s){across} in {elapsed:.2f}s"
    )
    if shards is None:
        if store.wal is not None and store.wal.sync_commits:
            wal = store.wal
            print(
                f"group commit: {wal.fsyncs} fsync(s) for {wal.sync_commits} "
                f"durable commit(s) — {wal.fsyncs / wal.sync_commits:.3f} "
                "fsyncs/commit"
            )
    else:
        print(
            f"router: {store.fast_path_ops} fast-path op(s), "
            f"{store.routed_global_ops} routed op(s), "
            f"{store.two_phase_commits} two-phase commit(s)"
        )
        for row in store.shard_stats():
            line = f"shard {row['shard']}: {row['objects']} object(s)"
            if "fsyncs" in row:
                line += (
                    f", {row['fsyncs']} fsync(s) for {row['sync_commits']} "
                    f"durable commit(s) — {row['fsyncs_per_commit']:.3f} "
                    f"fsyncs/commit, mean batch {row['mean_batch']:.2f}"
                )
            print(line)
    for exc in failures:
        print(f"thread failed: {exc!r}", file=sys.stderr)
    violations = store.check_all()
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    store.close()
    if failures or violations:
        return 1
    print("all constraints hold")
    return 0


def _run_serve(args) -> int:
    """``repro serve``: the asyncio multi-tenant server, in the foreground.

    SIGINT/SIGTERM (or ``--seconds``) trigger the clean shutdown path:
    connections drained, open transactions rolled back, every tenant store
    checkpointed and closed.
    """
    import asyncio
    import contextlib
    import signal

    from repro.server import ReproServer, ServerConfig

    if args.sync and not args.root:
        print("repro serve: --sync requires --root", file=sys.stderr)
        return 2

    config = ServerConfig(
        host=args.host,
        port=args.port,
        root=args.root,
        sync=args.sync,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        idle_timeout=args.idle_timeout,
    )

    async def run() -> int:
        server = ReproServer(config)
        host, port = await server.start()
        where = (
            f"durable tenants under {args.root}"
            if args.root
            else "in-memory tenants"
        )
        print(f"repro server listening on {host}:{port} ({where})")
        if args.port_file:
            Path(args.port_file).write_text(f"{port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, server.request_stop)
        if args.seconds is not None:
            loop.call_later(args.seconds, server.request_stop)
        await server.serve_forever()
        print("repro server: clean shutdown (tenant stores checkpointed)")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # fallback when signal handlers can't install
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Integrity-constraint-aware database interoperation "
        "(Vermeer & Apers, VLDB 1996)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="print the full workbench report")
    _add_common(report)

    validate = commands.add_parser(
        "validate", help="exit 1 if the specification causes conflicts"
    )
    _add_common(validate)

    commands.add_parser("demo", help="run the built-in Figure 1 scenario")

    scaffold = commands.add_parser(
        "scaffold",
        help="write the built-in Figure 1 schemas and spec to a directory",
    )
    scaffold.add_argument(
        "directory", help="target directory (created if missing)"
    )
    scaffold.add_argument(
        "--force",
        action="store_true",
        help="overwrite files that already exist in the target directory",
    )

    recover = commands.add_parser(
        "recover",
        help="recover a durable store (snapshot + write-ahead log) and "
        "audit its constraints",
    )
    recover.add_argument(
        "directory", help="durable store directory (snapshot.json + wal.jsonl)"
    )
    recover.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the log tail carries schema-change "
        "records newer than the snapshot (schema drift)",
    )

    snapshot = commands.add_parser(
        "snapshot",
        help="checkpoint a durable store: write a fresh snapshot and "
        "compact its write-ahead log",
    )
    snapshot.add_argument(
        "directory", help="durable store directory (snapshot.json + wal.jsonl)"
    )

    fsck = commands.add_parser(
        "fsck",
        help="scrub a durable store without opening it for writing: CRC "
        "frames, snapshot digests, replay certification (exit 0 clean, "
        "1 truncatable damage, 2 unrecoverable)",
    )
    fsck.add_argument(
        "directory",
        help="durable store directory (snapshot.json + wal.jsonl), or a "
        "sharded store root: every shard directory is scrubbed and the "
        "worst severity is the exit code",
    )
    fsck.add_argument(
        "--deep",
        action="store_true",
        help="additionally open the recoverable prefix and audit its "
        "constraints (repairs the directory on the way in, like any reopen; "
        "a sharded root is opened whole, so in-doubt two-phase prepares "
        "resolve against every shard's log)",
    )

    explain = commands.add_parser(
        "explain",
        help="audit a durable store and print a subset-minimal conflict "
        "core for every violation (which objects force it, and why)",
    )
    explain.add_argument(
        "directory", nargs="?", default=None,
        help="durable store directory (snapshot.json + wal.jsonl)",
    )
    explain.add_argument(
        "--demo", action="store_true",
        help="explain an in-memory store violating one constraint of "
        "every class (object, key, aggregate, referential)",
    )
    explain.add_argument(
        "--trace", action="store_true",
        help="also print the reason trace of each isolated core check",
    )

    lint = commands.add_parser(
        "lint",
        help="statically analyse TM schema files: type lint with file "
        "positions, per-constraint satisfiability, cross-constraint "
        "contradiction and redundancy detection (exit 0 clean, 1 "
        "warnings, 2 errors)",
    )
    lint.add_argument(
        "files", nargs="+", metavar="FILE", help="TM schema file(s) to analyse"
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--no-info", action="store_true",
        help="suppress info-level diagnostics (tautologies, honest unknowns)",
    )

    stress = commands.add_parser(
        "stress",
        help="hammer one store with concurrent writer and snapshot-reader "
        "threads, then audit it",
    )
    stress.add_argument(
        "--writers", type=int, default=2, help="writer threads (default 2)"
    )
    stress.add_argument(
        "--readers", type=int, default=4,
        help="snapshot-reader threads (default 4)",
    )
    stress.add_argument(
        "--seconds", type=float, default=2.0,
        help="how long to run (default 2)",
    )
    stress.add_argument(
        "--objects", type=int, default=1_000,
        help="store population (default 1000)",
    )
    stress.add_argument(
        "--dir", default=None,
        help="durable store directory (default: in-memory)",
    )
    stress.add_argument(
        "--sync", action="store_true",
        help="fsync at commit points (group commit; requires --dir)",
    )
    stress.add_argument(
        "--shards", type=int, default=None,
        help="run against a ShardedStore with this many shard cores: "
        "shard-local commits plus periodic cross-shard (two-phase) "
        "transactions, with per-shard group-commit stats",
    )

    serve = commands.add_parser(
        "serve",
        help="serve stores over TCP: a multi-tenant asyncio server "
        "speaking the repro wire protocol (connect with repro.client)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=7707,
        help="bind port; 0 picks an ephemeral one (default 7707)",
    )
    serve.add_argument(
        "--root", default=None,
        help="directory for durable tenant stores under ROOT/<tenant>/ "
        "(default: tenants are in-memory)",
    )
    serve.add_argument(
        "--sync", action="store_true",
        help="fsync every commit instead of group commit (requires --root)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=64,
        help="admission limit; surplus connections get a retryable "
        "rejection frame (default 64)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="concurrently executing store operations across all "
        "connections; 0 disables the cap (default 32)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=300.0,
        help="checkpoint and close tenant stores unleased for this many "
        "seconds; 0 disables eviction (default 300)",
    )
    serve.add_argument(
        "--port-file", default=None,
        help="write the bound port to this file once listening (for "
        "scripts wrapping --port 0)",
    )
    serve.add_argument(
        "--seconds", type=float, default=None,
        help="serve for this long, then shut down cleanly (default: "
        "until SIGINT/SIGTERM)",
    )

    args = parser.parse_args(argv)

    if args.command == "serve":
        return _run_serve(args)

    if args.command in ("recover", "snapshot"):
        return _run_durable_command(args)

    if args.command == "fsck":
        return _run_fsck(args)

    if args.command == "explain":
        return _run_explain(args)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "stress":
        return _run_stress(args)

    if args.command == "scaffold":
        from repro.fixtures.schemas import bookseller_source, cslibrary_source
        from repro.fixtures.spec_source import LIBRARY_SPEC_SOURCE

        target = Path(args.directory)
        written, skipped = [], []
        try:
            target.mkdir(parents=True, exist_ok=True)
            for name, text in (
                ("cslibrary.tm", cslibrary_source()),
                ("bookseller.tm", bookseller_source()),
                ("library.spec", LIBRARY_SPEC_SOURCE),
            ):
                path = target / name
                if path.exists() and not args.force:
                    skipped.append(str(path))
                    continue
                path.write_text(text.strip() + "\n")
                written.append(str(path))
        except OSError as exc:
            raise SystemExit(
                f"repro: cannot scaffold into {args.directory!r}: {exc}"
            ) from exc
        if written:
            print("wrote " + ", ".join(written))
        if skipped:
            print(
                "kept existing " + ", ".join(skipped) + " (use --force to overwrite)"
            )
        paths = [str(target / n) for n in ("cslibrary.tm", "bookseller.tm", "library.spec")]
        print(
            f"try: python -m repro report --local {paths[0]} "
            f"--remote {paths[1]} --spec {paths[2]}"
        )
        return 0

    if args.command == "demo":
        local_store, _ = cslibrary_store()
        remote_store, _ = bookseller_store()
        result = IntegrationWorkbench(
            library_integration_spec(), local_store, remote_store
        ).run()
        print(render_report(result))
        return 0

    result = _load_result(args)
    if args.command == "report":
        print(render_report(result))
        return 0
    # validate
    if result.is_consistent():
        print("specification is consistent with the component constraints")
        return 0
    print(render_report(result))
    print(
        f"INCONSISTENT: {result.conflict_count()} conflict(s); "
        f"{len(result.suggestions)} suggestion(s) available",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
