"""Property tests for explainable violations (repro.engine.explain).

Three properties, each proved over random schemas' instances and histories:

1. **Cores conflict in isolation** — every reported conflict core, checked
   by an *independent* masked evaluator built in this file (not the one in
   ``repro.engine.explain``), still violates its constraint when the store
   is restricted to exactly the core's members.
2. **Subset-minimality** — removing any single member of a core resolves
   the conflict on the restricted view.
3. **Traced ≡ untraced** — evaluation with reason tracing produces
   bit-identical verdicts (value *and* type, including the ``VACUOUS``
   sentinel) and identical errors, across indexed contexts, scan contexts
   (``indexes=None``), the scan-only oracle, MVCC snapshot contexts, and
   with ``REPRO_WAL=1``.

Plus regressions: vacuous/tri-state verdicts carry a non-empty well-formed
trace; ``EvaluationError`` carries the quantifier bindings in scope; the
commit/rollback path attaches cores *before* the undo destroys the violating
state; and the ``repro explain`` CLI covers every violation class.

Shrink probes answer aggregates from frozen columns; a Hypothesis oracle
holds them to the scan semantics the traced path keeps, a cost guard counts
store reads per extraction, and contention tests prove extraction runs under
the writer lock(s).  Monotone aggregate violations get closed-form cores:
Hypothesis holds them to the same isolation and minimality properties in
O(log n) probes, and shows every other aggregate shape still shrinks.
"""

import math
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ObjectStore
from repro.constraints.evaluate import (
    INDEX_MISS,
    VACUOUS,
    EvalContext,
    ReasonTrace,
    TraceEvent,
    compiled,
    evaluate,
    evaluate_traced,
)
from repro.constraints.model import ConstraintKind
from repro.engine import ShardedStore
from repro.engine import explain
from repro.engine.oracle import Oracle
from repro.engine.explain import FrozenView, constraint_conflicts, masked_context
from repro.errors import ConstraintViolation, EngineError, EvaluationError
from repro.tm.parser import parse_database

EXPLAINLAB_SOURCE = """
Database ExplainLab

constants
  MAX = 100
  LIMIT = 3

Class Publisher
attributes
  name : string
end Publisher

Class Item
attributes
  title     : string
  isbn      : string
  price     : int
  publisher : Publisher
object constraints
  oc_price: price >= 0
class constraints
  cc_key: key isbn
  cc_sum: (sum (collect x for x in self) over price) < MAX
end Item

Class Special isa Item
attributes
  grade : int
end Special

Database constraints
  db_ref: forall p in Publisher exists i in Item | i.publisher = p
  db_grade: forall s in Special | s.grade <= LIMIT
"""


def explainlab_schema():
    return parse_database(EXPLAINLAB_SOURCE)


TRACE_KINDS = {
    "attr",
    "constant",
    "probe",
    "extent",
    "binding",
    "member",
    "error",
}


# ---------------------------------------------------------------------------
# random histories
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("pub")),
        st.tuples(
            st.just("item"),
            st.integers(0, 3),
            st.integers(-2, 60),
            st.integers(0, 2),
        ),
        st.tuples(
            st.just("special"),
            st.integers(0, 3),
            st.integers(0, 60),
            st.integers(0, 2),
            st.integers(0, 6),
        ),
        st.tuples(st.just("del_pub"), st.integers(0, 3)),
        st.tuples(st.just("del_item"), st.integers(0, 3)),
        st.tuples(st.just("set_price"), st.integers(0, 3), st.integers(-2, 60)),
    ),
    max_size=10,
)


def build_store(ops, factory=ObjectStore):
    """Replay a random history on a non-enforcing ExplainLab store (or
    another ``factory``, such as the oracle).

    Deletions may leave dangling references and unreferenced publishers —
    deliberately: that is how the error-mode cores get exercised."""
    store = factory(explainlab_schema(), enforce=False)
    pubs: list = []
    items: list = []
    for op in ops:
        kind = op[0]
        if kind == "pub":
            pubs.append(store.insert("Publisher", name=f"P{len(pubs)}"))
        elif kind == "item":
            if not pubs:
                continue
            _, p, price, isbn = op
            items.append(
                store.insert(
                    "Item",
                    title=f"t{len(items)}",
                    isbn=f"i{isbn}",
                    price=price,
                    publisher=pubs[p % len(pubs)],
                )
            )
        elif kind == "special":
            if not pubs:
                continue
            _, p, price, isbn, grade = op
            items.append(
                store.insert(
                    "Special",
                    title=f"s{len(items)}",
                    isbn=f"i{isbn}",
                    price=price,
                    publisher=pubs[p % len(pubs)],
                    grade=grade,
                )
            )
        elif kind == "del_pub":
            if not pubs:
                continue
            store.delete(pubs.pop(op[1] % len(pubs)))
        elif kind == "del_item":
            if not items:
                continue
            store.delete(items.pop(op[1] % len(items)))
        elif kind == "set_price":
            if not items:
                continue
            try:
                store.update(items[op[1] % len(items)], price=op[2])
            except EngineError:
                # updating an object whose reference dangles re-validates
                # its full state; keep the dangling state as-is instead
                pass
    return store


# ---------------------------------------------------------------------------
# an independent masked evaluator (deliberately NOT repro.engine.explain)
# ---------------------------------------------------------------------------


def _masked_ctx(store, keep, current=None, self_class=None):
    extents = {
        name: [obj for obj in store.extent(name) if obj.oid in keep]
        for name in store.schema.classes
    }

    def get_attr(obj, name):
        value = store.get_attr(obj, name)
        target = getattr(value, "oid", None)
        if isinstance(target, str) and target not in keep:
            raise EngineError(f"masked reference {name!r} -> {target!r}")
        return value

    return EvalContext(
        current=current,
        extents=extents,
        self_extent=extents.get(self_class, ()) if self_class else (),
        self_extent_class=self_class,
        constants=store.schema.constants,
        get_attr=get_attr,
        indexes=None,
    )


def violated_in_isolation(store, constraint, keep, errors_conflict) -> bool:
    """Ground truth: does ``constraint`` fail on the sub-store ``keep``?

    Mirrors the documented core semantics — falsy verdicts always conflict;
    evaluation failures conflict only for cores born from an error — but is
    implemented from scratch on a hand-built :class:`EvalContext`."""
    keep = frozenset(keep)
    formula = constraint.formula
    if constraint.kind is ConstraintKind.OBJECT:
        for obj in store.extent(constraint.owner):
            if obj.oid not in keep:
                continue
            try:
                verdict = evaluate(formula, _masked_ctx(store, keep, current=obj))
            except (EvaluationError, EngineError):
                if errors_conflict:
                    return True
                continue
            if not verdict:
                return True
        return False
    self_class = (
        constraint.owner if constraint.kind is ConstraintKind.CLASS else None
    )
    try:
        verdict = evaluate(
            formula, _masked_ctx(store, keep, self_class=self_class)
        )
    except (EvaluationError, EngineError):
        return errors_conflict
    return not verdict


# ---------------------------------------------------------------------------
# property 1 + 2: cores conflict in isolation and are subset-minimal
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_cores_conflict_in_isolation_and_are_subset_minimal(ops):
    store = build_store(ops)
    try:
        violations = store.audit()
        cores = store.explain_violations(violations)
        if violations:
            assert cores, "every audited violation must yield a core"
        for core in cores:
            constraint = core.constraint
            assert constraint is not None
            keep = frozenset(core.oids())
            errors_conflict = core.verdict == "error"
            # (1) the core still conflicts in isolation
            assert violated_in_isolation(
                store, constraint, keep, errors_conflict
            ), f"core {sorted(keep)} of {core.constraint_name} does not conflict"
            # (2) removing any single member resolves the conflict
            assert core.minimal, "shrink budget must suffice at this scale"
            for member in sorted(keep):
                assert not violated_in_isolation(
                    store, constraint, keep - {member}, errors_conflict
                ), (
                    f"core {sorted(keep)} of {core.constraint_name} is not "
                    f"minimal: still conflicts without {member}"
                )
    finally:
        store.close()


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_core_members_carry_explanations(ops):
    """Core metadata is well-formed: members name live objects of the right
    class, describe() renders, and the isolated trace covers the members."""
    store = build_store(ops)
    try:
        for core in store.explain_violations():
            text = core.describe()
            assert core.constraint_name in text
            for member in core.members:
                obj = store.get(member.oid)
                assert obj.class_name == member.class_name
                assert isinstance(member.describe(), str)
            assert all(
                event.kind in TRACE_KINDS for event in core.trace.events
            )
    finally:
        store.close()


# ---------------------------------------------------------------------------
# property 3: traced ≡ untraced, bit-identically
# ---------------------------------------------------------------------------


def _canon(value):
    return ("value", type(value).__name__, value)


def _outcome(formula, make_ctx, trace=None):
    try:
        if trace is None:
            return _canon(evaluate(formula, make_ctx()))
        verdict, _ = evaluate_traced(formula, make_ctx(), trace)
        return _canon(verdict)
    except (EvaluationError, EngineError) as exc:
        return ("error", type(exc).__name__, str(exc))


def _eval_points(constraint, extent_of):
    """(current, self_extent_class) pairs a constraint is evaluated at."""
    if constraint.kind is ConstraintKind.OBJECT:
        return [(obj, None) for obj in extent_of(constraint.owner)]
    if constraint.kind is ConstraintKind.CLASS:
        return [(None, constraint.owner)]
    return [(None, None)]


def _assert_store_equivalence(store):
    for constraint in store.schema.all_constraints():
        for scan in (False, True):
            for current, self_class in _eval_points(constraint, store.extent):

                def make_ctx():
                    ctx = store.eval_context(
                        current=current, self_extent_class=self_class
                    )
                    if scan:
                        ctx.indexes = None
                    return ctx

                trace = ReasonTrace()
                untraced = _outcome(constraint.formula, make_ctx)
                traced = _outcome(constraint.formula, make_ctx, trace)
                assert traced == untraced, (
                    f"{constraint.qualified_name} (scan={scan}, "
                    f"current={getattr(current, 'oid', None)}): "
                    f"traced {traced!r} != untraced {untraced!r}"
                )
                assert all(
                    isinstance(event, TraceEvent)
                    and event.kind in TRACE_KINDS
                    for event in trace.events
                )


@settings(max_examples=50, deadline=None)
@given(ops=OPS)
def test_traced_equals_untraced_verdicts(ops):
    store = build_store(ops)
    try:
        _assert_store_equivalence(store)
    finally:
        store.close()


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_traced_equals_untraced_on_the_oracle(ops):
    _assert_store_equivalence(build_store(ops, factory=Oracle))


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_audit_and_cores_match_the_oracle(ops):
    store = build_store(ops)
    oracle = build_store(ops, factory=Oracle)
    try:
        violations = store.audit()
        assert violations == oracle.audit()
        assert [
            (core.constraint_name, core.oids(), core.verdict)
            for core in store.explain_violations(violations)
        ] == [
            (core.constraint_name, core.oids(), core.verdict)
            for core in oracle.explain_violations(violations)
        ]
    finally:
        store.close()


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_traced_equals_untraced_under_snapshot(ops):
    store = build_store(ops)
    try:
        with store.snapshot() as snap:
            extents = {
                name: snap.extent(name) for name in store.schema.classes
            }

            def snap_extent(class_name):
                return extents[class_name]

            for constraint in store.schema.all_constraints():
                for current, self_class in _eval_points(
                    constraint, snap_extent
                ):

                    def make_ctx():
                        return EvalContext(
                            current=current,
                            extents=extents,
                            self_extent=(
                                extents[self_class] if self_class else ()
                            ),
                            self_extent_class=self_class,
                            constants=store.schema.constants,
                            get_attr=snap.get_attr,
                            indexes=None,
                        )

                    trace = ReasonTrace()
                    untraced = _outcome(constraint.formula, make_ctx)
                    traced = _outcome(constraint.formula, make_ctx, trace)
                    assert traced == untraced, (
                        f"{constraint.qualified_name} under snapshot: "
                        f"traced {traced!r} != untraced {untraced!r}"
                    )
    finally:
        store.close()


@settings(max_examples=20, deadline=None)
@given(ops=OPS)
def test_traced_equals_untraced_with_wal(ops):
    """Same equivalence with REPRO_WAL=1: every store gets a throwaway
    write-ahead log, so tracing is proved inert for the durability path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_WAL", "1")
        store = build_store(ops)
        try:
            _assert_store_equivalence(store)
            violations = store.audit()
            cores = store.explain_violations(violations)
            if violations:
                assert cores
        finally:
            store.close()


# ---------------------------------------------------------------------------
# regression: vacuous / tri-state verdicts carry a well-formed trace
# ---------------------------------------------------------------------------

VACLAB_SOURCE = """
Database VacLab

Class Thing
attributes
  score : int
class constraints
  cc_vac: (avg (collect x for x in self) over score) > 5 and
          (count (collect x for x in self)) >= 1
end Thing

Class Other
attributes
  tag : string
end Other
"""


def test_vacuous_verdict_violation_carries_trace():
    """An empty extent makes the avg conjunct VACUOUS and the count
    conjunct False; the audit violation must still carry a trace whose
    events show *why* (the empty extent scans that produced it)."""
    store = ObjectStore(parse_database(VACLAB_SOURCE), enforce=False)
    violations = store.audit()
    assert [v.constraint_name for v in violations] == ["VacLab.Thing.cc_vac"]
    trace = violations[0].trace
    assert trace is not None and trace.events, "vacuous verdict lost its trace"
    assert all(event.kind in TRACE_KINDS for event in trace.events)
    # indexed stores answer the empty-extent aggregates with probes; scan
    # contexts record the extent sweep itself — either is evidence
    assert any(event.kind in ("extent", "probe") for event in trace.events)
    assert isinstance(trace.describe(), str) and trace.describe()
    # the traced verdict is bit-identical to the untraced one (False, not
    # VACUOUS: the conjunction collapses the tri-state)
    constraint = next(iter(store.schema.all_constraints()))
    ctx = store.eval_context(self_extent_class="Thing")
    verdict, _ = evaluate_traced(constraint.formula, ctx)
    assert verdict is False or verdict == evaluate(
        constraint.formula,
        store.eval_context(self_extent_class="Thing"),
    )


def test_vacuous_verdict_raise_carries_trace():
    """The *raised* ConstraintViolation (enforcing store, full revalidation
    triggered by an unrelated insert) carries the vacuous-verdict trace."""
    store = ObjectStore(parse_database(VACLAB_SOURCE))
    with pytest.raises(ConstraintViolation) as excinfo:
        store.insert("Other", tag="unrelated")
    violation = next(
        v
        for v in excinfo.value.violations
        if v.constraint_name.endswith("cc_vac")
    )
    assert violation.trace is not None and violation.trace.events
    assert any(
        event.kind in ("extent", "probe") for event in violation.trace.events
    )


def test_vacuous_aggregate_alone_is_not_a_violation():
    """Control: a lone vacuous aggregate comparison is truthy (tri-state),
    so an empty extent with only the avg conjunct audits clean."""
    source = VACLAB_SOURCE.replace(
        "cc_vac: (avg (collect x for x in self) over score) > 5 and\n"
        "          (count (collect x for x in self)) >= 1",
        "cc_vac: (avg (collect x for x in self) over score) > 5",
    )
    store = ObjectStore(parse_database(source), enforce=False)
    assert store.audit() == []
    constraint = next(iter(store.schema.all_constraints()))
    verdict, trace = evaluate_traced(
        constraint.formula, store.eval_context(self_extent_class="Thing")
    )
    assert verdict is VACUOUS
    assert trace.events, "even a vacuous success records its extent scan"


# ---------------------------------------------------------------------------
# regression: EvaluationError carries the bindings in scope
# ---------------------------------------------------------------------------

ERRLAB_SOURCE = """
Database ErrLab

Class Thing
attributes
  score : int
  label : string
end Thing

Database constraints
  db_bad: forall t in Thing | t.score + t.label > 0
"""


def test_evaluation_error_carries_bindings():
    store = ObjectStore(parse_database(ERRLAB_SOURCE), enforce=False)
    thing = store.insert("Thing", score=1, label="x")
    constraint = store.schema.database_constraints[0]
    trace = ReasonTrace()
    with pytest.raises(EvaluationError) as excinfo:
        evaluate_traced(constraint.formula, store.eval_context(), trace)
    bindings = dict(excinfo.value.bindings)
    assert bindings.get("t") == thing.oid, (
        "the error must name the quantifier binding that was in scope"
    )
    # the partial trace survives the raise: the reads up to the failure
    assert any(
        event.kind == "attr" and event.subject == thing.oid
        for event in trace.events
    )
    assert thing.oid in trace.support()


def test_audit_error_violation_carries_error_trace():
    store = ObjectStore(parse_database(ERRLAB_SOURCE), enforce=False)
    thing = store.insert("Thing", score=1, label="x")
    violations = store.audit()
    assert [v.constraint_name for v in violations] == ["ErrLab.db_bad"]
    trace = violations[0].trace
    assert trace is not None
    assert any(event.kind == "error" for event in trace.events)
    assert thing.oid in trace.support()
    cores = store.explain_violations(violations)
    assert len(cores) == 1 and cores[0].verdict == "error"
    assert cores[0].oids() == (thing.oid,)


# ---------------------------------------------------------------------------
# commit / rollback wiring
# ---------------------------------------------------------------------------


def test_transaction_rejection_carries_cores_before_rollback():
    store = ObjectStore(explainlab_schema())
    with store.transaction():
        publisher = store.insert("Publisher", name="Referenced")
        store.insert(
            "Item", title="t", isbn="a", price=1, publisher=publisher
        )
    with pytest.raises(ConstraintViolation) as excinfo:
        with store.transaction():
            store.insert("Publisher", name="Ghost")
    exc = excinfo.value
    assert exc.violations, "transaction rejection must list violations"
    assert exc.cores, "cores must be extracted before the rollback undo"
    core_oids = {m.oid for core in exc.cores for m in core.members}
    ghost = {oid for oid in core_oids if oid not in store._objects}
    assert ghost, "the core must name the rolled-back ghost publisher"
    assert store.audit() == [], "rollback restored the consistent state"


def test_single_op_rejection_carries_trace():
    store = ObjectStore(explainlab_schema())
    with store.transaction():
        publisher = store.insert("Publisher", name="P")
        store.insert(
            "Item", title="t", isbn="a", price=1, publisher=publisher
        )
    with pytest.raises(ConstraintViolation) as excinfo:
        store.insert(
            "Item", title="bad", isbn="b", price=-5, publisher=publisher
        )
    exc = excinfo.value
    assert exc.trace is not None and exc.trace.events
    assert any(
        event.kind == "attr" and event.detail == "price"
        for event in exc.trace.events
    )
    assert store.audit() == []


# ---------------------------------------------------------------------------
# CLI: repro explain
# ---------------------------------------------------------------------------


def test_cli_explain_demo_covers_every_violation_class(capsys):
    from repro.cli import main

    code = main(["explain", "--demo"])
    out = capsys.readouterr().out
    assert code == 1
    # object, membership, key, aggregate, referential/quantified
    for name in ("oc1", "oc2", "cc1", "cc2", "db1"):
        assert name in out, f"demo must produce a core for {name}"
    assert "removing any one member" in out


def test_cli_explain_demo_trace_flag(capsys):
    from repro.cli import main

    code = main(["explain", "--demo", "--trace"])
    out = capsys.readouterr().out
    assert code == 1
    assert "isolated-check trace:" in out


def test_cli_explain_durable_store(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "db"
    store = ObjectStore.open(path, schema=explainlab_schema(), enforce=False)
    store.insert("Publisher", name="Ghost")
    store.close()
    code = main(["explain", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "db_ref" in out and "conflict core" in out


def test_cli_explain_clean_store(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "db"
    store = ObjectStore.open(path, schema=explainlab_schema(), enforce=False)
    publisher = store.insert("Publisher", name="P")
    store.insert("Item", title="t", isbn="a", price=1, publisher=publisher)
    store.close()
    code = main(["explain", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "nothing to explain" in out


# ---------------------------------------------------------------------------
# column-answered shrink probes ≡ scan semantics
# ---------------------------------------------------------------------------

COLUMNLAB_SOURCE = """
Database ColumnLab

constants
  MAX = 1

Class Tag
attributes
  label : string
end Tag

Class Row
attributes
  v   : real
  s   : string
  tag : Tag
class constraints
  c_sum: (sum (collect x for x in self) over v) < MAX
  c_avg: (avg (collect x for x in self) over v) < MAX
  c_min: (min (collect x for x in self) over v) < MAX
  c_max: (max (collect x for x in self) over v) < MAX
  c_count: (count (collect x for x in self) over v) < 3
  c_count_all: (count (collect x for x in self)) < 3
  c_s_min: (min (collect x for x in self) over s) = "a"
  c_s_sum: (sum (collect x for x in self) over s) < MAX
  c_tag_count: (count (collect x for x in self) over tag) < 3
  c_tag_max: (max (collect x for x in self) over tag) = MAX
end Row

Database constraints
  d_sum: (sum (collect x for x in Row) over v) < MAX
"""

#: A float fold in insertion order gives 0.0 (1e16 absorbs the 1.0), one
#: with the big terms cancelling first gives 1.0, which flips ``sum < MAX``;
#: the exact sum every path computes is 1.0 whatever the order.
FLOAT_ORDER = [(1e16, "a", 0), (1.0, "b", 0), (-1e16, "c", 1)]
#: The converse: 1.0 folded in insertion order, 0.0 in sorted order.
FLOAT_ORDER_SORTED_FLIPS = [(-1e16, "a", 0), (1e16, "b", 1), (1.0, "c", 0)]

ROWS = st.lists(
    st.tuples(
        st.one_of(
            st.integers(-3, 3),
            st.floats(),  # NaN and infinities included
            st.sampled_from([1e16, -1e16, 1.0, 0.5]),
        ),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 1),
    ),
    max_size=6,
)


def columnlab_store(rows) -> ObjectStore:
    store = ObjectStore(parse_database(COLUMNLAB_SOURCE), enforce=False)
    tags = [store.insert("Tag", label=f"t{i}") for i in range(2)]
    for v, s, tag in rows:
        store.insert("Row", v=v, s=s, tag=tags[tag])
    return store


def _value_outcome(run, ctx):
    try:
        value = run(ctx)
    except (EvaluationError, EngineError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value))


@settings(max_examples=150, deadline=None)
@given(rows=ROWS, keep=st.lists(st.booleans(), min_size=8, max_size=8))
@example(rows=FLOAT_ORDER, keep=[True] * 8)
@example(rows=FLOAT_ORDER, keep=[False] * 8)
@example(rows=FLOAT_ORDER_SORTED_FLIPS, keep=[True] * 8)
@example(rows=[(1, "a", 0), (2.5, "b", 1), (-4, "c", 0)], keep=[True] * 8)
@example(rows=[(1, "a", 0), (float("nan"), "b", 1)], keep=[True] * 8)
def test_column_answered_probes_match_scan_semantics(rows, keep):
    """The traced path keeps scan semantics, so it is the oracle: an
    untraced probe (aggregates answered from the frozen columns) must
    reach the same conflict verdict in both conflict modes, and every
    aggregate must come out bit-identical — value, type and error."""
    store = columnlab_store(rows)
    oids = [obj.oid for obj in store.objects()]
    visible = frozenset(oid for oid, kept in zip(oids, keep) if kept)
    column_view, scan_view = FrozenView(store), FrozenView(store)
    for constraint in store.schema.all_constraints():
        for errors_conflict in (False, True):
            assert constraint_conflicts(
                column_view, constraint, visible, errors_conflict
            ) == constraint_conflicts(
                scan_view, constraint, visible, errors_conflict, ReasonTrace()
            ), (constraint.name, errors_conflict)
        owner = (
            constraint.owner if constraint.kind is ConstraintKind.CLASS else None
        )
        run = compiled(constraint.formula.left)  # the aggregate itself
        assert _value_outcome(
            run, masked_context(column_view, visible, self_extent_class=owner)
        ) == _value_outcome(
            run,
            masked_context(
                scan_view, visible, self_extent_class=owner, trace=ReasonTrace()
            ),
        ), constraint.name


def test_columns_answer_only_plain_numbers_exactly():
    store = columnlab_store(FLOAT_ORDER)
    view = FrozenView(store)
    everything = frozenset(obj.oid for obj in store.objects())
    probe = masked_context(view, everything, self_extent_class="Row").indexes
    assert probe.aggregate_value("sum", "Row", "v") == 1.0  # exact, not 0.0
    assert probe.aggregate_value("count", "Row", None) == 3
    assert probe.aggregate_value("sum", "Row", "s") is INDEX_MISS
    assert probe.aggregate_value("count", "Row", "tag") is INDEX_MISS
    assert probe.aggregate_value("sum", "Nowhere", "v") is INDEX_MISS
    assert probe.key_unique("Row", ("s",)) is None
    empty = masked_context(view, frozenset(), self_extent_class="Row").indexes
    assert empty.aggregate_value("avg", "Row", "v") is VACUOUS
    assert empty.aggregate_value("sum", "Row", "v") == 0
    assert masked_context(view, everything, trace=ReasonTrace()).indexes is None
    nan = FrozenView(columnlab_store([(float("nan"), "a", 0), (1, "b", 0)]))
    assert nan.column("Row", "v") is None


def test_core_extraction_reads_each_attribute_once(monkeypatch):
    """Cost guard: probes answer ``sum < MAX`` from frozen columns, so
    ``explain_violations()`` reads each attribute of each publication a
    bounded number of times — not once per probe per core member — and
    the closed form pins the core and its probe count: the shortest
    largest-first prefix reaching ``MAX``, found by binary search over 200
    prefix lengths (8 probes) plus the drop-last certificate."""
    from repro.fixtures import cslibrary_schema

    publications = 200
    store = ObjectStore(cslibrary_schema(), enforce=False)
    store.set_constant("MAX", 10_000)
    for index in range(publications):
        store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"I-{index}",
            publisher="ACM",
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )
    calls = 0
    get_attr = ObjectStore.get_attr

    def counting(self, obj, name):
        nonlocal calls
        calls += 1
        return get_attr(self, obj, name)

    monkeypatch.setattr(ObjectStore, "get_attr", counting)
    (core,) = store.explain_violations()
    assert core.constraint_name == "CSLibrary.Publication.cc2"
    assert core.minimal and len(core.members) == 143
    assert core.checks == 9
    assert calls <= 4 * publications, calls


# ---------------------------------------------------------------------------
# closed-form cores of monotone aggregate violations
# ---------------------------------------------------------------------------

MONOLAB_SOURCE = """
Database MonoLab

constants
  MAX = 1
  LIMIT = 2

Class Row
attributes
  v : real
class constraints
  c_sum: (sum (collect x for x in self) over v) < MAX
  c_sum_mirrored: MAX >= (sum (collect x for x in self) over v)
  c_sum_literal: (sum (collect x for x in self) over v) < 0.3
  c_count: (count (collect x for x in self) over v) < LIMIT
  c_count_all: LIMIT > (count (collect x for x in self))
  c_max: (max (collect x for x in self) over v) <= MAX
  c_min: (min (collect x for x in self) over v) > MAX
end Row

Database constraints
  d_sum: (sum (collect x for x in Row) over v) <= MAX
"""

#: Non-negative operands with ties, zeros and tenths whose float sums round.
NON_NEGATIVE = st.one_of(
    st.integers(0, 5),
    st.floats(0, 5),
    st.sampled_from([0, 0.0, 0.1, 0.2, 0.3, 0.7, 1.0]),
)
BOUNDS = st.one_of(
    st.integers(-2, 8),
    st.floats(-1, 8),
    st.sampled_from([0, 0.3, 0.6, 1.0]),
)


def _no_shrink(*args, **kwargs):
    raise AssertionError("a monotone aggregate core must not be shrunk")


@settings(max_examples=150, deadline=None)
@given(values=st.lists(NON_NEGATIVE, max_size=12), bound=BOUNDS, limit=BOUNDS)
@example(values=[0.1, 0.2, 0.3, 0.1, 0.2], bound=0.6, limit=2)
@example(values=[1, 1, 1, 1], bound=2, limit=3)
@example(values=[0, 0.0, 2], bound=0, limit=0)
@example(values=[], bound=-1, limit=-1)
def test_monotone_aggregate_cores_are_closed_form(values, bound, limit):
    """Every violation of a monotone aggregate shape gets its core without
    shrinking, in O(log n) probes, and that core conflicts in isolation
    (independent evaluator) while every single-member removal resolves
    it — including the empty core of a bound no deletion can meet."""
    store = ObjectStore(parse_database(MONOLAB_SOURCE), enforce=False)
    store.set_constant("MAX", bound)
    store.set_constant("LIMIT", limit)
    for value in values:
        store.insert("Row", v=value)
    violated = {violation.constraint_name for violation in store.audit()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explain, "shrink", _no_shrink)
        cores = store.explain_violations()
    assert {core.constraint_name for core in cores} == violated
    probes = math.ceil(math.log2(max(len(values), 1))) + 3
    for core in cores:
        keep = frozenset(core.oids())
        assert core.minimal and core.verdict == "falsy"
        assert core.checks <= probes, (core.constraint_name, core.checks)
        assert violated_in_isolation(store, core.constraint, keep, False), (
            core.constraint_name
        )
        for member in keep:
            assert not violated_in_isolation(
                store, core.constraint, keep - {member}, False
            ), (core.constraint_name, sorted(keep), member)


#: Operands that break monotonicity of ``sum`` or leave the plain-number
#: column: each forces the ``c_sum``/``d_sum`` cores back onto shrinking.
SPOILERS = st.sampled_from([-1, -0.5, float("nan"), float("inf")])


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(NON_NEGATIVE, max_size=6),
    spoiler=SPOILERS,
    at=st.integers(0, 6),
)
@example(values=[1, 1], spoiler=float("inf"), at=0)
@example(values=[0.5, 2], spoiler=float("nan"), at=1)
@example(values=[3, 2], spoiler=-1, at=2)
def test_non_monotone_aggregates_fall_back_to_shrinking(values, spoiler, at):
    """A negative, NaN or infinite operand, an ``avg`` and a count over
    references keep the deletion path: ``shrink`` runs once per falsy-born
    core and the core it returns is still minimal in isolation."""
    values = values[:at] + [spoiler] + values[at:]
    rows = [(value, "a", index % 2) for index, value in enumerate(values)]
    store = columnlab_store(rows)
    view = FrozenView(store)
    shrink = explain.shrink
    for constraint in store.schema.all_constraints():
        if constraint.name not in ("c_sum", "d_sum", "c_avg", "c_tag_count"):
            continue
        assert explain.monotone_order(view, constraint) is None, constraint.name
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                explain,
                "shrink",
                lambda *args: calls.append(constraint.name) or shrink(*args),
            )
            core = explain.extract_core(store, constraint)
        if core is None or core.verdict != "falsy":
            continue
        assert calls == [constraint.name]
        keep = frozenset(core.oids())
        assert core.minimal
        assert violated_in_isolation(store, constraint, keep, False)
        for member in keep:
            assert not violated_in_isolation(
                store, constraint, keep - {member}, False
            )


# ---------------------------------------------------------------------------
# extraction holds the writer lock(s)
# ---------------------------------------------------------------------------


def _contend_from_probe(monkeypatch, locks) -> list:
    """Patch the shrink probe so that, on its first call, another thread
    tries each of ``locks`` without blocking; returns the acquire results."""
    attempts: list = []
    probe = explain.constraint_conflicts

    def contend():
        for lock in locks:
            acquired = lock.acquire(blocking=False)
            if acquired:
                lock.release()
            attempts.append(acquired)

    def contended_probe(*args, **kwargs):
        if not attempts:
            thread = threading.Thread(target=contend)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        return probe(*args, **kwargs)

    monkeypatch.setattr(explain, "constraint_conflicts", contended_probe)
    return attempts


def _violate_sum(store) -> None:
    publisher = store.insert("Publisher", name="P")
    for index in range(3):
        store.insert(
            "Item", title=f"t{index}", isbn=f"i{index}", price=40,
            publisher=publisher,
        )


def test_extraction_holds_the_writer_lock(monkeypatch):
    store = ObjectStore(explainlab_schema(), enforce=False)
    _violate_sum(store)
    attempts = _contend_from_probe(monkeypatch, [store._lock])
    assert store.explain_violations()
    assert attempts == [False]


def test_sharded_extraction_quiesces_router_and_cores(monkeypatch):
    store = ShardedStore(explainlab_schema(), 2, enforce=False)
    _violate_sum(store)
    locks = [store._lock] + [core._lock for core in store.cores]
    attempts = _contend_from_probe(monkeypatch, locks)
    assert store.explain_violations()
    assert attempts == [False] * len(locks)
