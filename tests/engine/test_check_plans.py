"""Check plans (repro.engine.incremental.CheckPlan) against a naive scan.

A write shape — a class for an insert or delete, a ``(class, attribute)``
pair for an update — has one plan per constraint scope and ``analyze``
flag.  Each plan must list exactly what the per-write relevance scan it
replaced selected, in the same order: the effective object constraints of
the touched object, the object constraints whose owner extents a foreign or
extent read re-checks, and the class and database constraints whose read
set meets the write's.  The scan is kept here as the oracle, and so is the
shard router's fast-path walk.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.incremental import (
    CheckPlan,
    ConstraintDependencyIndex,
    MutationDelta,
    _checks,
    classify_constraints,
    shard_scopes,
)
from repro.engine.sharding import ShardedStore, plan_placement
from repro.errors import ShardingError
from repro.fixtures import (
    bookseller_schema,
    bookseller_store,
    cslibrary_schema,
    cslibrary_store,
    personnel_db1_schema,
    personnel_db2_schema,
    personnel_stores,
)
from repro.tm.parser import parse_database

_REDUNDANT = (
    "Database Demo\n"
    "Class Widget\n"
    "  attributes\n"
    "    size : int\n"
    "    label : string\n"
    "  object constraints\n"
    "    oc1 : size >= 3\n"
    "    oc2 : size >= 2\n"
    "    oc3 : size <= 90\n"
    "end Widget\n"
)

# An object constraint that reads no attribute: only an insert's plan has it.
_CONSTANT = (
    "Database Gauges\n"
    "constants\n"
    "  LIMIT = 5\n"
    "Class Gauge\n"
    "  attributes\n"
    "    level : int\n"
    "  object constraints\n"
    "    oc1 : LIMIT > 0\n"
    "    oc2 : level <= LIMIT\n"
    "end Gauge\n"
)

SCHEMAS = {
    "cslibrary": cslibrary_schema,
    "bookseller": bookseller_schema,
    "personnel_db1": personnel_db1_schema,
    "personnel_db2": personnel_db2_schema,
    "redundant": lambda: parse_database(_REDUNDANT),
    "constant": lambda: parse_database(_CONSTANT),
}


def _shapes(schema):
    for class_name in schema.classes:
        yield class_name
        for attr in schema.effective_attributes(class_name):
            yield (class_name, attr)


def _scopes(schema, shards):
    """``None`` (unscoped) or every shard's scope of an ``shards``-way layout."""
    if shards is None:
        return [None]
    index = ConstraintDependencyIndex.for_schema(schema)
    placement = plan_placement(schema, shards)
    return shard_scopes(classify_constraints(index, placement), shards)


def _naive_plan(index, schema, shape, scope, analyze) -> CheckPlan:
    """The relevance scan a write of ``shape`` ran before plans: the
    attributes and extents the write dirties, intersected with every
    constraint's read set."""
    if isinstance(shape, str):
        class_name, extents = shape, {shape}
        attrs = {(shape, attr) for attr in schema.effective_attributes(shape)}
    else:
        class_name, extents, attrs = shape[0], set(), {shape}
    pruned = index.pruned_constraints() if analyze else frozenset()

    def in_scope(entry):
        return scope is None or entry.constraint in scope

    def affected_by(entry):
        return entry.universal or bool(entry.attrs & attrs) or bool(entry.extents & extents)

    effective = [index.entry(c) for c in schema.effective_object_constraints(class_name)]
    own = [
        entry
        for entry in effective
        if (isinstance(shape, str) or entry.universal or shape in entry.attrs)
        and entry.constraint not in pruned
        and in_scope(entry)
    ]
    triggered = [
        entry
        for entry in index.object_constraints
        if entry.constraint not in pruned
        and in_scope(entry)
        and (entry.universal or entry.foreign & attrs or entry.extents & extents)
        and entry.owner_extent
    ]
    classes = [e for e in index.class_constraints if in_scope(e) and affected_by(e)]
    database = [e for e in index.database_constraints if in_scope(e) and affected_by(e)]
    return CheckPlan(tuple(own), tuple(triggered), tuple(classes), tuple(database))


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyze"])
@pytest.mark.parametrize("shards", [None, 2, 4], ids=["unscoped", "2-shard", "4-shard"])
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_plan_equals_the_naive_scan(name, shards, analyze):
    schema = SCHEMAS[name]().freeze()
    index = ConstraintDependencyIndex.for_schema(schema)
    for scope in _scopes(schema, shards):
        store = SimpleNamespace(constraint_scope=scope, analyze=analyze)
        for shape in _shapes(schema):
            plan = index.checks_for(shape, store)
            assert plan == _naive_plan(index, schema, shape, scope, analyze), shape
            assert index.checks_for(shape, store) is plan  # memoised


def test_the_default_plan_is_unscoped_and_unpruned():
    schema = parse_database(_REDUNDANT).freeze()
    index = ConstraintDependencyIndex.for_schema(schema)
    plain = SimpleNamespace(constraint_scope=None, analyze=False)
    assert index.checks_for("Widget") is index.checks_for("Widget", plain)


# ---------------------------------------------------------------------------
# the router's fast path
# ---------------------------------------------------------------------------


def _walk_fast_tables(store: ShardedStore) -> dict:
    """The router's fast-path tables as its relevance walk built them: an
    insert or delete is fast when every constraint reading the class (or
    effective on it, or universal) is in the home core's scope; an update
    when every constraint reading that attribute (or universal) is."""
    index = store.dependency_index()
    scopes = shard_scopes(classify_constraints(index, store.placement, store.spread), store.shards)
    entries = (*index.object_constraints, *index.class_constraints, *index.database_constraints)
    tables: dict = {}
    for class_name in store.schema.classes:
        if class_name in store.spread:
            allowed = frozenset.intersection(*scopes)
        else:
            allowed = scopes[store.placement.get(class_name, 0)]
        touched = {
            entry.constraint
            for entry in entries
            if entry.universal
            or class_name in entry.extents
            or any(cls == class_name for cls, _attr in entry.attrs)
        }
        touched.update(store.schema.effective_object_constraints(class_name))
        tables[class_name] = touched <= allowed
        for attr in store.schema.effective_attributes(class_name):
            affected = {
                entry.constraint
                for entry in entries
                if entry.universal or (class_name, attr) in entry.attrs
            }
            tables[(class_name, attr)] = affected <= allowed
    return tables


def _layouts(schema):
    """Every (shards, spread) layout worth routing: 2 and 4 shards, with no
    spread class and with each class the planner lets spread."""
    for shards in (2, 4):
        yield shards, frozenset()
        for class_name in schema.classes:
            try:
                plan_placement(schema, shards, {class_name})
            except ShardingError:
                continue
            yield shards, frozenset({class_name})


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_router_fast_table_equals_the_relevance_walk(name):
    schema = SCHEMAS[name]()
    for shards, spread in _layouts(schema):
        for analyze in (False, True):
            store = ShardedStore(schema, shards, spread=spread, analyze=analyze)
            assert store._fast == _walk_fast_tables(store), (shards, spread, analyze)


# ---------------------------------------------------------------------------
# a delta's walk over its plans
# ---------------------------------------------------------------------------


def _naive_checks(store, delta_attrs, delta_extents, objects):
    """The check walk before plans, for a delta that dirtied ``delta_attrs``
    and ``delta_extents`` and touched ``objects`` (oid → changed attributes,
    ``None`` for an insert)."""
    index = store.dependency_index()
    schema = store.schema
    seen = set()
    found = []
    for oid, changed in objects.items():
        obj = store.get(oid)
        for constraint in schema.effective_object_constraints(obj.class_name):
            entry = index.entry(constraint)
            reads = {(obj.class_name, a) for a in changed or ()}
            if changed is None or entry.universal or reads & entry.attrs:
                seen.add((id(entry), oid))
                found.append((entry, oid, None))
    for entry in index.object_constraints:
        triggered = entry.universal or entry.foreign & delta_attrs or entry.extents & delta_extents
        if triggered and entry.owner_extent:
            for obj in store.extent(entry.constraint.owner):
                if (id(entry), obj.oid) not in seen:
                    seen.add((id(entry), obj.oid))
                    found.append((entry, obj.oid, None))
    for entries, owner in ((index.class_constraints, True), (index.database_constraints, False)):
        for entry in entries:
            if entry.universal or entry.attrs & delta_attrs or entry.extents & delta_extents:
                found.append((entry, None, entry.constraint.owner if owner else None))
    return found


def _fixture_stores():
    cslibrary, _ = cslibrary_store()
    bookseller, _ = bookseller_store()
    db1, db2, _ = personnel_stores()
    return [cslibrary, bookseller, db1, db2]


def test_a_multi_shape_delta_walks_the_union_of_its_plans():
    """Every delta of two writes — each an insert, a delete, an update of
    one attribute or of two — walks the checks the naive scan selects, in
    its order."""
    for store in _fixture_stores():
        schema = store.schema
        objects = list(store.objects())
        writes = []
        for obj in objects[:6]:
            names = sorted(schema.effective_attributes(obj.class_name))
            writes.append((obj, None))
            writes.append((obj, "delete"))
            writes.extend((obj, {name}) for name in names)
            writes.append((obj, set(names[:2])))
        for first in writes:
            for second in writes[::3]:
                delta = MutationDelta()
                attrs: set = set()
                extents: set = set()
                for obj, changed in (first, second):
                    if changed is None or changed == "delete":
                        if changed is None:
                            delta.record_insert(obj)
                        else:
                            delta.record_delete(obj)
                        attrs |= {(obj.class_name, a) for a in obj.state}
                        extents.add(obj.class_name)
                    else:
                        delta.record_update(obj, changed)
                        attrs |= {(obj.class_name, a) for a in changed}
                walked = [
                    (entry, None if obj is None else obj.oid, owner)
                    for entry, obj, owner in _checks(store, delta)
                ]
                assert walked == _naive_checks(store, attrs, extents, delta.objects)


def test_a_write_that_changes_nothing_runs_no_check():
    store, _ = bookseller_store()
    obj = next(iter(store.objects()))
    delta = MutationDelta()
    delta.record_update(obj, set())
    assert delta.shapes == set()
    assert list(_checks(store, delta)) == []
