"""The full audit (repro.engine.enforcement.all_violations) establishes its
evaluation context once: the index probe is consulted a number of times
that does not grow with the store, and
the violations it returns equal those of a check-by-check reference that
builds a fresh context per check."""

import pytest

from repro.constraints.evaluate import evaluate
from repro.engine import ObjectStore, ShardedStore
from repro.engine.enforcement import _EVAL_FAILURES, violation
from repro.fixtures import cslibrary_schema

PUBLISHERS = ("ACM", "IEEE", "Springer", "Elsevier", "Kluwer")


def _store(flavor, size):
    """``size`` publications whose ``sum(ourprice) < MAX`` (MAX = 100 000)
    fails at every size, plus three object-constraint violators."""
    schema = cslibrary_schema()
    if flavor == "plain":
        store = ObjectStore(schema, enforce=False, wal=False)
    else:
        store = ShardedStore(schema, 2, enforce=False)
    price = 200_000 / size + 1
    for index in range(size):
        store.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"ISBN-{index}",
            publisher=PUBLISHERS[index % 5],
            shopprice=price + 5,
            ourprice=price,
        )
    store.insert(
        "Publication", title="Dear", isbn="X-1", publisher="ACM", shopprice=1.0, ourprice=2.0
    )
    store.insert(
        "Publication", title="Odd", isbn="X-2", publisher="Nobody", shopprice=3.0, ourprice=2.0
    )
    store.insert(
        "Publication", title="Dup", isbn="X-2", publisher="IEEE", shopprice=3.0, ourprice=2.0
    )
    return store


def _reference_violations(store):
    """The audit check by check, each with its own evaluation context."""
    schema = store.schema
    checks = [
        (constraint, obj, None)
        for obj in store.objects()
        for constraint in schema.effective_object_constraints(obj.class_name)
    ]
    checks += [
        (constraint, None, class_def.name)
        for class_def in schema.classes.values()
        for constraint in class_def.own_class_constraints()
    ]
    checks += [(constraint, None, None) for constraint in schema.database_constraints]
    found = []
    for constraint, current, owner in checks:
        ctx = store.eval_context(current=current, self_extent_class=owner)
        try:
            if evaluate(constraint.formula, ctx):
                continue
            error = None
        except _EVAL_FAILURES as exc:
            error = exc
        found.append(violation(store, constraint, error, current, owner))
    return found


def _rendered(violations):
    return [
        (v.constraint_name, v.oid, v.detail, v.constraint, v.trace.events)
        for v in violations
    ]


def _counted_audit(monkeypatch, store):
    counts = {"probe": 0}
    original = type(store)._probe

    def counting(self):
        counts["probe"] += 1
        return original(self)

    with monkeypatch.context() as patch:
        patch.setattr(type(store), "_probe", counting)
        found = store.audit()
    return found, counts


@pytest.mark.parametrize("flavor", ["plain", "sharded"])
def test_audit_probes_do_not_grow_with_the_store(monkeypatch, flavor):
    small_found, small = _counted_audit(monkeypatch, _store(flavor, 200))
    large_found, large = _counted_audit(monkeypatch, _store(flavor, 2_000))
    assert [v.constraint_name for v in large_found] == [
        v.constraint_name for v in small_found
    ]
    assert "CSLibrary.Publication.cc2" in {v.constraint_name for v in large_found}
    assert large == small
    # One shared context, one per class constraint and one trace per
    # violation — far below one per object check.
    assert large["probe"] < 50


@pytest.mark.parametrize("flavor", ["plain", "sharded"])
def test_audit_matches_check_by_check_reference(flavor):
    store = _store(flavor, 2_000)
    found = store.audit()
    assert _rendered(found) == _rendered(_reference_violations(store))
    assert {v.constraint_name for v in found} == {
        "CSLibrary.Publication.oc1",
        "CSLibrary.Publication.oc2",
        "CSLibrary.Publication.cc1",
        "CSLibrary.Publication.cc2",
    }
    culprits = {store.get(v.oid).state["title"] for v in found if v.oid is not None}
    assert culprits == {"Dear", "Odd"}
