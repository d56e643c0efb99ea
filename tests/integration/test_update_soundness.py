"""The update validator against the component transaction managers it
speaks for.

The paper's claim is that global validation prevents "the formulation of
subtransactions which will certainly be rejected by the local transaction
manager".  Here that manager is real: one conformed-schema
:class:`~repro.ObjectStore` per side, loaded with the conformed instances.
A Hypothesis differential over the library and personnel fixtures draws
property updates, runs each side's projected subtransaction in a
``transaction()`` on that side's store and rolls it back, and asserts
soundness: every component-level :class:`Rejection` names a component whose
store rejects the subtransaction too.  The converse need not hold — the
validator sees only object constraints on the updated object, and it does
not map a changed reference back to the component's oid.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObjectStore
from repro.errors import ReproError
from repro.fixtures import (
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.integration import IntegrationWorkbench
from repro.integration.decision import DecisionCategory
from repro.integration.relationships import Side
from repro.integration.updates import GlobalUpdateValidator
from repro.types.primitives import ClassRef


@functools.cache
def _result(name: str):
    if name == "library":
        local, _ = cslibrary_store()
        remote, _ = bookseller_store()
        return IntegrationWorkbench(library_integration_spec(), local, remote).run()
    db1, db2, _ = personnel_stores()
    return IntegrationWorkbench(personnel_integration_spec(), db1, db2).run()


@functools.cache
def _validator(name: str) -> GlobalUpdateValidator:
    return GlobalUpdateValidator(_result(name))


def _is_reference(schema, class_name: str, name: str) -> bool:
    attribute = schema.effective_attributes(class_name).get(name)
    return attribute is not None and isinstance(attribute.tm_type, ClassRef)


@functools.cache
def _component_stores(name: str) -> dict:
    """Side → (store, conformed oid → store oid): each side's conformed
    instances in a store of its conformed schema, inserted in one
    validated transaction, referenced objects first."""
    conformation = _result(name).conformation
    stores = {}
    for side in (Side.LOCAL, Side.REMOTE):
        conformed = conformation.on(side)
        schema = conformed.schema
        store = ObjectStore(schema, wal=False)
        oids: dict[str, str] = {}
        pending = list(conformed.instances)
        with store.transaction():
            while pending:
                waiting = []
                for obj in pending:
                    refs = {
                        key: value
                        for key, value in obj.state.items()
                        if _is_reference(schema, obj.class_name, key)
                    }
                    if not all(value in oids for value in refs.values()):
                        waiting.append(obj)
                        continue
                    state = {**obj.state, **{key: oids[value] for key, value in refs.items()}}
                    oids[obj.oid] = store.insert(obj.class_name, **state).oid
                assert len(waiting) < len(pending), "cyclic references"
                pending = waiting
        assert store.audit() == []
        stores[side] = (store, oids)
    return stores


def _covering_df(conformation, obj, key):
    """The decision function of the first conformed propeq on ``key``
    declared on ancestors of both components' classes (None if the object
    is not merged or no propeq covers it)."""
    local, remote = obj.component_on(Side.LOCAL), obj.component_on(Side.REMOTE)
    if local is None or remote is None:
        return None
    schemas = (conformation.local.schema, conformation.remote.schema)
    for propeq in conformation.propeqs:
        pairs = ((local.class_name, propeq.local_class), (remote.class_name, propeq.remote_class))
        if propeq.name == key and all(
            schema.has_class(declared) and schema.is_subclass_of(child, declared)
            for schema, (child, declared) in zip(schemas, pairs)
        ):
            return propeq.df
    return None


def _subtransaction(name: str, obj, side: Side, changed: dict) -> dict:
    """The writes ``side``'s component receives: every changed property it
    holds that stays objective there, a reference mapped to the
    component's store oid of the referenced global object."""
    result = _result(name)
    conformation = result.conformation
    component = obj.components[side]
    schema = conformation.on(side).schema
    _, oids = _component_stores(name)[side]
    writes = {}
    for key, value in changed.items():
        if key not in component.state:
            continue
        df = _covering_df(conformation, obj, key)
        if df is not None and not (
            df.category is DecisionCategory.IGNORING
            or (df.category is DecisionCategory.AVOIDING and df.trusted is side)
        ):
            continue
        if _is_reference(schema, component.class_name, key) and value in result.view.oids():
            target = result.view.get(value).component_on(side)
            value = oids.get(target.oid, value) if target is not None else value
        writes[key] = value
    return writes


def _store_rejects(store: ObjectStore, oid: str, writes: dict) -> bool:
    """Whether ``store`` refuses updating ``oid`` with ``writes`` in one
    transaction; an accepted transaction is undone again."""
    before = dict(store.get(oid).state)
    try:
        with store.transaction():
            store.update(oid, **writes)
    except ReproError:
        assert store.get(oid).state == before
        return True
    with store.transaction(validate=False):
        store.update(oid, **{key: before[key] for key in writes})
    assert store.get(oid).state == before
    return False


@st.composite
def _updates(draw):
    name = draw(st.sampled_from(("library", "personnel")))
    view = _result(name).view
    obj = view.get(draw(st.sampled_from(sorted(view.oids()))))
    keys = draw(st.lists(st.sampled_from(sorted(obj.state)), min_size=1, max_size=3, unique=True))
    changes = {}
    for key in keys:
        seen = sorted(
            {other.state[key] for other in view.objects() if key in other.state}, key=repr
        )
        numbers = st.integers(-5, 200) | st.floats(-10.0, 250.0, allow_nan=False)
        changes[key] = draw(st.sampled_from(seen) | numbers | st.sampled_from(("ACM", None)))
    return name, obj.oid, changes


def _verdicts(name: str, oid: str, changes: dict):
    """The validator's verdict and the component names whose stores
    reject their subtransaction."""
    obj = _result(name).view.get(oid)
    changed = {key: value for key, value in changes.items() if obj.state.get(key) != value}
    verdict = _validator(name).validate(oid, **changes)
    rejecting = set()
    for side, component in obj.components.items():
        writes = _subtransaction(name, obj, side, changed)
        store, oids = _component_stores(name)[side]
        if writes and _store_rejects(store, oids[component.oid], writes):
            rejecting.add(store.schema.name)
    return verdict, rejecting


@settings(max_examples=150, deadline=None)
@given(_updates())
def test_component_rejections_are_store_rejections(update):
    verdict, rejecting = _verdicts(*update)
    predicted = {r.level for r in verdict.rejections if r.level != "global"}
    assert predicted <= rejecting, verdict.describe()


def test_the_differential_sees_both_outcomes():
    """Not vacuous: a component rejection the store confirms, and an
    accepted update the store accepts."""
    vldb = next(
        obj
        for obj in _result("library").view.merged_objects()
        if obj.state.get("isbn") == "ISBN-001"
    )
    rejected, rejecting = _verdicts("library", vldb.oid, {"libprice": 150.0})
    assert {r.level for r in rejected.rejections} == {"CSLibrary"} <= rejecting
    accepted, rejecting = _verdicts("library", vldb.oid, {"rating": 9})
    assert accepted.accepted and not rejecting
