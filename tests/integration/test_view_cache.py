"""The integrated view's cached evaluation state and the validator's plan.

``IntegratedView`` derives its class extents, evaluation extents (sorted-oid
order) and merged constants once per view generation, and
``GlobalUpdateValidator`` asks each component engine for a write shape's
check plan once.  These tests hold both to a naive reference that rebuilds
every context and index per call:

* a Hypothesis differential oracle draws property updates over the library
  and personnel results and compares ``validate`` with the reference,
  rejection by rejection: at the global level the reference evaluates the
  proposed object, dereferencing the properties a component declares a
  reference; at the component level it scans every object constraint of
  the class with its own read set;
* ``select`` and ``satisfies`` agree with naive per-object evaluation;
* each of the four invalidating calls is seen by the next context, and a
  context's replaced fields never reach the next one;
* extent order and float aggregates are identical under two hash seeds;
* cost guards pin how often the shared state is built and how often the
  validator asks for a check plan.
"""

import collections
import copy
import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObjectStore
from repro.constraints import parse_expression, to_source
from repro.constraints.ast import paths_in
from repro.constraints.evaluate import EvalContext, EvaluationError, evaluate
from repro.engine.incremental import ConstraintDependencyIndex
from repro.fixtures import (
    bookseller_schema,
    bookseller_store,
    cslibrary_schema,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.integration import IntegrationWorkbench
from repro.integration.conformation import ConformationResult, ConformedObject
from repro.integration.decision import DecisionCategory
from repro.integration.merging import GlobalObject
from repro.integration.relationships import Side
from repro.integration.updates import GlobalUpdateValidator
from repro.integration.view import IntegratedView
from repro.types.primitives import ClassRef

SRC = Path(__file__).resolve().parents[2] / "src"
PUBLISHERS = ("ACM", "IEEE", "Springer", "Elsevier", "Kluwer")


def _library_result():
    local_store, _ = cslibrary_store()
    remote_store, _ = bookseller_store()
    return IntegrationWorkbench(
        library_integration_spec(), local_store, remote_store
    ).run()


def _personnel_result():
    db1, db2, _ = personnel_stores()
    return IntegrationWorkbench(personnel_integration_spec(), db1, db2).run()


@functools.cache
def _shared_results() -> dict:
    """Read-only results shared by the property tests (validation and
    selection never mutate the view)."""
    return {"library": _library_result(), "personnel": _personnel_result()}


@functools.cache
def _shared_validator(name: str) -> GlobalUpdateValidator:
    """One validator per shared result, reused across examples as a
    caller would reuse it."""
    return GlobalUpdateValidator(_shared_results()[name])


def _publication_stores(size: int):
    """Figure 1-shaped stores: ``size`` publications per side, half the
    ISBNs shared, prices with non-representable fractions."""
    local = ObjectStore(cslibrary_schema(), enforce=False, wal=False)
    remote = ObjectStore(bookseller_schema(), enforce=False, wal=False)
    publishers = {
        name: remote.insert("Publisher", name=name, location=f"{name} City")
        for name in PUBLISHERS
    }
    for index in range(size):
        local.insert(
            "Publication",
            title=f"Book {index}",
            isbn=f"L-{index}",
            publisher=PUBLISHERS[index % 5],
            shopprice=50.0 + index % 40,
            ourprice=45.0 + index % 40,
        )
    for index in range(size):
        remote.insert(
            "Monograph",
            title=f"Book {index}",
            isbn=f"L-{index}" if index % 2 else f"R-{index}",
            publisher=publishers[PUBLISHERS[index % 5]],
            authors=frozenset({f"Author {index}"}),
            shopprice=52.0 + index / 7,
            libprice=47.0 + index / 7,
            subjects=frozenset({"misc"}),
        )
    return local, remote


# ---------------------------------------------------------------------------
# the naive reference: rebuild everything per call
# ---------------------------------------------------------------------------


def _naive_constants(conformation) -> dict:
    constants: dict = {}
    constants.update(conformation.remote.schema.constants)
    constants.update(conformation.local.schema.constants)
    return constants


def _naive_global_get_attr(view: IntegratedView):
    """Read a global object, dereferencing a property only where a
    component's conformed class declares it a single reference."""
    conformation = view.conformation

    def get_attr(obj, name):
        if not isinstance(obj, GlobalObject) or name not in obj.state:
            raise EvaluationError(f"cannot read {name!r} from {obj!r}")
        value = obj.state[name]
        declared = (
            conformation.on(side).schema.effective_attributes(component.class_name).get(name)
            for side, component in obj.components.items()
        )
        if any(isinstance(a.tm_type, ClassRef) for a in declared if a is not None):
            return view.get(value) if value in view.oids() else value
        return value

    return get_attr


def _naive_context(view: IntegratedView, current) -> EvalContext:
    return EvalContext(
        current=current,
        extents={name: view.extent(name) for name in view.classes()},
        constants=_naive_constants(view.conformation),
        get_attr=_naive_global_get_attr(view),
    )


def _naive_evaluate(view: IntegratedView, formula, current) -> bool | None:
    try:
        return bool(evaluate(formula, _naive_context(view, current)))
    except EvaluationError:
        return None


def _naive_component_evaluate(conformation, formula, state) -> bool | None:
    instances = {
        obj.oid: obj
        for side in (Side.LOCAL, Side.REMOTE)
        for obj in conformation.on(side).instances
    }

    def get_attr(obj, name):
        state = obj.state if isinstance(obj, ConformedObject) else obj
        if not isinstance(state, dict) or name not in state:
            raise EvaluationError(f"cannot read {name!r} from {obj!r}")
        value = state[name]
        if isinstance(value, str) and value in instances:
            return instances[value]
        return value

    context = EvalContext(
        current=state, constants=_naive_constants(conformation), get_attr=get_attr
    )
    try:
        return bool(evaluate(formula, context))
    except EvaluationError:
        return None


def _naive_read_attrs(schema, constraint) -> set:
    entry = ConstraintDependencyIndex.for_schema(schema).entry(constraint)
    if entry is None or entry.universal:
        return {path.parts[0] for path in paths_in(constraint.formula)}
    return set(entry.own_attr_names())


def _naive_propeq(conformation, local, remote, name):
    """The first conformed propeq on ``name`` declared on an ancestor of
    both components' classes, by a scan of every propeq."""
    schemas = (conformation.local.schema, conformation.remote.schema)
    for propeq in conformation.propeqs:
        if propeq.name != name:
            continue
        pairs = ((local.class_name, propeq.local_class), (remote.class_name, propeq.remote_class))
        if all(
            schema.has_class(child) and schema.has_class(declared)
            and schema.is_subclass_of(child, declared)
            for schema, (child, declared) in zip(schemas, pairs)
        ):
            return propeq
    return None


def reference_validate(result, global_oid: str, changes: dict) -> list[tuple]:
    """``(level, constraint, detail)`` of every rejection, in order."""
    view, conformation = result.view, result.conformation
    obj = view.get(global_oid)
    proposed = copy.copy(obj)
    proposed.state = {**obj.state, **changes}
    rejections = []
    for constraint in result.global_constraints:
        classes = [part.strip() for part in constraint.scope.split("⋈")]
        if not all(
            cls in obj.classes
            or (view.has_class(cls) and obj.oid in {o.oid for o in view.extent(cls)})
            for cls in classes
        ):
            continue
        if _naive_evaluate(view, constraint.formula, proposed) is False:
            rejections.append(
                (
                    "global",
                    constraint.name,
                    f"violates {to_source(constraint.formula)} ({constraint.origin})",
                )
            )
    changed = {key: value for key, value in proposed.state.items() if obj.state.get(key) != value}
    local, remote = obj.component_on(Side.LOCAL), obj.component_on(Side.REMOTE)
    for side, component in obj.components.items():
        schema = conformation.on(side).schema
        if not schema.has_class(component.class_name):
            continue
        projected = dict(component.state)
        untranslatable = set()
        for key, value in changed.items():
            if key not in component.state:
                continue
            propeq = None
            if local is not None and remote is not None:
                propeq = _naive_propeq(conformation, local, remote, key)
            if propeq is None or propeq.df.category is DecisionCategory.IGNORING:
                projected[key] = value
            elif propeq.df.category is DecisionCategory.AVOIDING:
                if getattr(propeq.df, "trusted", None) is side:
                    projected[key] = value
            else:
                untranslatable.add(key)
        for constraint in schema.effective_object_constraints(component.class_name):
            relevant = _naive_read_attrs(schema, constraint)
            if relevant & untranslatable or not relevant & set(changed):
                continue
            if _naive_component_evaluate(conformation, constraint.formula, projected) is False:
                rejections.append(
                    (
                        schema.name,
                        constraint.qualified_name,
                        "the subtransaction would be rejected by this "
                        "component's transaction manager: "
                        f"{to_source(constraint.formula)}",
                    )
                )
    return rejections


# ---------------------------------------------------------------------------
# differential oracle
# ---------------------------------------------------------------------------


@st.composite
def _updates(draw):
    name = draw(st.sampled_from(("library", "personnel")))
    result = _shared_results()[name]
    view = result.view
    obj = view.get(draw(st.sampled_from(sorted(view.oids()))))
    properties = sorted({key for other in view.objects() for key in other.state})
    keys = draw(
        st.lists(
            st.sampled_from(sorted(obj.state)) | st.sampled_from(properties),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    changes = {}
    for key in keys:
        seen = sorted(
            {other.state[key] for other in view.objects() if key in other.state},
            key=repr,
        )
        numbers = st.integers(-5, 200) | st.floats(-10.0, 250.0, allow_nan=False)
        values = st.sampled_from(seen) | numbers if seen else numbers
        changes[key] = draw(values | st.sampled_from(("ACM", "x", None)))
    return name, obj.oid, changes


@settings(max_examples=300, deadline=None)
@given(_updates())
def test_validate_matches_naive_reference(update):
    name, oid, changes = update
    result = _shared_results()[name]
    verdict = _shared_validator(name).validate(oid, **changes)
    got = [(r.level, r.constraint, r.detail) for r in verdict.rejections]
    assert got == reference_validate(result, oid, changes)
    assert verdict.accepted == (not got)


def test_reference_sees_both_levels():
    """The oracle is not vacuous: the library result rejects at the global
    level and at a component level, and accepts."""
    result = _shared_results()["library"]
    vldb = next(
        obj for obj in result.view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
    )
    validator = GlobalUpdateValidator(result)
    levels = {
        r.level
        for changes in ({"rating": 4}, {"libprice": 150.0})
        for r in validator.validate(vldb.oid, **changes).rejections
    }
    assert "global" in levels and levels - {"global"}
    assert validator.validate(vldb.oid, rating=9).accepted
    for changes in ({"rating": 4}, {"libprice": 150.0}, {"rating": 9}):
        verdict = validator.validate(vldb.oid, **changes)
        assert [(r.level, r.constraint, r.detail) for r in verdict.rejections] == (
            reference_validate(result, vldb.oid, changes)
        )


@pytest.mark.parametrize("name", ["library", "personnel"])
def test_partial_states_are_unknown_not_errors(name):
    """A global constraint that reads a property the object's state lacks
    is undecided on that object, as in ``view.satisfies``: validating any
    object of the view, unchanged, rejects nothing and raises nothing."""
    result = _shared_results()[name]
    validator = GlobalUpdateValidator(result)
    for oid in sorted(result.view.oids()):
        assert validator.validate(oid).accepted, oid


# ---------------------------------------------------------------------------
# select / satisfies
# ---------------------------------------------------------------------------

PREDICATES = (
    "shopprice > 60",
    "rating >= 8",
    "publisher.name = 'ACM'",
    "ourprice <= shopprice",
    "libprice <= shopprice and rating >= 5",
    "trav_reimb in {12, 17, 22}",
    "salary > 3000",
)


@pytest.mark.parametrize("name", ["library", "personnel"])
def test_select_matches_naive_evaluation(name):
    view = _shared_results()[name].view
    for class_name in view.classes():
        for source in PREDICATES:
            formula = parse_expression(source)
            naive = [
                obj
                for obj in view.extent(class_name)
                if _naive_evaluate(view, formula, obj)
            ]
            assert view.select(class_name, source) == naive, (class_name, source)


@pytest.mark.parametrize("name", ["library", "personnel"])
def test_satisfies_matches_naive_evaluation(name):
    result = _shared_results()[name]
    view = result.view
    formulas = [constraint.formula for constraint in result.global_constraints]
    formulas += [parse_expression(source) for source in PREDICATES]
    for obj in view.objects():
        for formula in formulas:
            assert view.satisfies(obj, formula) == _naive_evaluate(view, formula, obj)


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------


def test_each_invalidating_call_is_seen_by_the_next_context():
    view = _library_result().view
    publication = "CSLibrary.Publication"
    before = view.eval_context()
    assert list(before.extents[publication]) == view.extent(publication)

    added = GlobalObject("g-new", {}, {"title": "New"}, classes={publication})
    view.add_object(added)
    assert added in view.eval_context().extents[publication]
    assert view.in_extent(publication, "g-new") and "g-new" in view.oids()

    added.classes.add("Extra.Class")
    view.rebuild_extents()
    assert list(view.eval_context().extents["Extra.Class"]) == [added]

    existing = view.extent(publication)[-1]
    view.add_virtual_extent_member("VirtualX", existing.oid)
    assert list(view.eval_context().extents["VirtualX"]) == [existing]
    assert view.in_extent("VirtualX", existing.oid)

    view.register_virtual_superclass("VirtualX", "Extra.Class")
    assert list(view.eval_context().extents["VirtualX"]) == sorted(
        [existing, added], key=lambda obj: obj.oid
    )

    # An earlier context keeps the generation it was built from.
    assert added not in before.extents[publication]
    assert "VirtualX" not in before.extents


def test_replacing_context_fields_does_not_leak():
    view = _library_result().view
    first = view.eval_context()
    first.get_attr = lambda obj, name: None
    first.extents = {}
    first.constants = {}
    second = view.eval_context()
    assert second.get_attr == view.get_attr
    assert set(second.extents) == set(view.classes())
    assert second.constants
    # The shared state itself is read-only.
    with pytest.raises(TypeError):
        second.extents["CSLibrary.Publication"] = []
    with pytest.raises(TypeError):
        second.constants["MAX"] = 0


_THING = """
Database {name}
Class Thing
attributes
  key_attr : string
  amount   : int
object constraints
  oc1: amount in {{{values}}}
end Thing
"""


def test_state_violation_cores_leave_the_shared_state_unmasked():
    """``_state_violation_core`` replaces ``get_attr`` and ``extents`` on
    every probe context; the view's later contexts stay unmasked."""
    from repro.integration import (
        AnyChoice,
        ComparisonRule,
        IntegrationSpecification,
        PropertyEquivalence,
    )
    from repro.tm import parse_database

    local_schema = parse_database(_THING.format(name="LeftDB", values="10, 30"))
    remote_schema = parse_database(_THING.format(name="RightDB", values="20"))
    local_store, remote_store = ObjectStore(local_schema), ObjectStore(remote_schema)
    for index in range(3):
        local_store.insert("Thing", key_attr=f"k{index}", amount=10)
        remote_store.insert("Thing", key_attr=f"k{index}", amount=20)
    spec = IntegrationSpecification(local_schema, remote_schema)
    spec.add_rule(ComparisonRule.equality("Thing", "Thing", "O.key_attr = O'.key_attr"))
    spec.add_propeq(PropertyEquivalence("Thing", "key_attr", "Thing", "key_attr", df=AnyChoice()))
    spec.add_propeq(PropertyEquivalence("Thing", "amount", "Thing", "amount", df=AnyChoice()))
    result = IntegrationWorkbench(spec, local_store, remote_store).run()

    view = result.view
    assert result.state_violations
    for violation in result.state_violations:
        assert [member.oid for member in violation.core.members] == [violation.global_oid]
    context = view.eval_context()
    assert context.get_attr == view.get_attr
    assert {name: list(extent) for name, extent in context.extents.items()} == {
        name: view.extent(name) for name in view.classes()
    }
    assert len(view.extent("LeftDB.Thing")) == 3


def test_extents_are_in_sorted_oid_order():
    view = _shared_results()["library"].view
    context = view.eval_context()
    for name in view.classes():
        oids = [obj.oid for obj in context.extents[name]]
        assert oids == sorted(oids) == [obj.oid for obj in view.extent(name)]


# ---------------------------------------------------------------------------
# reproducibility across hash seeds
# ---------------------------------------------------------------------------

_HASH_SEED_SCRIPT = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    sys.path.insert(0, sys.argv[2])
    from test_view_cache import _publication_stores
    from repro.constraints import parse_expression
    from repro.constraints.evaluate import evaluate
    from repro.fixtures import library_integration_spec
    from repro.integration import IntegrationWorkbench

    local, remote = _publication_stores(120)
    view = IntegrationWorkbench(library_integration_spec(), local, remote).run().view
    name = "Bookseller.Monograph"
    extent = view.eval_context().extents[name]
    total = sum(view.get_attr(obj, "shopprice") for obj in extent)
    aggregate = parse_expression("(avg (collect x for x in self) over shopprice) > 0")
    average = evaluate(aggregate.left, view.eval_context(self_extent_class=name))
    print(json.dumps({"oids": [obj.oid for obj in extent],
                      "sum": total.hex(), "avg": average.hex()}))
    """
)


def test_view_evaluation_is_independent_of_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, str(SRC), str(Path(__file__).parent)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=120,
        )
        outputs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0]["oids"] == sorted(outputs[0]["oids"])
    assert len(outputs[0]["oids"]) == 120


# ---------------------------------------------------------------------------
# cost guard
# ---------------------------------------------------------------------------


def test_shared_state_is_built_once_per_view_generation(monkeypatch):
    """100 validations and one select over a 2 000-per-side view build the
    view's evaluation state once and reuse the conformation's instance
    index built by merging.  Counts, not times."""
    builds = {"view": 0, "index": 0}
    build_state = IntegratedView._build_state
    index_instances = ConformationResult.instances_by_oid.func

    def counting_build_state(self):
        builds["view"] += 1
        return build_state(self)

    def counting_index(self):
        builds["index"] += 1
        return index_instances(self)

    counted_index = functools.cached_property(counting_index)
    counted_index.__set_name__(ConformationResult, "instances_by_oid")
    monkeypatch.setattr(IntegratedView, "_build_state", counting_build_state)
    monkeypatch.setattr(ConformationResult, "instances_by_oid", counted_index)

    local, remote = _publication_stores(2_000)
    result = IntegrationWorkbench(library_integration_spec(), local, remote).run()
    assert builds["index"] == 1  # merging built it
    view = result.view
    validator = GlobalUpdateValidator(result)
    merged = [
        obj
        for obj in view.merged_objects()
        if "libprice" in obj.component_on(Side.REMOTE).state
    ]
    assert len(merged) == 1_000

    view.rebuild_extents()
    builds["view"] = 0
    outcomes = set()
    for number, obj in enumerate(merged[:100]):
        libprice = obj.component_on(Side.REMOTE).state["libprice"]
        price = libprice - 1.0 if number % 2 else libprice + 1.0
        verdict = validator.validate(obj.oid, shopprice=price)
        outcomes.add(tuple(r.constraint for r in verdict.rejections))
    assert outcomes == {(), ("Bookseller.Item.oc1",)}
    assert len(view.select("Bookseller.Item", "shopprice > 60")) > 0
    assert builds == {"view": 1, "index": 1}

    # A new generation costs exactly one more build.
    view.add_virtual_extent_member("VirtualX", merged[0].oid)
    validator.validate(merged[0].oid, shopprice=1_000.0)
    assert builds == {"view": 2, "index": 1}


def test_validator_plans_each_write_shape_once(monkeypatch):
    """Validating the same shapes many times asks the component engine for
    each (side, class, property) plan once — and for a class's whole plan,
    the order several written properties run in, once.  Counts, not
    times: the memo is what keeps a validation as cheap as the hand-built
    plan it replaced."""
    result = _library_result()
    calls = collections.Counter()
    checks_for = ConstraintDependencyIndex.checks_for

    def counting(self, shape, store=None):
        calls[id(self), shape] += 1
        return checks_for(self, shape, store)

    monkeypatch.setattr(ConstraintDependencyIndex, "checks_for", counting)
    validator = GlobalUpdateValidator(result)
    merged = result.view.merged_objects()
    for _ in range(20):
        for obj in merged:
            validator.validate(obj.oid, shopprice=1.0)
            validator.validate(obj.oid, shopprice=500.0, libprice=2.0)
    shapes = {shape for _, shape in calls}
    assert ("Proceedings", "shopprice") in shapes and "Proceedings" in shapes
    assert set(calls.values()) == {1}
