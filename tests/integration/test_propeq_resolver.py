"""Differential test of the one property-equivalence resolver.

``IntegrationSpecification.propeq_for``, ``SubjectivityAnalysis
.status_of_property``, ``ConformationResult.propeq_for`` and
``ConformationResult.propeq_between`` all answer through
:func:`repro.integration.propeq.first_covering`.  Each is checked here, over
every side × class × property of both fixture specifications, against a
plain scan that restates the covering rule without sharing any code with it.
A third case adds a propeq on subclasses that an ancestor's propeq already
covers, where only the *first* covering propeq is the right answer.
"""

import pytest

from repro.fixtures import library_integration_spec, personnel_integration_spec
from repro.integration.conformation import ConformedPropeq, conform
from repro.integration.decision import Maximum
from repro.integration.propeq import PropertyEquivalence
from repro.integration.relationships import Side
from repro.integration.subjectivity import PropertyStatus, analyse_subjectivity

SIDES = (Side.LOCAL, Side.REMOTE)
#: Covered already by the library's Publication.ourprice ≡ Item.libprice.
NARROWER = PropertyEquivalence(
    "RefereedPubl", "ourprice", "Proceedings", "libprice", df=Maximum(), conformed_name="libprice"
)


def _overlapping_spec():
    spec = library_integration_spec()
    spec.add_propeq(NARROWER)
    return spec


SPECS = {
    "library": library_integration_spec,
    "personnel": personnel_integration_spec,
    "overlapping": _overlapping_spec,
}


def _is_below(schema, child: str, declared: str) -> bool:
    return (
        schema.has_class(child)
        and schema.has_class(declared)
        and schema.is_subclass_of(child, declared)
    )


def _naive_spec_propeq(spec, side, class_name, prop):
    schema = spec.schema_on(side)
    for propeq in spec.propeqs:
        declared = propeq.local_class if side is Side.LOCAL else propeq.remote_class
        declared_prop = propeq.local_property if side is Side.LOCAL else propeq.remote_property
        if declared_prop == prop and _is_below(schema, class_name, declared):
            return propeq
    return None


def _naive_status(analysis, side, class_name, prop):
    """The first covering key of the analysis's property table."""
    schema = analysis.spec.schema_on(side)
    for (key_side, declared, declared_prop), status in analysis.property_status.items():
        if key_side is side and declared_prop == prop and _is_below(schema, class_name, declared):
            return status
    return PropertyStatus.OBJECTIVE


def _naive_conformed_propeq(conformation, side, class_name, prop):
    schema = conformation.on(side).schema
    for propeq in conformation.propeqs:
        declared = propeq.local_class if side is Side.LOCAL else propeq.remote_class
        if propeq.name == prop and _is_below(schema, class_name, declared):
            return propeq
    return None


def _naive_pair_propeq(conformation, local_class, remote_class, prop):
    for propeq in conformation.propeqs:
        if (
            propeq.name == prop
            and _is_below(conformation.local.schema, local_class, propeq.local_class)
            and _is_below(conformation.remote.schema, remote_class, propeq.remote_class)
        ):
            return propeq
    return None


def _classes(schema) -> list[str]:
    return [*schema.classes, "NoSuchClass"]


def _properties(schema, names) -> set[str]:
    found = set(names) | {"no_such_property"}
    for class_name in schema.classes:
        found.update(schema.effective_attributes(class_name))
    return found


@pytest.mark.parametrize("name", sorted(SPECS))
def test_original_lookups_match_a_naive_scan(name):
    spec = SPECS[name]()
    analysis = analyse_subjectivity(spec)
    checked = covered = 0
    for side in SIDES:
        schema = spec.schema_on(side)
        names = [propeq.property_on(side) for propeq in spec.propeqs]
        for class_name in _classes(schema):
            for prop in sorted(_properties(schema, names)):
                expected = _naive_spec_propeq(spec, side, class_name, prop)
                assert spec.propeq_for(side, class_name, prop) is expected
                assert analysis.status_of_property(side, class_name, prop) is _naive_status(
                    analysis, side, class_name, prop
                )
                checked += 1
                covered += expected is not None
    assert covered and covered < checked


@pytest.mark.parametrize("view", ["object", "value"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_conformed_lookups_match_a_naive_scan(name, view):
    if name == "overlapping":
        # Conformation renames a property once; append the narrower propeq
        # in conformed terms before the first lookup.
        conformation = conform(library_integration_spec(), descriptivity_view=view)
        narrower = ConformedPropeq("RefereedPubl", "Proceedings", "libprice", Maximum(), NARROWER)
        conformation.propeqs.append(narrower)
    else:
        conformation = conform(SPECS[name](), descriptivity_view=view)
    names = [propeq.name for propeq in conformation.propeqs]
    covered = 0
    for side in SIDES:
        schema = conformation.on(side).schema
        for class_name in _classes(schema):
            for prop in sorted(_properties(schema, names)):
                expected = _naive_conformed_propeq(conformation, side, class_name, prop)
                assert conformation.propeq_for(side, class_name, prop) is expected
                covered += expected is not None
    assert covered
    local_schema, remote_schema = conformation.local.schema, conformation.remote.schema
    props = sorted(_properties(local_schema, names) | _properties(remote_schema, names))
    paired = 0
    for local_class in _classes(local_schema):
        for remote_class in _classes(remote_schema):
            for prop in props:
                expected = _naive_pair_propeq(conformation, local_class, remote_class, prop)
                # Twice: the second answer comes from the memo.
                for _ in range(2):
                    found = conformation.propeq_between(local_class, remote_class, prop)
                    assert found is expected
                paired += expected is not None
    assert paired
