"""Tests for the conformation phase (Sections 2.3 and 4).

The two worked examples of Section 4 are asserted exactly:
* ``oc2`` of Publication is reallocated to ``VirtPublisher`` as
  ``name in KNOWNPUBLISHERS``;
* ``oc1`` of RefereedPubl (``rating >= 2``) conforms to ``rating >= 4``
  through the ``multiply(2)`` conversion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import parse_expression, to_source
from repro.engine import ObjectStore
from repro.fixtures import (
    bookseller_schema,
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.integration.conformation import conform
from repro.integration.matching import match_instances
from repro.integration.merging import merge_instances
from repro.integration.relationships import Side
from repro.types import STRING, ClassRef, EnumType, SetType


@pytest.fixture(scope="module")
def conformation():
    spec = library_integration_spec()
    local_store, _ = cslibrary_store()
    remote_store, _ = bookseller_store()
    return conform(spec, local_store, remote_store)


def conformed_constraint(conformation, side, qualified_name):
    return conformation.on(side).conformed_constraints[qualified_name]


class TestSchemaConformation:
    def test_virtual_publisher_class_created(self, conformation):
        local = conformation.local.schema
        assert local.has_class("VirtPublisher")
        assert local.class_named("VirtPublisher").virtual
        assert local.attribute_type("VirtPublisher", "name") == STRING

    def test_publisher_attribute_becomes_reference(self, conformation):
        local = conformation.local.schema
        assert local.attribute_type("Publication", "publisher") == ClassRef(
            "VirtPublisher"
        )

    def test_ourprice_renamed_to_libprice(self, conformation):
        local = conformation.local.schema
        attributes = local.effective_attributes("Publication")
        assert "libprice" in attributes
        assert "ourprice" not in attributes

    def test_rating_type_converted(self, conformation):
        """multiply(2) turns the 1..5 scale into the even points of 1..10."""
        local = conformation.local.schema
        assert local.attribute_type("ScientificPubl", "rating") == EnumType(
            frozenset({2, 4, 6, 8, 10})
        )

    def test_remote_schema_mostly_untouched(self, conformation):
        remote = conformation.remote.schema
        assert remote.attribute_type("Proceedings", "rating").describe() == "1..10"
        # Item.authors conforms to the local name 'editors'.
        assert "editors" in remote.effective_attributes("Item")

    def test_conformed_propeqs_updated(self, conformation):
        by_name = {p.name: p for p in conformation.propeqs}
        assert by_name["name"].local_class == "VirtPublisher"
        assert by_name["name"].remote_class == "Publisher"
        assert by_name["libprice"].local_class == "Publication"
        assert by_name["rating"].local_class == "ScientificPubl"


class TestConstraintConformation:
    def test_paper_example_oc2_reallocated(self, conformation):
        """Section 4: 'object constraint on VirtPublisher:
        oc1: name in KNOWNPUBLISHERS'."""
        oc2 = conformed_constraint(
            conformation, Side.LOCAL, "CSLibrary.Publication.oc2"
        )
        assert oc2.owner == "VirtPublisher"
        assert oc2.formula == parse_expression("name in KNOWNPUBLISHERS")

    def test_paper_example_rating_conversion(self, conformation):
        """Section 4: 'object constraint on RefereedPubl: oc1: rating >= 4'."""
        oc1 = conformed_constraint(
            conformation, Side.LOCAL, "CSLibrary.RefereedPubl.oc1"
        )
        assert oc1.owner == "RefereedPubl"
        assert oc1.formula == parse_expression("rating >= 4")

    def test_nonrefereed_bound_converted(self, conformation):
        oc1 = conformed_constraint(
            conformation, Side.LOCAL, "CSLibrary.NonRefereedPubl.oc1"
        )
        assert oc1.formula == parse_expression("rating <= 6")

    def test_price_constraints_become_identical(self, conformation):
        """'the identical conformed constraints oc1 of classes Publication
        and Item' (Section 5.1.3)."""
        local = conformed_constraint(
            conformation, Side.LOCAL, "CSLibrary.Publication.oc1"
        )
        remote = conformed_constraint(
            conformation, Side.REMOTE, "Bookseller.Item.oc1"
        )
        assert local.formula == remote.formula == parse_expression(
            "libprice <= shopprice"
        )

    def test_avg_class_constraint_converted(self, conformation):
        cc1 = conformed_constraint(
            conformation, Side.LOCAL, "CSLibrary.ScientificPubl.cc1"
        )
        assert cc1.formula == parse_expression(
            "(avg (collect x for x in self) over rating) < 8"
        )

    def test_key_constraints_survive(self, conformation):
        cc1 = conformed_constraint(
            conformation, Side.LOCAL, "CSLibrary.Publication.cc1"
        )
        assert to_source(cc1.formula) == "key isbn"

    def test_remote_conditional_constraints_conformed(self, conformation):
        oc3 = conformed_constraint(
            conformation, Side.REMOTE, "Bookseller.Proceedings.oc3"
        )
        assert oc3.formula == parse_expression(
            "publisher.name = 'ACM' implies rating >= 6"
        )

    def test_database_constraint_conformed(self, conformation):
        db1 = conformed_constraint(conformation, Side.REMOTE, "Bookseller.db1")
        assert db1.formula == parse_expression(
            "forall p in Publisher exists i in Item | i.publisher = p"
        )

    def test_nothing_dropped_in_object_view(self, conformation):
        assert conformation.local.dropped_constraints == []
        assert conformation.remote.dropped_constraints == []


class TestInstanceConformation:
    def test_virtual_publisher_objects_created(self, conformation):
        virtuals = conformation.local.instances_of("VirtPublisher")
        names = {obj.state["name"] for obj in virtuals}
        assert names == {"ACM", "Springer", "Kluwer", "IEEE", "Elsevier"}
        assert all(obj.virtual for obj in virtuals)

    def test_publications_reference_virtual_publishers(self, conformation):
        local = conformation.local
        vldb = next(
            obj for obj in local.instances if obj.source_oid and "RefereedPubl" in obj.oid
        )
        publisher_oid = vldb.state["publisher"]
        publisher = next(o for o in local.instances if o.oid == publisher_oid)
        assert publisher.class_name == "VirtPublisher"

    def test_rating_values_converted(self, conformation):
        local = conformation.local
        rated = [
            obj.state["rating"]
            for obj in local.instances_of("ScientificPubl")
        ]
        assert sorted(rated) == [4, 6, 8]  # 2, 3, 4 on the 1..5 scale

    def test_ourprice_values_renamed(self, conformation):
        local = conformation.local
        publication = local.instances_of("Publication")[0]
        assert "libprice" in publication.state
        assert "ourprice" not in publication.state

    def test_remote_reference_oids_prefixed(self, conformation):
        remote = conformation.remote
        item = remote.instances_of("Proceedings")[0]
        assert item.state["publisher"].startswith("remote:Publisher#")

    def test_remote_authors_renamed_to_editors(self, conformation):
        remote = conformation.remote
        item = remote.instances_of("Item")[0]
        assert "editors" in item.state

    def test_conformed_oids_carry_side(self, conformation):
        assert all(o.oid.startswith("local:") for o in conformation.local.instances)
        assert all(o.oid.startswith("remote:") for o in conformation.remote.instances)


class TestValueView:
    """The alternative resolution of the object-value conflict: hiding."""

    @pytest.fixture()
    def value_conformation(self):
        spec = library_integration_spec()
        local_store, _ = cslibrary_store()
        remote_store, _ = bookseller_store()
        return conform(spec, local_store, remote_store, descriptivity_view="value")

    def test_publisher_class_hidden(self, value_conformation):
        remote = value_conformation.remote.schema
        assert not remote.has_class("Publisher")

    def test_item_publisher_becomes_value(self, value_conformation):
        remote = value_conformation.remote.schema
        assert remote.attribute_type("Item", "publisher") == STRING

    def test_instances_cast_to_values(self, value_conformation):
        remote = value_conformation.remote
        item = remote.instances_of("Proceedings")[0]
        assert isinstance(item.state["publisher"], str)
        assert not item.state["publisher"].startswith("remote:")

    def test_hidden_database_constraint_dropped(self, value_conformation):
        dropped = dict(value_conformation.remote.dropped_constraints)
        assert "Bookseller.db1" in dropped

    def test_location_constraints_would_be_hidden(self):
        """A constraint on Publisher.location is dropped when hiding."""
        spec = library_integration_spec()
        from repro.constraints.model import Constraint, ConstraintKind

        publisher = spec.remote_schema.class_named("Publisher")
        publisher.add_constraint(
            Constraint(
                "oc9",
                ConstraintKind.OBJECT,
                parse_expression("location != 'Atlantis'"),
                database="Bookseller",
            )
        )
        result = conform(spec, descriptivity_view="value")
        dropped = dict(result.remote.dropped_constraints)
        assert "Bookseller.Publisher.oc9" in dropped

    def test_paths_through_hidden_class_collapse(self, value_conformation):
        oc1 = value_conformation.remote.conformed_constraints[
            "Bookseller.Proceedings.oc1"
        ]
        assert oc1.formula == parse_expression("publisher = 'IEEE' implies ref? = true")

    def test_a_set_of_references_to_the_hidden_class_becomes_a_set_of_values(self):
        """``sellers : P Publisher`` is cast element by element, as the scalar
        ``publisher`` is: its type becomes ``P string`` and each element the
        publisher's name, so the merged view names no hidden object."""
        schema = bookseller_schema()
        schema.class_named("Item").add_attribute("sellers", SetType(ClassRef("Publisher")))
        remote_store = ObjectStore(schema)
        with remote_store.transaction():
            acm = remote_store.insert("Publisher", name="ACM", location="NY")
            ieee = remote_store.insert("Publisher", name="IEEE", location="NJ")
            remote_store.insert(
                "Monograph", title="Readings", isbn="ISBN-008", publisher=acm,
                authors=frozenset({"Stonebraker"}), shopprice=55.0, libprice=50.0,
                subjects=frozenset({"databases"}), sellers=frozenset({acm.oid, ieee.oid}),
            )  # fmt: skip
            remote_store.insert(
                "Monograph", title="Transactions", isbn="ISBN-009", publisher=ieee,
                authors=frozenset({"Gray"}), shopprice=72.0, libprice=66.0,
                subjects=frozenset({"transactions"}), sellers=frozenset({ieee.oid}),
            )  # fmt: skip
        local_store, _ = cslibrary_store()
        spec = library_integration_spec(remote=schema)
        conformation = conform(spec, local_store, remote_store, descriptivity_view="value")

        remote = conformation.remote
        assert remote.schema.attribute_type("Item", "sellers") == SetType(STRING)
        sellers = {
            obj.state["title"]: obj.state["sellers"] for obj in remote.instances_of("Monograph")
        }
        assert sellers == {
            "Readings": frozenset({"ACM", "IEEE"}),
            "Transactions": frozenset({"IEEE"}),
        }
        view = merge_instances(spec, conformation, match_instances(spec, local_store, remote_store))
        merged = {
            obj.state["title"]: obj.state["sellers"]
            for obj in view.objects()
            if "sellers" in obj.state
        }
        assert merged == sellers


class TestPersonnelConformation:
    def test_identity_conformation(self):
        spec = personnel_integration_spec()
        db1, db2, _ = personnel_stores()
        result = conform(spec, db1, db2)
        oc1 = result.local.conformed_constraints["PersonnelDB1.Employee.oc1"]
        assert oc1.formula == parse_expression("trav_reimb in {10, 20}")
        oc1_remote = result.remote.conformed_constraints["PersonnelDB2.Employee.oc1"]
        assert oc1_remote.formula == parse_expression("trav_reimb in {14, 24}")

    def test_instances_pass_through(self):
        spec = personnel_integration_spec()
        db1, db2, _ = personnel_stores()
        result = conform(spec, db1, db2)
        assert len(result.local.instances) == 2
        assert len(result.remote.instances) == 2


@pytest.mark.parametrize(
    "setup",
    [
        lambda: (library_integration_spec(), cslibrary_store()[0], bookseller_store()[0]),
        lambda: (personnel_integration_spec(), *personnel_stores()[:2]),
    ],
    ids=["library", "personnel"],
)
def test_conformed_constraints_keep_their_positions(setup):
    """Conformation rebuilds formulas without losing the source position a
    diagnostic on the conformed constraint cites."""
    result = conform(*setup())
    for side in (Side.LOCAL, Side.REMOTE):
        conformed = result.on(side)
        originals = {
            constraint.qualified_name: constraint
            for constraint in conformed.original_schema.all_constraints()
        }
        assert conformed.conformed_constraints
        for name, constraint in conformed.conformed_constraints.items():
            position = originals[name].formula.position()
            assert position is not None
            assert constraint.formula.position() == position, name


class TestSchemaSurgeryIsSeenByLookups:
    """Conformation retypes, removes and renames through the schema's
    mutators, so memoised lookups never outlive the surgery."""

    LOCAL = """Database L

Class A
attributes
  x : string
end A

Class B
attributes
  y : string
end B
"""
    REMOTE = """Database R

Class Pub
attributes
  name : string
end Pub
"""

    def test_two_descriptivity_rules_sharing_a_source_class(self):
        from repro.integration.rules import ComparisonRule
        from repro.integration.spec import IntegrationSpecification
        from repro.tm import parse_database

        spec = IntegrationSpecification(
            parse_database(self.LOCAL), parse_database(self.REMOTE)
        )
        spec.add_rule(ComparisonRule.descriptivity("Pub", "A", "x", "name"))
        spec.add_rule(ComparisonRule.descriptivity("Pub", "B", "y", "name"))
        local = conform(spec).local.schema
        # The second rule finds VirtPub already made and only retypes B.y,
        # after attribute_type() had memoised B's effective attributes.
        assert local.effective_attributes("A")["x"].tm_type == ClassRef("VirtPub")
        assert local.effective_attributes("B")["y"].tm_type == ClassRef("VirtPub")
        assert local.attribute_type("B", "y") == ClassRef("VirtPub")


# ---------------------------------------------------------------------------
# database constraints conform like class-owned ones
# ---------------------------------------------------------------------------

#: Database constraints mirroring class-owned ones of Figure 1: each must
#: conform as its class-owned twin does (``RefereedPubl.oc1``,
#: ``ScientificPubl.cc1``, ``Publication.cc2``, ``Proceedings.oc1``).
LOCAL_DATABASE_CONSTRAINTS = """
Database constraints
  dbr: forall x in RefereedPubl | x.rating >= 2
  dba: (avg (collect x for x in ScientificPubl) over rating) < 4
  dbs: (sum (collect x for x in Publication) over ourprice) < MAX
"""
REMOTE_DATABASE_CONSTRAINT = """
  dbp: forall i in Item | i.publisher.name in {'ACM', 'IEEE'}
"""


class TestDatabaseConstraintConformation:
    @pytest.fixture(params=["object", "value"])
    def conformed(self, request):
        from repro.fixtures.schemas import BOOKSELLER_SOURCE, CSLIBRARY_SOURCE
        from repro.tm import parse_database

        spec = library_integration_spec(
            parse_database(CSLIBRARY_SOURCE + LOCAL_DATABASE_CONSTRAINTS),
            parse_database(BOOKSELLER_SOURCE + REMOTE_DATABASE_CONSTRAINT),
        )
        return request.param, conform(spec, descriptivity_view=request.param)

    @staticmethod
    def source(result, side, name):
        return to_source(result.on(side).conformed_constraints[name].formula)

    def test_quantified_path_is_converted(self, conformed):
        _view, result = conformed
        assert self.source(result, Side.LOCAL, "CSLibrary.dbr") == (
            "forall x in RefereedPubl | x.rating >= 4"
        )
        assert self.source(result, Side.LOCAL, "CSLibrary.RefereedPubl.oc1") == "rating >= 4"

    def test_aggregate_over_a_named_class_is_converted(self, conformed):
        _view, result = conformed
        assert self.source(result, Side.LOCAL, "CSLibrary.dba") == (
            "(avg (collect x for x in ScientificPubl) over rating) < 8"
        )
        assert self.source(result, Side.LOCAL, "CSLibrary.ScientificPubl.cc1") == (
            "(avg (collect x for x in self) over rating) < 8"
        )

    def test_aggregate_over_a_named_class_is_renamed(self, conformed):
        _view, result = conformed
        assert self.source(result, Side.LOCAL, "CSLibrary.dbs") == (
            "(sum (collect x for x in Publication) over libprice) < MAX"
        )

    def test_path_through_a_hidden_class_collapses(self, conformed):
        view, result = conformed
        expected = {
            "object": "forall i in Item | i.publisher.name in {'ACM', 'IEEE'}",
            "value": "forall i in Item | i.publisher in {'ACM', 'IEEE'}",
        }[view]
        assert self.source(result, Side.REMOTE, "Bookseller.dbp") == expected
        assert lint_errors(result.remote.schema) == []


def lint_errors(schema):
    from repro.constraints.analysis import lint_schema

    return [d.render() for d in lint_schema(schema) if d.severity == "error"]


def _scalar_paths(schema, class_name, depth=2):
    """``(segments, type)`` of every scalar attribute path from a class,
    through at most ``depth`` attributes (references followed)."""
    from repro.types import ClassRef as Ref, SetType as Set

    paths = []
    for name, attribute in sorted(schema.effective_attributes(class_name).items()):
        tm_type = attribute.tm_type
        if isinstance(tm_type, Ref):
            if depth > 1:
                paths += [
                    ((name, *tail), end)
                    for tail, end in _scalar_paths(schema, tm_type.class_name, depth - 1)
                ]
        elif not isinstance(tm_type, Set):
            paths.append(((name,), tm_type))
    return paths


@st.composite
def _constraint_sources(draw, schema):
    """One database or object constraint over ``schema``: a bound on a scalar
    path (rooted at a quantifier variable or at the owner), or an
    aggregate bound over a numeric attribute of a named class."""
    classes = sorted(schema.classes)
    class_name = draw(st.sampled_from(classes))
    shape = draw(st.sampled_from(["quantified", "owned", "aggregate"]))
    if shape == "aggregate":
        numeric = [
            segments[0]
            for segments, tm_type in _scalar_paths(schema, class_name, depth=1)
            if tm_type.is_numeric
        ]
        if not numeric:
            return None
        over = draw(st.sampled_from(numeric))
        func = draw(st.sampled_from(["sum", "avg", "min", "max"]))
        bound = draw(st.integers(1, 20))
        return None, f"({func} (collect y for y in {class_name}) over {over}) < {bound}"
    paths = _scalar_paths(schema, class_name)
    if not paths:
        return None
    segments, tm_type = draw(st.sampled_from(paths))
    if tm_type.is_numeric:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        constant = str(draw(st.integers(1, 9)))
    elif tm_type.describe() == "boolean":
        op, constant = "=", draw(st.sampled_from(["true", "false"]))
    else:
        op, constant = draw(st.sampled_from(["=", "!="])), "'ACM'"
    if shape == "owned":
        return class_name, f"{'.'.join(segments)} {op} {constant}"
    return None, f"forall v in {class_name} | v.{'.'.join(segments)} {op} {constant}"


@st.composite
def _integrations(draw):
    """A Figure 1 (with the database constraints above) or personnel
    specification whose schemas carry a few generated constraints, and a
    descriptivity view."""
    from repro.constraints.classify import classify_formula
    from repro.constraints.model import Constraint
    from repro.fixtures.schemas import (
        BOOKSELLER_SOURCE,
        CSLIBRARY_SOURCE,
        PERSONNEL_DB1_SOURCE,
        PERSONNEL_DB2_SOURCE,
    )
    from repro.tm import parse_database

    make, local, remote = draw(
        st.sampled_from(
            [
                (
                    library_integration_spec,
                    CSLIBRARY_SOURCE + LOCAL_DATABASE_CONSTRAINTS,
                    BOOKSELLER_SOURCE + REMOTE_DATABASE_CONSTRAINT,
                ),
                (personnel_integration_spec, PERSONNEL_DB1_SOURCE, PERSONNEL_DB2_SOURCE),
            ]
        )
    )
    schemas = []
    for schema in (parse_database(local), parse_database(remote)):
        for index in range(draw(st.integers(1, 3))):
            drawn = draw(_constraint_sources(schema))
            if drawn is None:
                continue
            owner, source = drawn
            formula = parse_expression(source)
            constraint = Constraint(
                f"gen{index}", classify_formula(formula), formula, database=schema.name
            )
            if owner is None:
                schema.add_database_constraint(constraint)
            else:
                schema.class_named(owner).add_constraint(constraint)
        schemas.append(schema)
    return make(*schemas), draw(st.sampled_from(["object", "value"]))


@settings(max_examples=80, deadline=None)
@given(_integrations())
def test_conformation_keeps_a_lint_clean_schema_lint_clean(integration):
    """The oracle of constraint conformation: a schema that lints free of
    errors conforms to one that does too, in either view — every conformed
    path, key and aggregate names what the conformed schema has."""
    spec, view = integration
    originals = (spec.local_schema, spec.remote_schema)
    result = conform(spec, descriptivity_view=view)
    for original, side in zip(originals, (Side.LOCAL, Side.REMOTE)):
        if lint_errors(original) == []:
            assert lint_errors(result.on(side).schema) == []
