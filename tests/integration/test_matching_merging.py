"""Tests for rule matching, object merging and the derived hierarchy —
the Figure 2 process of the paper."""

import pytest

from repro.engine.store import ObjectStore
from repro.fixtures import (
    bookseller_schema,
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.integration.conformation import conform
from repro.integration.hierarchy import derive_hierarchy
from repro.integration.matching import match_instances
from repro.integration.merging import merge_instances
from repro.integration.relationships import Side
from repro.types.primitives import ClassRef, SetType


@pytest.fixture(scope="module")
def library_setup():
    spec = library_integration_spec()
    local_store, local_named = cslibrary_store()
    remote_store, remote_named = bookseller_store()
    match = match_instances(spec, local_store, remote_store)
    conformation = conform(spec, local_store, remote_store)
    view = merge_instances(spec, conformation, match)
    hierarchy = derive_hierarchy(view, conformation)
    return {
        "spec": spec,
        "match": match,
        "conformation": conformation,
        "view": view,
        "hierarchy": hierarchy,
        "local_named": local_named,
        "remote_named": remote_named,
    }


class TestMatching:
    def test_equality_matches_on_isbn(self, library_setup):
        match = library_setup["match"]
        pairs = {
            (m.local.state["isbn"], m.remote.state["isbn"]) for m in match.equalities
        }
        assert pairs == {("ISBN-001", "ISBN-001"), ("ISBN-002", "ISBN-002")}

    def test_refereed_similarity(self, library_setup):
        match = library_setup["match"]
        refereed = {
            m.source.state["isbn"]
            for m in match.similarities
            if m.target_class == "RefereedPubl"
        }
        assert refereed == {"ISBN-001", "ISBN-006"}

    def test_nonrefereed_similarity(self, library_setup):
        match = library_setup["match"]
        nonrefereed = {
            m.source.state["isbn"]
            for m in match.similarities
            if m.target_class == "NonRefereedPubl"
        }
        assert nonrefereed == {"ISBN-007"}

    def test_local_to_remote_similarity(self, library_setup):
        """Sim(O:ScientificPubl, Proceedings) <- contains(O.title, 'Proceed')."""
        match = library_setup["match"]
        proceedings = {
            m.source.state["isbn"]
            for m in match.similarities
            if m.target_class == "Proceedings" and m.source_side is Side.LOCAL
        }
        assert proceedings == {"ISBN-001", "ISBN-003"}


class TestMerging:
    def test_equal_objects_merged(self, library_setup):
        view = library_setup["view"]
        merged = view.merged_objects()
        merged_isbns = {
            obj.state["isbn"]
            for obj in merged
            if "isbn" in obj.state
        }
        assert {"ISBN-001", "ISBN-002"} <= merged_isbns

    def test_publishers_merged_via_descriptivity(self, library_setup):
        """VirtPublisher('ACM') merges with the bookseller's Publisher."""
        view = library_setup["view"]
        merged_names = {
            obj.state.get("name")
            for obj in view.merged_objects()
            if "name" in obj.state
        }
        assert merged_names == {"ACM", "IEEE", "Springer"}

    def test_trust_decision_functions_pick_values(self, library_setup):
        """Global libprice comes from CSLibrary, shopprice from Bookseller."""
        view = library_setup["view"]
        vldb = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
        )
        assert vldb.state["libprice"] == 90.0  # trust(CSLibrary): local 90
        assert vldb.state["shopprice"] == 99.0  # trust(Bookseller): remote 99

    def test_avg_rating_on_common_scale(self, library_setup):
        """Library rating 4 (→8 conformed) and bookseller 8 average to 8."""
        view = library_setup["view"]
        vldb = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
        )
        assert vldb.state["rating"] == 8

    def test_union_merges_editor_sets(self, library_setup):
        view = library_setup["view"]
        tp = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-002"
        )
        assert tp.state["editors"] == frozenset({"Gray", "Reuter"})

    def test_merged_references_not_flagged_as_differences(self, library_setup):
        view = library_setup["view"]
        vldb = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
        )
        assert "publisher" not in vldb.value_differences

    def test_value_differences_recorded(self, library_setup):
        view = library_setup["view"]
        vldb = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
        )
        # Prices disagreed (90 vs 92, 95 vs 99).
        assert "libprice" in vldb.value_differences
        assert vldb.value_differences["libprice"] == (90.0, 92.0)

    def test_singleton_objects_survive(self, library_setup):
        view = library_setup["view"]
        isbns = {
            obj.state["isbn"] for obj in view.objects() if "isbn" in obj.state
        }
        assert {"ISBN-003", "ISBN-004", "ISBN-005", "ISBN-006", "ISBN-007", "ISBN-008"} <= isbns

    def test_references_remapped_to_global_oids(self, library_setup):
        view = library_setup["view"]
        vldb = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
        )
        publisher = view.get(vldb.state["publisher"])
        assert publisher.state["name"] == "ACM"


class TestClassification:
    def test_merged_object_classified_on_both_sides(self, library_setup):
        view = library_setup["view"]
        vldb = next(
            obj for obj in view.merged_objects() if obj.state.get("isbn") == "ISBN-001"
        )
        assert "CSLibrary.RefereedPubl" in vldb.classes
        assert "CSLibrary.Publication" in vldb.classes  # ancestor
        assert "Bookseller.Proceedings" in vldb.classes
        assert "Bookseller.Item" in vldb.classes  # ancestor

    def test_similarity_classifies_remote_into_local_class(self, library_setup):
        view = library_setup["view"]
        icde = next(
            obj for obj in view.objects() if obj.state.get("isbn") == "ISBN-006"
        )
        assert "CSLibrary.RefereedPubl" in icde.classes
        assert "CSLibrary.ScientificPubl" in icde.classes  # ancestor closure

    def test_local_object_classified_into_remote_class(self, library_setup):
        view = library_setup["view"]
        dutch = next(
            obj for obj in view.objects() if obj.state.get("isbn") == "ISBN-003"
        )
        assert "Bookseller.Proceedings" in dutch.classes
        assert "Bookseller.Item" in dutch.classes

    def test_untouched_objects_stay_local(self, library_setup):
        view = library_setup["view"]
        newsletter = next(
            obj for obj in view.objects() if obj.state.get("isbn") == "ISBN-005"
        )
        assert newsletter.classes == {"CSLibrary.Publication"}

    def test_global_extents(self, library_setup):
        view = library_setup["view"]
        refereed = view.extent("CSLibrary.RefereedPubl")
        isbns = {obj.state["isbn"] for obj in refereed}
        assert isbns == {"ISBN-001", "ISBN-002", "ISBN-006"}


class TestDerivedHierarchy:
    def test_refereed_proceedings_virtual_class(self, library_setup):
        """Figure 2 / Section 2.3: the partial overlap of Proceedings and
        RefereedPubl yields the virtual subclass RefereedProceedings."""
        hierarchy = library_setup["hierarchy"]
        view = library_setup["view"]
        assert "RefereedProceedings" in hierarchy.virtual_classes
        members = {
            obj.state["isbn"] for obj in view.extent("RefereedProceedings")
        }
        assert members == {"ISBN-001", "ISBN-006"}

    def test_virtual_class_is_subclass_of_both(self, library_setup):
        hierarchy = library_setup["hierarchy"]
        assert hierarchy.is_subclass("RefereedProceedings", "CSLibrary.RefereedPubl")
        assert hierarchy.is_subclass("RefereedProceedings", "Bookseller.Proceedings")

    def test_publisher_subclass_derived_from_extents(self, library_setup):
        """Every bookseller Publisher merged into a VirtPublisher, but not
        vice versa: Publisher isa VirtPublisher is derived."""
        hierarchy = library_setup["hierarchy"]
        assert (
            "Bookseller.Publisher",
            "CSLibrary.VirtPublisher",
        ) in hierarchy.derived_edges

    def test_declared_isa_edges_present(self, library_setup):
        hierarchy = library_setup["hierarchy"]
        assert hierarchy.is_subclass(
            "CSLibrary.RefereedPubl", "CSLibrary.Publication"
        )
        assert hierarchy.is_subclass("Bookseller.Proceedings", "Bookseller.Item")


class TestPersonnelMerging:
    @pytest.fixture()
    def personnel_view(self):
        spec = personnel_integration_spec()
        db1, db2, named = personnel_stores()
        match = match_instances(spec, db1, db2)
        conformation = conform(spec, db1, db2)
        view = merge_instances(spec, conformation, match)
        return view

    def test_shared_employee_merged(self, personnel_view):
        merged = personnel_view.merged_objects()
        assert len(merged) == 1
        assert merged[0].state["ssn"] == "100-20"

    def test_intro_example_avg_reimbursement(self, personnel_view):
        """The paper's policy: avg(20, 14) = 17 for the shared employee."""
        bob = personnel_view.merged_objects()[0]
        assert bob.state["trav_reimb"] == 17

    def test_salary_trusts_db1(self, personnel_view):
        bob = personnel_view.merged_objects()[0]
        assert bob.state["salary"] == 1400.0

    def test_local_only_employees_keep_values(self, personnel_view):
        alice = next(
            obj for obj in personnel_view.objects() if obj.state["ssn"] == "100-10"
        )
        assert alice.state["trav_reimb"] == 10
        assert alice.classes == {"PersonnelDB1.Employee"}

    def test_extent_counts(self, personnel_view):
        assert len(personnel_view.extent("PersonnelDB1.Employee")) == 2
        assert len(personnel_view.extent("PersonnelDB2.Employee")) == 2
        assert len(list(personnel_view.objects())) == 3


class TestMergeLookups:
    def test_one_propeq_scan_per_class_pair_and_property(self, library_setup, monkeypatch):
        """Merging resolves each (local class, remote class, property) once,
        through the conformation's memoised ``propeq_between``."""
        from collections import Counter

        from repro.integration import conformation as conformation_module

        scans = Counter()
        original = conformation_module.first_covering

        def counting(propeqs, prop, placements, schema_on):
            scans[(*(class_name for _, class_name in placements), prop)] += 1
            return original(propeqs, prop, placements, schema_on)

        monkeypatch.setattr(conformation_module, "first_covering", counting)
        spec = library_setup["spec"]
        local_store, _ = cslibrary_store()
        remote_store, _ = bookseller_store()
        conformation = conform(spec, local_store, remote_store)
        view = merge_instances(spec, conformation, match_instances(spec, local_store, remote_store))
        merged = view.merged_objects()
        shared = sum(
            len(obj.component_on(Side.LOCAL).state.keys() & obj.component_on(Side.REMOTE).state)
            for obj in merged
        )
        assert scans and max(scans.values()) == 1
        assert all(len(key) == 3 for key in scans)  # every lookup is a class pair's
        assert sum(scans.values()) < shared
        expected = library_setup["view"]
        assert [(o.oid, o.state, o.value_differences, o.classes) for o in view.objects()] == [
            (o.oid, o.state, o.value_differences, o.classes) for o in expected.objects()
        ]
        # Every merged value is the one a fresh lookup's decision function gives.
        for obj in merged:
            local, remote = obj.component_on(Side.LOCAL), obj.component_on(Side.REMOTE)
            for key, (local_value, remote_value) in obj.value_differences.items():
                propeq = original(
                    conformation.propeqs,
                    key,
                    ((Side.LOCAL, local.class_name), (Side.REMOTE, remote.class_name)),
                    lambda side: conformation.on(side).schema,
                )
                if propeq is not None:
                    assert obj.state[key] == propeq.df.apply(local_value, remote_value)


class TestReferenceRemap:
    def test_fixture_states_are_the_components_with_every_oid_remapped(self, library_setup):
        """No fixture string spells a conformed oid, so each state and value
        difference is what remapping *every* string value gives."""
        view = library_setup["view"]
        to_global = {
            component.oid: obj.oid
            for obj in view.objects()
            for component in obj.components.values()
        }

        def remap(value):
            return to_global.get(value, value) if isinstance(value, str) else value

        remapped = 0
        for obj in view.objects():
            states = {side: component.state for side, component in obj.components.items()}
            assert obj.state.keys() == set().union(*states.values())
            for side, state in states.items():
                other = states.get(side.other, {})
                for key, value in state.items():
                    remapped += remap(value) != value
                    if key in obj.value_differences:
                        assert obj.value_differences[key][side is Side.REMOTE] == remap(value)
                    elif key in other:
                        assert remap(value) == remap(other[key])
                    else:
                        assert obj.state[key] == remap(value)
        assert remapped > 0

    def test_string_spelling_a_conformed_oid_is_not_remapped(self):
        local_store, local_named = cslibrary_store()
        remote_store, _ = bookseller_store()
        spelled = f"remote:{remote_store.extent('Publisher')[0].oid}"
        local_store.update(local_named["dutch_day"], title=spelled)
        spec = library_integration_spec()
        conformation = conform(spec, local_store, remote_store)
        view = merge_instances(spec, conformation, match_instances(spec, local_store, remote_store))
        assert spelled in conformation.instances_by_oid
        dutch_day = next(obj for obj in view.objects() if obj.state.get("isbn") == "ISBN-003")
        assert dutch_day.state["title"] == spelled
        assert view.get(dutch_day.state["publisher"]).state["name"] == "Kluwer"


class TestReferenceSets:
    def test_a_set_of_references_is_conformed_and_remapped(self):
        """``partners : P Publisher`` holds component oids: conformation
        prefixes every element with its side, and merging makes every
        element a global oid."""
        schema = bookseller_schema()
        schema.class_named("Publisher").add_attribute("partners", SetType(ClassRef("Publisher")))
        remote_store = ObjectStore(schema)
        with remote_store.transaction():
            acm = remote_store.insert("Publisher", name="ACM", location="NY", partners=frozenset())
            ieee = remote_store.insert(
                "Publisher", name="IEEE", location="NJ", partners=frozenset({acm.oid})
            )
            remote_store.update(acm, partners=frozenset({ieee.oid}))
            remote_store.insert(
                "Monograph", title="Readings", isbn="ISBN-008", publisher=acm,
                authors=frozenset({"Stonebraker"}), shopprice=55.0, libprice=50.0,
                subjects=frozenset({"databases"}),
            )  # fmt: skip
            remote_store.insert(
                "Monograph", title="Transactions", isbn="ISBN-009", publisher=ieee,
                authors=frozenset({"Gray"}), shopprice=72.0, libprice=66.0,
                subjects=frozenset({"transactions"}),
            )  # fmt: skip
        local_store, _ = cslibrary_store()
        spec = library_integration_spec(remote=schema)
        conformation = conform(spec, local_store, remote_store)
        view = merge_instances(spec, conformation, match_instances(spec, local_store, remote_store))

        publishers = conformation.remote.instances_of("Publisher")
        assert {len(obj.state["partners"]) for obj in publishers} == {1}
        for obj in publishers:
            for oid in obj.state["partners"]:
                assert oid.startswith("remote:")
                assert conformation.instances_by_oid[oid].class_name == "Publisher"
        partnered = [obj for obj in view.objects() if "partners" in obj.state]
        assert len(partnered) == 2
        for obj in partnered:
            (partner,) = obj.state["partners"]
            assert view.get(partner).state["name"] != obj.state["name"]
