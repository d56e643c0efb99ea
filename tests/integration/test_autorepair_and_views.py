"""Tests for the auto-repair loop, the integrated view API, the hierarchy
helpers and the resolution suggestions."""

import pytest

from repro.constraints import parse_expression
from repro.errors import IntegrationError
from repro.fixtures import (
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.integration import IntegrationWorkbench
from repro.integration.resolution import (
    suggest_for_explicit,
    suggest_for_implicit_risk,
)


@pytest.fixture(scope="module")
def library_result():
    local_store, _ = cslibrary_store()
    remote_store, _ = bookseller_store()
    return IntegrationWorkbench(
        library_integration_spec(), local_store, remote_store
    ).run()


class TestAutoRepair:
    def test_repair_loop_reaches_fixpoint(self):
        local_store, _ = cslibrary_store()
        remote_store, _ = bookseller_store()
        workbench = IntegrationWorkbench(
            library_integration_spec(), local_store, remote_store
        )
        history = workbench.run_with_repairs()
        assert len(history) >= 2
        first, last = history[0], history[-1]
        assert len(first.derivation.similarity_conflicts) > 0
        assert last.derivation.similarity_conflicts == []

    def test_repaired_rules_are_installed(self):
        workbench = IntegrationWorkbench(library_integration_spec())
        workbench.run_with_repairs()
        nonrefereed = next(
            r
            for r in workbench.spec.rules
            if r.target_class == "NonRefereedPubl"
        )
        assert nonrefereed.condition == parse_expression(
            "O'.ref? = false and O'.rating <= 6"
        )

    def test_consistent_spec_single_round(self):
        db1, db2, _ = personnel_stores()
        workbench = IntegrationWorkbench(personnel_integration_spec(), db1, db2)
        history = workbench.run_with_repairs()
        assert len(history) == 1

    def test_max_rounds_respected(self):
        workbench = IntegrationWorkbench(library_integration_spec())
        history = workbench.run_with_repairs(max_rounds=1)
        assert len(history) == 1


class TestIntegratedViewAPI:
    def test_select_with_source_predicate(self, library_result):
        view = library_result.view
        hits = view.select("Bookseller.Proceedings", "rating >= 8")
        assert {obj.state["isbn"] for obj in hits} == {"ISBN-001", "ISBN-006"}

    def test_select_with_callable(self, library_result):
        view = library_result.view
        hits = view.select(
            "CSLibrary.Publication", lambda o: o.state.get("isbn") == "ISBN-005"
        )
        assert len(hits) == 1

    def test_select_tolerates_partial_states(self, library_result):
        """Similarity-classified objects may lack local-only properties;
        select must skip them, not crash."""
        view = library_result.view
        hits = view.select("CSLibrary.RefereedPubl", "avgAccRate <= 1.0")
        # Only objects that actually carry avgAccRate qualify.
        assert all("avgAccRate" in obj.state for obj in hits)

    def test_select_traverses_merged_references(self, library_result):
        view = library_result.view
        acm = view.select("Bookseller.Item", "publisher.name = 'ACM'")
        assert {obj.state["isbn"] for obj in acm} == {"ISBN-001", "ISBN-008"}

    def test_only_declared_references_dereference(self):
        """A title that spells a global oid is a title, not a reference."""
        local_store, _ = cslibrary_store()
        local_store.insert(
            "ProfessionalPubl", title="g1", isbn="ISBN-099", publisher="ACM",
            shopprice=10.0, ourprice=9.0, authors=frozenset({"Doe"}),
        )
        remote_store, _ = bookseller_store()
        view = IntegrationWorkbench(
            library_integration_spec(), local_store, remote_store
        ).run().view
        by_isbn = view.select("CSLibrary.ProfessionalPubl", "isbn = 'ISBN-099'")
        assert len(by_isbn) == 1
        assert view.select("CSLibrary.ProfessionalPubl", "title = 'g1'") == by_isbn

    def test_component_checks_dereference_only_declared_references(self):
        """A component constraint reads a title that spells a conformed oid
        as that string, so the doomed subtransaction is rejected."""
        from repro.constraints.model import Constraint, ConstraintKind
        from repro.fixtures import cslibrary_schema
        from repro.engine import ObjectStore
        from repro.integration.updates import GlobalUpdateValidator

        schema = cslibrary_schema()
        schema.class_named("Publication").add_constraint(
            Constraint(
                "oc3",
                ConstraintKind.OBJECT,
                parse_expression("title != 'remote:Publisher#1'"),
                database="CSLibrary",
            )
        )
        local_store = ObjectStore(schema)
        local_store.insert(
            "Publication", title="Annals", isbn="ISBN-001", publisher="ACM",
            shopprice=10.0, ourprice=9.0,
        )
        remote_store, _ = bookseller_store()
        result = IntegrationWorkbench(
            library_integration_spec(schema), local_store, remote_store
        ).run()
        annals = next(o for o in result.view.objects() if o.state.get("title") == "Annals")
        verdict = GlobalUpdateValidator(result).validate(annals.oid, title="remote:Publisher#1")
        assert "CSLibrary.Publication.oc3" in {r.constraint for r in verdict.rejections}

    def test_unknown_class_raises(self, library_result):
        with pytest.raises(IntegrationError):
            library_result.view.extent("Nowhere.Class")

    def test_get_unknown_oid_raises(self, library_result):
        with pytest.raises(IntegrationError):
            library_result.view.get("g999")

    def test_satisfies_returns_none_for_missing_props(self, library_result):
        view = library_result.view
        newsletter = next(
            obj for obj in view.objects() if obj.state.get("isbn") == "ISBN-005"
        )
        verdict = view.satisfies(newsletter, parse_expression("ref? = true"))
        assert verdict is None


class TestHierarchyHelpers:
    def test_parents_of(self, library_result):
        hierarchy = library_result.hierarchy
        parents = hierarchy.parents_of("RefereedProceedings")
        assert "CSLibrary.RefereedPubl" in parents
        assert "Bookseller.Proceedings" in parents

    def test_is_subclass_reflexive(self, library_result):
        hierarchy = library_result.hierarchy
        assert hierarchy.is_subclass("CSLibrary.Publication", "CSLibrary.Publication")

    def test_unknown_nodes(self, library_result):
        hierarchy = library_result.hierarchy
        assert not hierarchy.is_subclass("Ghost", "CSLibrary.Publication")
        assert hierarchy.parents_of("Ghost") == set()

    def test_no_spurious_equivalences(self, library_result):
        assert library_result.hierarchy.equivalent_classes == []


class TestResolutionSuggestions:
    def test_explicit_conflict_suggestions(self):
        from repro.integration.conflicts import ExplicitConflict

        conflict = ExplicitConflict(
            "A ⋈ B", ("DB1.C.oc1", "DB2.C.oc1"), "unsatisfiable"
        )
        suggestions = suggest_for_explicit(conflict, library_integration_spec())
        options = {s.option for s in suggestions}
        assert options == {1, 2}
        assert any(s.action == "demote-constraint" for s in suggestions)

    def test_implicit_risk_suggestions(self):
        from repro.integration.conflicts import ImplicitConflictRisk

        risk = ImplicitConflictRisk("A ⋈ B", "DB1.C.oc2", "name", "risk")
        suggestions = suggest_for_implicit_risk(risk, library_integration_spec())
        assert {s.option for s in suggestions} == {1, 3}
        assert any("trust" in s.detail for s in suggestions)

    def test_suggestion_describe(self):
        from repro.integration.conflicts import ImplicitConflictRisk

        risk = ImplicitConflictRisk("A ⋈ B", "DB1.C.oc2", "name", "risk")
        suggestion = suggest_for_implicit_risk(risk, library_integration_spec())[0]
        assert "option 3" in suggestion.describe()
