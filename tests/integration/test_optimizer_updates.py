"""Tests for the two uses of global constraints the paper's introduction
motivates: query optimisation and update validation."""

import pytest

from repro.fixtures import (
    bookseller_store,
    cslibrary_store,
    library_integration_spec,
    personnel_integration_spec,
    personnel_stores,
)
from repro.constraints import parse_expression, to_source
from repro.integration import IntegrationWorkbench
from repro.integration.optimizer import GlobalQueryOptimizer
from repro.integration.updates import GlobalUpdateValidator


@pytest.fixture(scope="module")
def library_result():
    spec = library_integration_spec()
    local_store, _ = cslibrary_store()
    remote_store, _ = bookseller_store()
    return IntegrationWorkbench(spec, local_store, remote_store).run()


@pytest.fixture(scope="module")
def optimizer(library_result):
    return GlobalQueryOptimizer(library_result)


@pytest.fixture(scope="module")
def personnel_result():
    spec = personnel_integration_spec()
    db1, db2, _ = personnel_stores()
    return IntegrationWorkbench(spec, db1, db2).run()


class TestQueryOptimization:
    def test_pruned_by_derived_constraint(self, optimizer):
        """ACM proceedings with rating < 5 cannot exist: the derived
        constraint publisher.name='ACM' implies rating >= 5 refutes the
        query — 'eliminating subqueries which are known to yield empty
        results'."""
        decision = optimizer.analyse(
            "CSLibrary.RefereedPubl",
            "publisher.name = 'ACM' and rating < 5",
        )
        assert decision.empty
        assert decision.reasons  # names the refuting constraints

    def test_satisfiable_query_not_pruned(self, optimizer):
        decision = optimizer.analyse(
            "CSLibrary.RefereedPubl", "publisher.name = 'ACM' and rating >= 6"
        )
        assert not decision.empty

    def test_execute_short_circuits(self, optimizer):
        results = optimizer.execute(
            "CSLibrary.RefereedPubl", "publisher.name = 'ACM' and rating < 5"
        )
        assert results == []

    def test_execute_returns_real_objects(self, optimizer):
        results = optimizer.execute("CSLibrary.RefereedPubl", "rating >= 8")
        isbns = {obj.state["isbn"] for obj in results}
        assert "ISBN-001" in isbns

    def test_optimizer_agrees_with_evaluation(self, optimizer, library_result):
        """Pruning must never lose answers: compare against brute-force."""
        view = library_result.view
        for predicate in (
            "rating >= 9",
            "publisher.name = 'ACM' and rating < 5",
            "ref? = true and rating < 7",
            "rating in {8, 9, 10}",
        ):
            optimised = optimizer.execute("CSLibrary.RefereedPubl", predicate)
            brute = view.select("CSLibrary.RefereedPubl", predicate)
            assert {o.oid for o in optimised} == {o.oid for o in brute}, predicate

    def test_simplify_drops_refuted_disjunct(self, optimizer):
        simplified = optimizer.simplify(
            "CSLibrary.RefereedPubl",
            "(publisher.name = 'ACM' and rating < 5) or rating >= 9",
        )
        assert to_source(simplified) == "rating >= 9"

    def test_simplify_keeps_satisfiable_disjuncts(self, optimizer):
        predicate = "rating >= 9 or rating <= 5"
        simplified = optimizer.simplify("CSLibrary.RefereedPubl", predicate)
        assert simplified == parse_expression(predicate)

    def test_unconstrained_class_passthrough(self, optimizer):
        decision = optimizer.analyse("CSLibrary.ProfessionalPubl", "title = 'x'")
        assert not decision.empty

    def test_personnel_membership_pruning(self, personnel_result):
        """Derived trav_reimb ∈ {12,17,22} prunes a query for 15."""
        optimizer = GlobalQueryOptimizer(personnel_result)
        decision = optimizer.analyse(
            "PersonnelDB1.Employee", "trav_reimb = 15"
        )
        assert decision.empty

    def test_requires_workbench_output(self):
        from repro.integration.workbench import IntegrationResult

        empty = IntegrationResult(library_integration_spec())
        with pytest.raises(ValueError):
            GlobalQueryOptimizer(empty)


class TestUpdateValidation:
    def test_valid_update_accepted(self, library_result):
        validator = GlobalUpdateValidator(library_result)
        vldb = next(
            obj
            for obj in library_result.view.merged_objects()
            if obj.state.get("isbn") == "ISBN-001"
        )
        verdict = validator.validate(vldb.oid, rating=9)
        assert verdict.accepted

    def test_update_rejected_by_global_constraint(self, library_result):
        """Dropping the VLDB proceedings' rating to 4 violates the derived
        constraint through oc2/oc3 — rejected before any subtransaction."""
        validator = GlobalUpdateValidator(library_result)
        vldb = next(
            obj
            for obj in library_result.view.merged_objects()
            if obj.state.get("isbn") == "ISBN-001"
        )
        verdict = validator.validate(vldb.oid, rating=4)
        assert [(r.level, r.constraint) for r in verdict.rejections] == [
            ("global", "gc3"),
            ("global", "gc7"),
            ("global", "gc8"),
        ]

    @pytest.mark.parametrize(
        "isbn, changes, expected",
        [
            # ACM proceedings (VLDB): gc4 and gc8 read publisher.name.
            ("ISBN-001", {"rating": 3}, ["gc3", "gc4", "gc7", "gc8"]),
            # IEEE proceedings (ICDE): gc1, gc2 and gc5 read publisher.name.
            ("ISBN-006", {"ref?": False}, ["gc1", "gc2", "gc5", "Bookseller.Proceedings.oc1"]),
            # A non-refereed Springer proceedings moved to IEEE: gc9.
            ("ISBN-007", {"publisher": "IEEE"}, ["gc1", "gc2", "gc9"]),
            # ... and to ACM with a low rating: gc12.
            ("ISBN-007", {"publisher": "ACM", "rating": 3}, ["gc4", "gc12"]),
        ],
    )
    def test_dotted_global_constraints_decide(self, library_result, isbn, changes, expected):
        """A global constraint that reads through a reference
        (``publisher.name = ... implies ...``) judges the proposed object:
        the proposed ``publisher`` is dereferenced as the stored one is.
        ``gc13`` (``ProfessionalPubl`` ⋈ ``Proceedings``) has no member in
        the fixture."""
        view = library_result.view
        obj = next(o for o in view.objects() if o.state.get("isbn") == isbn)
        if "publisher" in changes:
            (publisher,) = view.select("Bookseller.Publisher", f"name = '{changes['publisher']}'")
            changes = {**changes, "publisher": publisher.oid}
        verdict = GlobalUpdateValidator(library_result).validate(obj.oid, **changes)
        assert [r.constraint for r in verdict.rejections] == expected

    def test_rejection_names_component(self, library_result):
        """A price flip would be rejected by the bookseller's manager
        (its conformed oc1 libprice <= shopprice)."""
        validator = GlobalUpdateValidator(library_result)
        vldb = next(
            obj
            for obj in library_result.view.merged_objects()
            if obj.state.get("isbn") == "ISBN-001"
        )
        verdict = validator.validate(vldb.oid, libprice=150.0)
        assert not verdict.accepted
        components = {r.level for r in verdict.rejections}
        assert "Bookseller" in components or "CSLibrary" in components

    def test_verdict_describe(self, library_result):
        validator = GlobalUpdateValidator(library_result)
        vldb = next(
            obj
            for obj in library_result.view.merged_objects()
            if obj.state.get("isbn") == "ISBN-001"
        )
        accepted = validator.validate(vldb.oid, rating=9)
        assert "accepted" in accepted.describe()
        rejected = validator.validate(vldb.oid, libprice=150.0)
        assert "rejected" in rejected.describe()

    def test_personnel_reimbursement_update(self, personnel_result):
        validator = GlobalUpdateValidator(personnel_result)
        bob = personnel_result.view.merged_objects()[0]
        good = validator.validate(bob.oid, trav_reimb=22)
        assert good.accepted
        bad = validator.validate(bob.oid, trav_reimb=99)
        assert not bad.accepted
