"""Derivation of integrated constraints (Section 5.2).

Three cases, following the paper:

**Object equality.**  All objective (conformed) constraints from both sides
union into the integrated set; an unsatisfiable union is an *explicit
conflict*.  From *subjective* constraints, global constraints are derived
through the decision functions, subject to the paper's two necessary
conditions on the subjective property set Ξ(φ):

1. no property in Ξ(φ) may have a conflict-**avoiding** decision function
   (its value never reaches the global property, so nothing propagates);
2. a property with a conflict-**settling** function requires a matching
   remote constraint on the equivalent property.

The derivation itself generalises the paper's examples: for each pair of DNF
branches of the local and remote constraints on a common subjective property
``p``, the branch literals over *objective* properties become the condition
``g``, the branch domains of ``p`` combine pointwise through the decision
function's combinator, and the result is ``g implies p ∈ D`` — reproducing
both ``trav_reimb ∈ {12, 17, 22}`` (unconditional, ``avg`` of two finite
sets) and ``publisher.name = 'ACM' implies rating >= 5`` (conditional).
Multi-property correlations derive only in the identical-pair case (same
conformed formula on both sides, all properties combined by one monotone
eliminating/settling combinator) — e.g. ``libprice <= shopprice`` *would*
derive under ``avg``/``avg`` but not under the example's ``trust`` functions.

**Strict similarity.**  The target class's constraints must be entailed by
the source's constraints plus the rule's intraobject conditions
(``Ω' ⊨ Ω``); a failed entailment is a :class:`SimilarityConflict` whose
repair is rule strengthening (Section 5.2.1's resolution).

**Approximate similarity.**  No conflicts arise; the virtual superclass
``Cv`` receives the disjunction of both constraint sets, and entailment of
one side's constraint by the other side's set flags horizontal
fragmentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.constraints.ast import (
    Implies,
    Node,
    Path,
    TRUE,
    conjoin,
    disjoin,
    paths_in,
)
from repro.constraints.model import Constraint
from repro.constraints.normalize import split_conjunction
from repro.constraints.printer import to_source
from repro.constraints.solver import Solver, TypeEnvironment
from repro.domains.combine import combine_pointwise
from repro.domains.valueset import TopSet, ValueSet
from repro.errors import SolverError
from repro.integration.conflicts import (
    ExplicitConflict,
    ImplicitConflictRisk,
    SimilarityConflict,
)
from repro.integration.conformation import ConformationResult, ConformedPropeq
from repro.integration.decision import DecisionCategory
from repro.integration.relationships import Side
from repro.integration.rule_checks import RuleCheckResult, domain_to_formula
from repro.integration.rules import ComparisonRule
from repro.integration.spec import IntegrationSpecification
from repro.integration.subjectivity import SubjectivityAnalysis


@dataclass(frozen=True)
class GlobalConstraint:
    """One constraint of the integrated view, with provenance."""

    name: str
    #: The global classes it constrains: a qualified class, the two classes
    #: of a merged pair, or an approximate-similarity virtual class.
    classes: tuple[str, ...]
    formula: Node
    origin: str  # objective-union | derived | rule-derived | key | cv-disjunction
    sources: tuple[str, ...] = ()

    @property
    def scope(self) -> str:
        """The display form of ``classes``, ``A ⋈ B`` for a merged pair."""
        return joined_scope(self.classes)

    def describe(self) -> str:
        return f"[{self.origin}] {self.scope}: {to_source(self.formula)}"


def joined_scope(classes: tuple[str, ...]) -> str:
    return " ⋈ ".join(classes)


@dataclass
class DerivationResult:
    """The integrated constraint set plus everything diagnostic."""

    constraints: list[GlobalConstraint] = field(default_factory=list)
    explicit_conflicts: list[ExplicitConflict] = field(default_factory=list)
    implicit_risks: list[ImplicitConflictRisk] = field(default_factory=list)
    similarity_conflicts: list[SimilarityConflict] = field(default_factory=list)
    #: Human-readable notes on skipped/blocked derivations (conditions 1-2).
    notes: list[str] = field(default_factory=list)
    #: Horizontal fragmentation findings for approximate similarity.
    fragmentations: list[str] = field(default_factory=list)

    def for_scope(self, scope: str) -> list[GlobalConstraint]:
        return [c for c in self.constraints if c.scope == scope]

    def formulas_for_scope(self, scope: str) -> list[Node]:
        return [c.formula for c in self.for_scope(scope)]


class ConstraintDeriver:
    """Runs the Section 5.2 analysis for one integration specification."""

    def __init__(
        self,
        spec: IntegrationSpecification,
        conformation: ConformationResult,
        analysis: SubjectivityAnalysis,
        rule_checks: RuleCheckResult,
    ):
        self.spec = spec
        self.conformation = conformation
        self.analysis = analysis
        self.rule_checks = rule_checks
        self.result = DerivationResult()
        self._counter = itertools.count(1)

    # -- public API ------------------------------------------------------------

    def run(self) -> DerivationResult:
        for rule in self.spec.equality_rules():
            self._derive_equality(rule)
        for rule in self.spec.descriptivity_rules():
            self._derive_descriptivity(rule)
        for rule in self.spec.similarity_rules():
            self._check_similarity(rule)
        for rule in self.spec.approximate_rules():
            self._derive_approximate(rule)
        self.result.notes = list(dict.fromkeys(self.result.notes))
        return self.result

    # -- shared helpers -----------------------------------------------------------

    def _qualified(self, side: Side, class_name: str) -> str:
        return f"{self.conformation.on(side).schema.name}.{class_name}"

    def _object_constraints(self, side: Side, class_name: str) -> list[Constraint]:
        schema = self.conformation.on(side).schema
        if not schema.has_class(class_name):
            return []
        return schema.effective_object_constraints(class_name)

    def _is_subjective(self, side: Side, conformed: Constraint) -> bool:
        original = self.conformation.on(side).original_name(conformed)
        status = self.analysis.constraint_status.get(original)
        if status is not None:
            return status.subjective
        # Rule-derived constraints carry no original: treat as objective
        # facts about matched objects.
        return False

    def _env(self, side: Side, class_name: str) -> TypeEnvironment:
        schema = self.conformation.on(side).schema
        if schema.has_class(class_name):
            return schema.type_environment(class_name)
        return TypeEnvironment()

    def _subjective_props(
        self, side: Side, class_name: str, formula: Node
    ) -> dict[str, ConformedPropeq]:
        """Ξ(φ) over conformed names: property → its propeq."""
        found: dict[str, ConformedPropeq] = {}
        for path in paths_in(formula):
            prop = path.parts[0]
            propeq = self.conformation.propeq_for(side, class_name, prop)
            if propeq is None:
                continue
            objective_sides = propeq.df.objective_sides()
            if side not in objective_sides:
                found[prop] = propeq
        return found

    def _add(
        self, classes: tuple[str, ...], formula: Node, origin: str, sources: tuple[str, ...]
    ) -> None:
        existing = {
            (c.classes, c.formula) for c in self.result.constraints
        }
        if (classes, formula) in existing:
            return
        self.result.constraints.append(
            GlobalConstraint(
                f"gc{next(self._counter)}", classes, formula, origin, sources
            )
        )

    # -- equality ---------------------------------------------------------------------

    def _derive_equality(self, rule: ComparisonRule) -> None:
        """An Eq rule on (C, C') also relates objects of every subclass pair
        (the paper's ACM example pairs a ScientificPubl with a Proceedings
        under the Publication/Item rule), so derivation runs per pair."""
        assert rule.local_class and rule.remote_class
        local_schema = self.conformation.local.schema
        remote_schema = self.conformation.remote.schema
        local_classes = [rule.local_class]
        remote_classes = [rule.remote_class]
        if local_schema.has_class(rule.local_class):
            local_classes += local_schema.subclasses_of(rule.local_class)
        if remote_schema.has_class(rule.remote_class):
            remote_classes += remote_schema.subclasses_of(rule.remote_class)
        for local_class in local_classes:
            for remote_class in remote_classes:
                self._derive_equality_pair(rule, local_class, remote_class)

    def _derive_descriptivity(self, rule: ComparisonRule) -> None:
        """Descriptivity merges (virtual class vs. described class) analyse
        like equality pairs — this is where the implicit-conflict risk on
        the relocated ``name in KNOWNPUBLISHERS`` constraint surfaces."""
        value_side = rule.source_side.other
        conformed = self.conformation.on(value_side)
        for relocation in conformed.relocations:
            if relocation.value_attribute != rule.value_attribute:
                continue
            if relocation.virtual_class != f"Virt{rule.source_class}":
                continue
            assert rule.source_class is not None
            if value_side is Side.LOCAL:
                self._derive_equality_pair(
                    rule, relocation.virtual_class, rule.source_class
                )
            else:
                self._derive_equality_pair(
                    rule, rule.source_class, relocation.virtual_class
                )

    def _rule_derived(
        self, rule: ComparisonRule, side: Side, class_name: str
    ) -> list[Constraint]:
        """Derived constraints of *this* rule applying to ``class_name``
        (declared on it or an ancestor)."""
        schema = self.conformation.on(side).schema
        derived: list[Constraint] = []
        for analysis in self.rule_checks.analyses:
            if analysis.rule is not rule or analysis.side is not side:
                continue
            if schema.has_class(class_name) and schema.has_class(analysis.class_name):
                if schema.is_subclass_of(class_name, analysis.class_name):
                    derived.extend(analysis.derived)
        return derived

    def _derive_equality_pair(
        self, rule: ComparisonRule, local_class: str, remote_class: str
    ) -> None:
        classes = (
            self._qualified(Side.LOCAL, local_class),
            self._qualified(Side.REMOTE, remote_class),
        )
        local_constraints = self._object_constraints(Side.LOCAL, local_class)
        remote_constraints = self._object_constraints(Side.REMOTE, remote_class)
        local_derived = self._rule_derived(rule, Side.LOCAL, local_class)
        remote_derived = self._rule_derived(rule, Side.REMOTE, remote_class)

        objective: list[tuple[Side, Constraint]] = []
        subjective: dict[Side, list[Constraint]] = {Side.LOCAL: [], Side.REMOTE: []}
        for side, pool in (
            (Side.LOCAL, local_constraints + local_derived),
            (Side.REMOTE, remote_constraints + remote_derived),
        ):
            for constraint in pool:
                if self._is_subjective(side, constraint):
                    subjective[side].append(constraint)
                else:
                    objective.append((side, constraint))

        # 1. Objective constraints union into the integrated set.
        env = self._env(Side.LOCAL, local_class).merged_with(
            self._env(Side.REMOTE, remote_class)
        )
        for side, constraint in objective:
            self._add(
                classes,
                constraint.formula,
                "objective-union",
                (self.conformation.on(side).original_name(constraint),),
            )

        # 2. Explicit conflict: the integrated set is unsatisfiable.
        formulas = [c.formula for _, c in objective]
        if formulas and Solver(env).is_unsatisfiable(conjoin(formulas)):
            self.result.explicit_conflicts.append(
                ExplicitConflict(
                    joined_scope(classes),
                    tuple(self.conformation.on(s).original_name(c) for s, c in objective),
                    "the union of objective object constraints is "
                    "unsatisfiable (Ω ⊨ false)",
                )
            )

        # 3. Derivation from subjective constraints.
        self._derive_subjective(
            classes, local_class, remote_class, subjective, env
        )

        # 4. Implicit conflict risks (conflict-ignoring functions).
        self._implicit_risks(
            classes, local_class, remote_class, objective
        )

    # -- subjective derivation ------------------------------------------------------------

    def _derive_subjective(
        self,
        classes: tuple[str, ...],
        local_class: str,
        remote_class: str,
        subjective: dict[Side, list[Constraint]],
        env: TypeEnvironment,
    ) -> None:
        normalized: dict[Side, list[tuple[Constraint, Node]]] = {
            side: [
                (constraint, part)
                for constraint in constraints
                for part in split_conjunction(constraint.formula)
            ]
            for side, constraints in subjective.items()
        }
        class_of = {Side.LOCAL: local_class, Side.REMOTE: remote_class}

        # Single-property derivations, driven from the local side (the pair
        # (φ, φ') is symmetric; driving from one side avoids duplicates).
        seen_props: set[str] = set()
        for constraint, part in normalized[Side.LOCAL]:
            xi = self._subjective_props(Side.LOCAL, local_class, part)
            if not self._passes_conditions(
                Side.LOCAL, constraint, part, xi, normalized[Side.REMOTE],
                class_of,
            ):
                continue
            if len(xi) == 1:
                prop, propeq = next(iter(xi.items()))
                partners = [
                    (c, p)
                    for c, p in normalized[Side.REMOTE]
                    if prop in self._subjective_props(Side.REMOTE, remote_class, p)
                ]
                self._derive_single_property(
                    classes, prop, propeq, (constraint, part), partners, class_of, env
                )
                seen_props.add(prop)
            else:
                self._derive_identical_pair(
                    classes, xi, (constraint, part), normalized[Side.REMOTE], class_of
                )
        # Remote-only subjective constraints on props never touched above
        # still derive (combined with the local type domain).
        for constraint, part in normalized[Side.REMOTE]:
            xi = self._subjective_props(Side.REMOTE, remote_class, part)
            if len(xi) != 1:
                continue
            prop, propeq = next(iter(xi.items()))
            if prop in seen_props:
                continue
            if not self._passes_conditions(
                Side.REMOTE, constraint, part, xi, normalized[Side.LOCAL], class_of
            ):
                continue
            self._derive_single_property(
                classes, prop, propeq, (constraint, part), [], class_of, env,
                driving_side=Side.REMOTE,
            )

    def _passes_conditions(
        self,
        side: Side,
        constraint: Constraint,
        part: Node,
        xi: dict[str, ConformedPropeq],
        partners: list[tuple[Constraint, Node]],
        class_of: dict[Side, str],
    ) -> bool:
        """The paper's necessary conditions (1) and (2)."""
        if not xi:
            # Subjective for non-value reasons (declared): never propagates.
            self.result.notes.append(
                f"{constraint.qualified_name}: subjective by declaration; "
                "not propagated"
            )
            return False
        for prop, propeq in xi.items():
            category = propeq.df.category
            if category is DecisionCategory.AVOIDING:
                self.result.notes.append(
                    f"{constraint.qualified_name}: no derivation — property "
                    f"{prop!r} has a conflict-avoiding decision function "
                    f"({propeq.df.name}) [condition (1)]"
                )
                return False
            if category is DecisionCategory.SETTLING:
                other = side.other
                has_partner = any(
                    prop in self._subjective_props(other, class_of[other], p)
                    for _, p in partners
                )
                if not has_partner:
                    self.result.notes.append(
                        f"{constraint.qualified_name}: no derivation — "
                        f"settling function on {prop!r} needs a matching "
                        "constraint on the equivalent property "
                        "[condition (2)]"
                    )
                    return False
        return True

    def _derive_single_property(
        self,
        classes: tuple[str, ...],
        prop: str,
        propeq: ConformedPropeq,
        driving: tuple[Constraint, Node],
        partners: list[tuple[Constraint, Node]],
        class_of: dict[Side, str],
        env: TypeEnvironment,
        driving_side: Side = Side.LOCAL,
    ) -> None:
        combinator = propeq.df.combinator
        if combinator is None:
            self.result.notes.append(
                f"{driving[0].qualified_name}: decision function "
                f"{propeq.df.name} admits no sound value combination"
            )
            return
        other_side = driving_side.other
        partner_formula = conjoin([p for _, p in partners]) if partners else None
        driving_env = self._env(driving_side, class_of[driving_side])
        partner_env = self._env(other_side, class_of[other_side])
        path = Path((prop,))
        type_domain_driving = driving_env.domain_for(path)
        type_domain_partner = partner_env.domain_for(path)
        global_type_domain = _global_type_domain(
            type_domain_driving, type_domain_partner, combinator
        )

        sources = tuple(
            sorted(
                {driving[0].qualified_name, *(c.qualified_name for c, _ in partners)}
            )
        )
        driving_formula = driving[1]
        driving_solver = Solver(driving_env)
        partner_solver = Solver(partner_env)

        def conditional_domain(condition: Node | None) -> ValueSet | None:
            """combine(domain(φ ∧ g, p), domain(φ' ∧ g, p)) — sound because
            every matched pair satisfying g keeps each side's value in its
            conditional domain."""
            local_premise = (
                driving_formula
                if condition is None
                else conjoin([driving_formula, condition])
            )
            partner_premise: Node
            if partner_formula is None:
                partner_premise = condition if condition is not None else TRUE
            else:
                partner_premise = (
                    partner_formula
                    if condition is None
                    else conjoin([partner_formula, condition])
                )
            driving_domain = driving_solver.domain_of(local_premise, path)
            partner_domain = partner_solver.domain_of(partner_premise, path)
            if driving_domain.is_empty() or partner_domain.is_empty():
                return None  # condition impossible on one side: no info
            try:
                if driving_side is Side.LOCAL:
                    return combine_pointwise(
                        driving_domain, partner_domain, combinator
                    )
                return combine_pointwise(partner_domain, driving_domain, combinator)
            except SolverError:
                return None

        # Unconditional derivation first (the intro's {12, 17, 22} case).
        unconditional = conditional_domain(None)
        if unconditional is not None:
            consequent = domain_to_formula(path, unconditional, global_type_domain)
            if consequent is not None:
                self._add(classes, consequent, "derived", sources)

        # Conditional derivations: one candidate condition per objective
        # atom (and its negation) appearing in either formula — the ACM case.
        formulas = [driving_formula]
        if partner_formula is not None:
            formulas.append(partner_formula)
        for condition in self._candidate_conditions(
            formulas, prop, class_of, driving_side
        ):
            combined = conditional_domain(condition)
            if combined is None:
                continue
            if unconditional is not None and unconditional.is_subset_of(combined):
                continue  # no tighter than the unconditional constraint
            consequent = domain_to_formula(path, combined, global_type_domain)
            if consequent is None:
                continue
            self._add(classes, Implies(condition, consequent), "derived", sources)

    def _candidate_conditions(
        self,
        formulas: list[Node],
        prop: str,
        class_of: dict[Side, str],
        driving_side: Side,
    ) -> list[Node]:
        """Objective-property atoms (both polarities) to condition on."""
        from repro.constraints.normalize import atoms_of, negate

        candidates: dict[Node, None] = {}
        for formula, side in zip(
            formulas, (driving_side, driving_side.other)
        ):
            try:
                atoms = atoms_of(formula)
            except SolverError:
                continue
            for atom in atoms:
                props = {p.parts[0] for p in paths_in(atom)}
                if prop in props or not props:
                    continue
                if any(
                    self._is_prop_subjective(side, class_of[side], q) for q in props
                ):
                    continue
                candidates.setdefault(atom, None)
                candidates.setdefault(negate(atom), None)
        return list(candidates)

    def _is_prop_subjective(self, side: Side, class_name: str, prop: str) -> bool:
        propeq = self.conformation.propeq_for(side, class_name, prop)
        if propeq is None:
            return False
        return side not in propeq.df.objective_sides()

    # -- identical multi-property pairs ------------------------------------------------

    def _derive_identical_pair(
        self,
        classes: tuple[str, ...],
        xi: dict[str, ConformedPropeq],
        driving: tuple[Constraint, Node],
        remote_normalized: list[tuple[Constraint, Node]],
        class_of: dict[Side, str],
    ) -> None:
        """Correlated constraints derive only in the identical-pair case with
        one monotone combinator (see module docstring)."""
        constraint, part = driving
        combinators = {propeq.df.combinator for propeq in xi.values()}
        if len(combinators) != 1 or next(iter(combinators)) not in (
            "avg",
            "max",
            "min",
        ):
            self.result.notes.append(
                f"{constraint.qualified_name}: correlated subjective "
                "properties with mixed or non-monotone decision functions; "
                "general derivation is out of scope (paper, Section 5.2.1)"
            )
            return
        for partner, partner_part in remote_normalized:
            if partner_part == part:
                self._add(
                    classes,
                    part,
                    "derived",
                    (constraint.qualified_name, partner.qualified_name),
                )
                return
        self.result.notes.append(
            f"{constraint.qualified_name}: no identical remote constraint; "
            "correlated derivation skipped"
        )

    # -- implicit risks ---------------------------------------------------------------------

    def _implicit_risks(
        self,
        classes: tuple[str, ...],
        local_class: str,
        remote_class: str,
        objective: list[tuple[Side, Constraint]],
    ) -> None:
        class_of = {Side.LOCAL: local_class, Side.REMOTE: remote_class}
        for side, constraint in objective:
            for path in paths_in(constraint.formula):
                prop = path.parts[0]
                propeq = self.conformation.propeq_for(side, class_of[side], prop)
                if propeq is None:
                    continue
                if propeq.df.category is not DecisionCategory.IGNORING:
                    continue
                other = side.other
                other_constraints = self._object_constraints(
                    other, class_of[other]
                )
                premise = conjoin([c.formula for c in other_constraints])
                env = self._env(other, class_of[other])
                if other_constraints and Solver(env).entails(
                    premise, constraint.formula
                ):
                    continue  # equivalent constraint exists on p'
                self.result.implicit_risks.append(
                    ImplicitConflictRisk(
                        joined_scope(classes),
                        self.conformation.on(side).original_name(constraint),
                        prop,
                        "the conflict-ignoring decision function may take "
                        "the global value from the unconstrained side",
                    )
                )

    # -- strict similarity ------------------------------------------------------------------

    def _check_similarity(self, rule: ComparisonRule) -> None:
        assert rule.source_class and rule.target_class
        source_side = rule.source_side
        target_side = source_side.other
        target_class = rule.target_class

        # Ω: all object constraints of the target class except those the
        # designer declared subjective (value subjectivity plays no role for
        # similar objects — Section 5.2.1).
        target_constraints = [
            c
            for c in self._object_constraints(target_side, target_class)
            if self.conformation.on(target_side).original_name(c)
            not in self.spec.declared_subjective
        ]
        analysis = self.rule_checks.analysis_for(rule)
        conditions = analysis.conditions if analysis is not None else []
        source_constraints = self._object_constraints(
            source_side, rule.source_class
        )
        premise = conjoin(
            [c.formula for c in source_constraints] + list(conditions)
        )
        # The entailment is about the *source* object's state, so on shared
        # conformed names the source side's types must win (a remote
        # Proceedings rating ranges over 1..10, not the library's converted
        # even points).
        env = self._env(target_side, target_class).merged_with(
            self._env(source_side, rule.source_class)
        )
        solver = Solver(env)
        unmet = tuple(
            c for c in target_constraints if not solver.entails(premise, c.formula)
        )
        if unmet:
            self.result.similarity_conflicts.append(SimilarityConflict(rule, unmet))
        else:
            self.result.notes.append(
                f"{rule.name}: source constraints entail all target "
                f"constraints (Ω' ⊨ Ω) — objects are valid "
                f"{target_class} members"
            )

    # -- approximate similarity --------------------------------------------------------------

    def _derive_approximate(self, rule: ComparisonRule) -> None:
        assert rule.source_class and rule.target_class and rule.virtual_class
        source_side = rule.source_side
        target_side = source_side.other
        source_constraints = self._object_constraints(
            source_side, rule.source_class
        )
        target_constraints = self._object_constraints(
            target_side, rule.target_class
        )
        source_formula = conjoin([c.formula for c in source_constraints])
        target_formula = conjoin([c.formula for c in target_constraints])
        self._add(
            (rule.virtual_class,),
            disjoin([target_formula, source_formula]),
            "cv-disjunction",
            tuple(
                c.qualified_name
                for c in source_constraints + target_constraints
            ),
        )
        # Horizontal fragmentation: the source constraints refute a target
        # constraint (the membership condition splits Cv).
        env = self._env(source_side, rule.source_class).merged_with(
            self._env(target_side, rule.target_class)
        )
        solver = Solver(env)
        from repro.constraints.normalize import negate

        for constraint in target_constraints:
            if solver.entails(source_formula, negate(constraint.formula)):
                self.result.fragmentations.append(
                    f"{rule.virtual_class}: {rule.source_class} and "
                    f"{rule.target_class} are horizontal fragments with "
                    f"membership condition {to_source(constraint.formula)}"
                )


def _global_type_domain(
    local: ValueSet, remote: ValueSet, combinator: str
) -> ValueSet:
    try:
        return combine_pointwise(local, remote, combinator)
    except SolverError:
        return TopSet()
