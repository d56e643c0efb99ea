"""The integration workbench — the paper's Figure 3 methodology, end to end.

Pipeline stages (each stage's output is kept on the result for inspection,
which is what makes this the "design tool" the paper's conclusion calls for):

1. structural validation of the integration specification;
2. subjectivity analysis (Section 5.1) including the consistency check
   *subjective values ⇒ subjective constraints*;
3. conformation of schemas, constraints and (when stores are supplied)
   instances (Sections 2.3 and 4);
4. rule checks: intraobject conditions vs object constraints, derived
   object constraints (Section 3);
5. instance matching and merging into the integrated view, with the derived
   class hierarchy (Section 2.3);
6. constraint integration: objective union, derivation through decision
   functions, similarity entailment, approximate-similarity disjunctions
   (Section 5.2.1), class constraints (5.2.2), database constraints (5.2.3);
7. validation of the merged states against the integrated constraints
   (actual implicit conflicts);
8. resolution suggestions for every conflict found (the three options of
   Section 5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.analysis import (
    Diagnostic,
    analyze_schema,
    pairwise_conflicts,
)
from repro.engine.store import ObjectStore
from repro.integration.class_constraints import (
    ClassConstraintReport,
    integrate_class_constraints,
)
from repro.integration.conflicts import StateViolation
from repro.integration.conformation import ConformationResult, conform
from repro.integration.database_constraints import (
    DatabaseConstraintReport,
    integrate_database_constraints,
)
from repro.integration.derivation import (
    ConstraintDeriver,
    DerivationResult,
    GlobalConstraint,
)
from repro.integration.hierarchy import DerivedHierarchy, derive_hierarchy
from repro.integration.matching import MatchResult, match_instances
from repro.integration.merging import merge_instances
from repro.integration.resolution import (
    Suggestion,
    repair_similarity_rule,
    suggest_for_explicit,
    suggest_for_implicit_risk,
)
from repro.integration.rule_checks import RuleCheckResult, check_rules
from repro.integration.spec import IntegrationSpecification, SpecificationIssue
from repro.integration.subjectivity import SubjectivityAnalysis, analyse_subjectivity
from repro.integration.view import IntegratedView


@dataclass
class IntegrationResult:
    """Everything the workbench produced, stage by stage."""

    spec: IntegrationSpecification
    spec_issues: list[SpecificationIssue] = field(default_factory=list)
    subjectivity: SubjectivityAnalysis | None = None
    conformation: ConformationResult | None = None
    rule_checks: RuleCheckResult | None = None
    match: MatchResult | None = None
    view: IntegratedView | None = None
    hierarchy: DerivedHierarchy | None = None
    derivation: DerivationResult | None = None
    class_constraints: ClassConstraintReport | None = None
    database_constraints: DatabaseConstraintReport | None = None
    state_violations: list[StateViolation] = field(default_factory=list)
    #: ``"local (Name)"`` / ``"remote (Name)"`` → violations found auditing
    #: the component stores (keyed by side so two components sharing a
    #: database name cannot shadow each other).  The paper's premise is that
    #: components enforce their own constraints; a non-empty entry means a
    #: supplied store breaks that premise and the derived global constraints
    #: cannot be trusted.
    component_violations: dict[str, list[str]] = field(default_factory=dict)
    #: Same keys as ``component_violations`` → subset-minimal conflict cores
    #: (:class:`repro.engine.explain.ConflictCore`) explaining them: which
    #: objects of the component store, exactly, break its own constraints.
    component_cores: dict[str, list] = field(default_factory=dict)
    #: Static-analysis findings made *before any data exists*: per-component
    #: schema diagnostics (errors and warnings only) plus cross-schema
    #: contradictions among the conformed constraints of matched classes.
    #: Advisory design-tool output — not counted by :meth:`conflict_count`,
    #: so it never flips :meth:`is_consistent` on its own.
    static_warnings: list[Diagnostic] = field(default_factory=list)
    suggestions: list[Suggestion] = field(default_factory=list)

    @property
    def global_constraints(self) -> list[GlobalConstraint]:
        """The full integrated constraint set (object + class level)."""
        constraints: list[GlobalConstraint] = []
        if self.derivation is not None:
            constraints.extend(self.derivation.constraints)
        if self.class_constraints is not None:
            constraints.extend(self.class_constraints.propagated)
        return constraints

    def conflict_count(self) -> int:
        total = len(self.state_violations)
        total += sum(len(v) for v in self.component_violations.values())
        if self.rule_checks is not None:
            total += len(self.rule_checks.conflicts)
        if self.derivation is not None:
            total += len(self.derivation.explicit_conflicts)
            total += len(self.derivation.similarity_conflicts)
        if self.subjectivity is not None:
            total += len(self.subjectivity.violations)
        return total

    def is_consistent(self) -> bool:
        """Whether the specification produced no conflicts at all."""
        return self.conflict_count() == 0 and not self.spec_issues


class IntegrationWorkbench:
    """Facade running the Figure 3 pipeline; see module docstring."""

    def __init__(
        self,
        spec: IntegrationSpecification,
        local_store: ObjectStore | None = None,
        remote_store: ObjectStore | None = None,
        descriptivity_view: str = "object",
    ):
        self.spec = spec
        self.local_store = local_store
        self.remote_store = remote_store
        self.descriptivity_view = descriptivity_view

    def run(self) -> IntegrationResult:
        result = IntegrationResult(self.spec)
        result.spec_issues = self.spec.validate()
        for side, store in (
            ("local", self.local_store),
            ("remote", self.remote_store),
        ):
            if store is not None:
                violations = store.audit()
                if violations:
                    key = f"{side} ({store.schema.name})"
                    result.component_violations[key] = [
                        violation.describe() for violation in violations
                    ]
                    result.component_cores[key] = store.explain_violations(
                        violations
                    )
        result.subjectivity = analyse_subjectivity(self.spec)
        result.conformation = conform(
            self.spec,
            self.local_store,
            self.remote_store,
            descriptivity_view=self.descriptivity_view,
        )
        result.rule_checks = check_rules(self.spec, result.conformation)
        result.static_warnings = _static_analysis(self.spec, result.conformation)

        if self.local_store is not None and self.remote_store is not None:
            result.match = match_instances(
                self.spec, self.local_store, self.remote_store
            )
            result.view = merge_instances(
                self.spec, result.conformation, result.match
            )
            result.hierarchy = derive_hierarchy(result.view, result.conformation)

        deriver = ConstraintDeriver(
            self.spec, result.conformation, result.subjectivity, result.rule_checks
        )
        result.derivation = deriver.run()
        result.class_constraints = integrate_class_constraints(
            self.spec, result.conformation
        )
        result.database_constraints = integrate_database_constraints(
            self.spec, result.conformation
        )

        if result.view is not None:
            result.state_violations = _validate_states(result)
        result.suggestions = _collect_suggestions(result)
        return result

    def run_with_repairs(self, max_rounds: int = 3) -> list[IntegrationResult]:
        """The design-tool fixpoint loop: run, apply every rule-repair
        suggestion (resolution option 2), and re-run until no repairable
        conflicts remain or ``max_rounds`` is reached.

        Returns the result of every round (the last one is the final state);
        the specification object is updated in place, mirroring a designer
        accepting the tool's suggestions.
        """
        history: list[IntegrationResult] = []
        for _ in range(max_rounds):
            result = self.run()
            history.append(result)
            replacements = {
                s.target: s.repaired_rule
                for s in result.suggestions
                if s.action == "repair-rule" and s.repaired_rule is not None
            }
            if not replacements:
                break
            self.spec.rules = [
                replacements.get(rule.name, rule) for rule in self.spec.rules
            ]
        return history


# ---------------------------------------------------------------------------
# static analysis (warnings before any data exists)
# ---------------------------------------------------------------------------


def _static_analysis(
    spec: IntegrationSpecification, conformation: ConformationResult
) -> list[Diagnostic]:
    """Constraint-level findings that need no instances at all.

    Two sources: each component schema's own analysis (unsatisfiable or
    contradictory constraints, type lint errors, redundancies), and
    cross-schema contradiction checks over the *conformed* constraints of
    classes the specification matches — an equality rule merges extents, a
    similarity rule classifies source objects under the target class, so in
    either case one object must satisfy both sides' constraints.  A conflict
    here means the merged schema is inconsistent before any data exists.
    """
    diagnostics: list[Diagnostic] = []
    for schema in (spec.local_schema, spec.remote_schema):
        diagnostics.extend(analyze_schema(schema, include_info=False).diagnostics)

    pairs = []
    for local_name, remote_name in _matched_classes(spec):
        local_schema = conformation.local.schema
        remote_schema = conformation.remote.schema
        if not local_schema.has_class(local_name) or not remote_schema.has_class(
            remote_name
        ):
            continue
        pairs.extend(
            (local_constraint, remote_constraint)
            for local_constraint in local_schema.effective_object_constraints(
                local_name
            )
            for remote_constraint in remote_schema.effective_object_constraints(
                remote_name
            )
        )
    diagnostics.extend(pairwise_conflicts(pairs))
    return diagnostics


def _matched_classes(spec: IntegrationSpecification) -> list[tuple[str, str]]:
    """(local class, remote class) pairs whose members must co-satisfy
    both sides' object constraints after integration."""
    from repro.integration.relationships import RelationshipKind, Side

    matched: list[tuple[str, str]] = []
    for rule in spec.rules:
        if rule.kind is RelationshipKind.EQUALITY:
            matched.extend(
                (local_name, remote_name)
                for local_name in rule.classes_on(Side.LOCAL)
                for remote_name in rule.classes_on(Side.REMOTE)
            )
        elif rule.kind in (
            RelationshipKind.SIMILARITY,
            RelationshipKind.APPROXIMATE_SIMILARITY,
        ):
            if not rule.source_class or not rule.target_class:
                continue
            if rule.source_side is Side.LOCAL:
                matched.append((rule.source_class, rule.target_class))
            else:
                matched.append((rule.target_class, rule.source_class))
    return matched


# ---------------------------------------------------------------------------
# state validation (actual implicit conflicts)
# ---------------------------------------------------------------------------


def _validate_states(result: IntegrationResult) -> list[StateViolation]:
    assert result.view is not None and result.derivation is not None
    view = result.view
    violations: list[StateViolation] = []
    for constraint in result.derivation.constraints:
        if not all(view.has_class(name) for name in constraint.classes):
            continue
        members = frozenset.intersection(*map(view.extent_oids, constraint.classes))
        for oid in sorted(members):
            obj = view.get(oid)
            verdict = view.satisfies(obj, constraint.formula)
            if verdict is False:
                violations.append(
                    StateViolation(
                        constraint.scope,
                        constraint.name,
                        oid,
                        f"state {obj.state!r} falsifies {constraint.describe()}",
                        core=_state_violation_core(view, constraint, oid),
                    )
                )
    return violations


def _state_violation_core(view: IntegratedView, constraint, oid: str):
    """Subset-minimal conflict core of a state violation, over the
    integrated view: the smallest set of global objects (containing the
    violator) whose isolated sub-view still falsifies the constraint.

    Same deletion-based shrink as the engine's cores
    (:func:`repro.engine.explain.shrink`); the conflict predicate masks
    view extents and treats a reference to a masked global object as an
    evaluation failure — which, mirroring ``view.satisfies`` returning
    ``None``, counts as *resolved*.
    """
    from repro.constraints.evaluate import ReasonTrace, compiled
    from repro.engine.explain import ConflictCore, CoreMember, shrink
    from repro.errors import EvaluationError

    run = compiled(constraint.formula)
    all_oids = view.oids()

    def masked_ctx(visible, current, trace=None):
        ctx = view.eval_context(current=current)
        base_get_attr = ctx.get_attr

        def get_attr(obj, name):
            value = base_get_attr(obj, name)
            target = getattr(value, "oid", None)
            if isinstance(target, str) and target in all_oids and target not in visible:
                raise EvaluationError(
                    f"reference {name!r} resolves to masked global "
                    f"object {target!r}"
                )
            return value

        ctx.get_attr = get_attr
        ctx.extents = {
            name: [obj for obj in extent if obj.oid in visible]
            for name, extent in ctx.extents.items()
        }
        ctx.trace = trace
        return ctx

    def conflicts(visible):
        if oid not in visible:
            return False
        try:
            return not run(masked_ctx(visible, view.get(oid)))
        except EvaluationError:
            return False

    seed_trace = ReasonTrace()
    try:
        if run(masked_ctx(all_oids, view.get(oid), trace=seed_trace)):
            return None
    except EvaluationError:
        return None
    support = [s for s in seed_trace.support() if s in all_oids]
    if oid not in support:
        support.insert(0, oid)
    if not conflicts(frozenset(support)):
        support = sorted(all_oids)
        if not conflicts(frozenset(support)):
            return None
    core_oids, checks, minimal = shrink(support, conflicts)
    iso_trace = ReasonTrace()
    conflicts_now = True
    try:
        conflicts_now = not run(
            masked_ctx(frozenset(core_oids), view.get(oid), trace=iso_trace)
        )
    except EvaluationError:  # pragma: no cover - conflicts() above filters
        pass
    chains, reads = iso_trace.member_index()
    members = tuple(
        CoreMember(
            oid=member,
            class_name=",".join(sorted(view.get(member).classes)) or "global",
            bindings=chains.get(member, ()),
            reads=reads.get(member, ()),
        )
        for member in sorted(core_oids)
    )
    return ConflictCore(
        constraint_name=constraint.name,
        kind="integrated",
        members=members,
        verdict="falsy" if conflicts_now else "stale",
        minimal=minimal,
        checks=checks,
        trace=iso_trace,
        constants=iso_trace.constants_read(),
    )


# ---------------------------------------------------------------------------
# suggestions
# ---------------------------------------------------------------------------


def _collect_suggestions(result: IntegrationResult) -> list[Suggestion]:
    suggestions: list[Suggestion] = []
    assert result.derivation is not None and result.conformation is not None
    for conflict in result.derivation.explicit_conflicts:
        suggestions.extend(suggest_for_explicit(conflict, result.spec))
    for risk in result.derivation.implicit_risks:
        suggestions.extend(suggest_for_implicit_risk(risk, result.spec))
    for conflict in result.derivation.similarity_conflicts:
        suggestions.append(
            repair_similarity_rule(conflict, result.conformation)
        )
    return suggestions
