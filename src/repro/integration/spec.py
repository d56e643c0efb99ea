"""The integration specification: rules + property equivalences + overrides.

An :class:`IntegrationSpecification` collects everything a designer writes in
Section 2.2 — object comparison rules, ``propeq`` assertions — plus the
Section 5.1.3 design decisions (which constraints are declared subjective /
objective) and presentation hints (names for virtual classes such as
``RefereedProceedings``).  :meth:`IntegrationSpecification.validate` performs
the well-formedness checks that do *not* need the constraint machinery;
semantic validation against constraints is the workbench's job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpecificationError
from repro.integration.propeq import PropertyEquivalence, first_covering
from repro.integration.relationships import RelationshipKind, Side
from repro.integration.rules import ComparisonRule
from repro.tm.schema import DatabaseSchema
from repro.types.primitives import BoolType, RangeType, SetType, StringType
from repro.types.values import default_value


@dataclass(frozen=True)
class SpecificationIssue:
    """A structural problem in the integration specification."""

    location: str
    message: str

    def describe(self) -> str:
        return f"{self.location}: {self.message}"


class IntegrationSpecification:
    """See module docstring."""

    def __init__(self, local_schema: DatabaseSchema, remote_schema: DatabaseSchema):
        self.local_schema = local_schema
        self.remote_schema = remote_schema
        self.rules: list[ComparisonRule] = []
        self.propeqs: list[PropertyEquivalence] = []
        #: Qualified constraint names the designer declares subjective
        #: (business rules like CSLibrary.Publication.cc2 or the intro's
        #: salary < 1500).
        self.declared_subjective: set[str] = set()
        #: Qualified names of class constraints the designer insists are
        #: objective despite Section 5.2.2's default (must then be proved
        #: safe or enforced globally).
        self.declared_objective: set[str] = set()
        #: Naming hints for derived virtual classes, keyed by the frozenset
        #: of the two intersecting class names.
        self.virtual_class_names: dict[frozenset, str] = {}

    # -- construction ------------------------------------------------------------

    def add_rule(self, rule: ComparisonRule) -> ComparisonRule:
        self.rules.append(rule)
        return rule

    def add_propeq(self, propeq: PropertyEquivalence) -> PropertyEquivalence:
        self.propeqs.append(propeq)
        return propeq

    def declare_subjective(self, qualified_name: str) -> None:
        """Declare a constraint valid only in its database's own context."""
        self.declared_subjective.add(qualified_name)

    def declare_objective(self, qualified_name: str) -> None:
        """Insist a (class) constraint holds beyond its database's context."""
        self.declared_objective.add(qualified_name)

    def name_virtual_class(self, class_a: str, class_b: str, name: str) -> None:
        """Name the virtual class arising from the overlap of two classes
        (e.g. Proceedings ∩ RefereedPubl → ``RefereedProceedings``)."""
        self.virtual_class_names[frozenset((class_a, class_b))] = name

    # -- lookups ----------------------------------------------------------------------

    def schema_on(self, side: Side) -> DatabaseSchema:
        return self.local_schema if side is Side.LOCAL else self.remote_schema

    def equality_rules(self) -> list[ComparisonRule]:
        return [r for r in self.rules if r.kind is RelationshipKind.EQUALITY]

    def similarity_rules(self) -> list[ComparisonRule]:
        return [r for r in self.rules if r.kind is RelationshipKind.SIMILARITY]

    def approximate_rules(self) -> list[ComparisonRule]:
        return [
            r
            for r in self.rules
            if r.kind is RelationshipKind.APPROXIMATE_SIMILARITY
        ]

    def descriptivity_rules(self) -> list[ComparisonRule]:
        return [r for r in self.rules if r.kind is RelationshipKind.DESCRIPTIVITY]

    def propeq_for(self, side: Side, class_name: str, prop: str) -> PropertyEquivalence | None:
        """The propeq covering ``class_name.prop`` on ``side`` (declarations
        on an ancestor class cover subclasses; see :func:`first_covering`)."""
        return first_covering(self.propeqs, prop, ((side, class_name),), self.schema_on)

    def affected_classes(self, side: Side) -> set[str]:
        """Classes on ``side`` whose (deep) extents the integration can
        change — the complement of the paper's *objective extension*
        (Section 5.2.2).

        A class is affected if an equality or strict-similarity rule touches
        it or any of its subclasses (subclass members are members of the
        ancestor's deep extent), or if similarity adds remote objects to it.
        """
        schema = self.schema_on(side)
        affected: set[str] = set()
        for rule in self.rules:
            if rule.kind is RelationshipKind.EQUALITY:
                touched = rule.classes_on(side)
            elif rule.kind is RelationshipKind.SIMILARITY:
                # The target class gains objects; the source class's extent
                # itself does not change (its objects merely also classify
                # elsewhere).
                touched = (
                    {rule.target_class}
                    if side is not rule.source_side and rule.target_class
                    else set()
                )
            else:
                touched = set()
            for class_name in touched:
                if not schema.has_class(class_name):
                    continue
                for ancestor in schema.ancestors(class_name):
                    affected.add(ancestor.name)
        return affected

    # -- validation ----------------------------------------------------------------------

    def validate(self, raise_on_error: bool = False) -> list[SpecificationIssue]:
        issues: list[SpecificationIssue] = []
        self._validate_rules(issues)
        self._validate_propeqs(issues)
        self._validate_declarations(issues)
        if issues and raise_on_error:
            raise SpecificationError(
                "; ".join(issue.describe() for issue in issues)
            )
        return issues

    def _validate_rules(self, issues: list[SpecificationIssue]) -> None:
        for rule in self.rules:
            location = rule.name or rule.describe()
            if rule.kind is RelationshipKind.EQUALITY:
                if rule.local_class and not self.local_schema.has_class(rule.local_class):
                    issues.append(
                        SpecificationIssue(
                            location, f"unknown local class {rule.local_class!r}"
                        )
                    )
                if rule.remote_class and not self.remote_schema.has_class(
                    rule.remote_class
                ):
                    issues.append(
                        SpecificationIssue(
                            location, f"unknown remote class {rule.remote_class!r}"
                        )
                    )
            else:
                source_schema = self.schema_on(rule.source_side)
                target_schema = self.schema_on(rule.source_side.other)
                if rule.source_class and not source_schema.has_class(rule.source_class):
                    issues.append(
                        SpecificationIssue(
                            location,
                            f"unknown source class {rule.source_class!r} on "
                            f"{rule.source_side.value} side",
                        )
                    )
                if rule.target_class and not target_schema.has_class(rule.target_class):
                    issues.append(
                        SpecificationIssue(
                            location,
                            f"unknown target class {rule.target_class!r} on "
                            f"{rule.source_side.other.value} side",
                        )
                    )

    def _validate_propeqs(self, issues: list[SpecificationIssue]) -> None:
        conformed_names: dict[tuple[Side, str], set[str]] = {}
        for propeq in self.propeqs:
            location = propeq.describe_short()
            for side in (Side.LOCAL, Side.REMOTE):
                schema = self.schema_on(side)
                class_name = propeq.class_on(side)
                prop = propeq.property_on(side)
                if not schema.has_class(class_name):
                    issues.append(
                        SpecificationIssue(
                            location,
                            f"unknown {side.value} class {class_name!r}",
                        )
                    )
                    continue
                if prop not in schema.effective_attributes(class_name):
                    issues.append(
                        SpecificationIssue(
                            location,
                            f"{side.value} class {class_name} has no "
                            f"property {prop!r}",
                        )
                    )
                    continue
                self._check_df_idempotent(propeq, side, schema, class_name, prop, issues)
                key = (side, class_name)
                taken = conformed_names.setdefault(key, set())
                assert propeq.conformed_name is not None
                if propeq.conformed_name in taken:
                    issues.append(
                        SpecificationIssue(
                            location,
                            f"conformed name {propeq.conformed_name!r} already "
                            f"used on {side.value} class {class_name}",
                        )
                    )
                taken.add(propeq.conformed_name)

    def _check_df_idempotent(
        self,
        propeq: PropertyEquivalence,
        side: Side,
        schema: DatabaseSchema,
        class_name: str,
        prop: str,
        issues: list[SpecificationIssue],
    ) -> None:
        tm_type = schema.attribute_type(class_name, prop)
        samples = [default_value(tm_type)]
        if isinstance(tm_type, RangeType):
            samples.append(tm_type.high)
        elif isinstance(tm_type, BoolType):
            samples.append(True)
        elif isinstance(tm_type, StringType):
            samples.append("probe")
        elif isinstance(tm_type, SetType):
            samples.append(frozenset({"probe"}))
        try:
            converted = [propeq.cf_on(side).apply(value) for value in samples]
            propeq.df.check_idempotent(converted)
        except SpecificationError as exc:
            issues.append(SpecificationIssue(propeq.describe_short(), str(exc)))
        except Exception:
            # Conversion not applicable to the probe (e.g. mapping without an
            # entry): idempotence is checked on real values at merge time.
            pass

    def _validate_declarations(self, issues: list[SpecificationIssue]) -> None:
        known = {
            c.qualified_name
            for schema in (self.local_schema, self.remote_schema)
            for c in schema.all_constraints()
        }
        for name in sorted(self.declared_subjective | self.declared_objective):
            if name not in known:
                issues.append(
                    SpecificationIssue(
                        name, "declaration references an unknown constraint"
                    )
                )
        for name in sorted(self.declared_subjective & self.declared_objective):
            issues.append(
                SpecificationIssue(
                    name, "declared both subjective and objective"
                )
            )
