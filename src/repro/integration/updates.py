"""Global update validation with derived integrity constraints.

The paper's second motivation: global constraints can be used "in the
validation of update transactions, preventing the formulation of
subtransactions which will certainly be rejected by the local transaction
manager".

:class:`GlobalUpdateValidator` checks a proposed update of a global object
against (a) the integrated constraint set and (b) each component database's
own (conformed) object constraints as they would apply to the updated state —
so a doomed subtransaction is rejected *before* it is shipped to a component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.constraints.ast import paths_in
from repro.constraints.evaluate import EvalContext, EvaluationError, evaluate
from repro.constraints.model import Constraint
from repro.constraints.printer import to_source
from repro.engine.incremental import ConstraintDependencyIndex
from repro.integration.conformation import ConformationResult, ConformedObject
from repro.integration.relationships import Side
from repro.integration.workbench import IntegrationResult


@dataclass(frozen=True)
class Rejection:
    """One reason an update would fail."""

    level: str  # 'global' or a component database name
    constraint: str
    detail: str

    def describe(self) -> str:
        return f"[{self.level}] {self.constraint}: {self.detail}"


@dataclass
class UpdateVerdict:
    """The outcome of validating one proposed update."""

    global_oid: str
    changes: dict
    rejections: list[Rejection] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return not self.rejections

    def describe(self) -> str:
        if self.accepted:
            return f"update of {self.global_oid} accepted"
        reasons = "; ".join(r.describe() for r in self.rejections)
        return f"update of {self.global_oid} rejected: {reasons}"


class GlobalUpdateValidator:
    """See module docstring.

    The constructor turns the integration result into a validation plan:
    the global constraints with their classes, the merged component
    constants, and per (side, conformed class) the component's object
    constraints with the attributes each reads off the constrained object,
    and the reader a projected state of the class is evaluated with.
    :meth:`validate` then costs in proportion to the updated object and its
    constraints, not to the view.  The plan is a snapshot of the result:
    build a new validator after re-running the workbench.
    """

    def __init__(self, result: IntegrationResult):
        if result.view is None or result.derivation is None:
            raise ValueError("run the workbench with stores before validating updates")
        assert result.conformation is not None
        self.result = result
        self.view = result.view
        self.conformation = result.conformation
        self._global_constraints = result.global_constraints
        self._constants = {
            **self.conformation.remote.schema.constants,
            **self.conformation.local.schema.constants,
        }
        self._component_plan: dict[tuple[Side, str], tuple[list, partial]] = {}
        for side in (Side.LOCAL, Side.REMOTE):
            schema = self.conformation.on(side).schema
            index = ConstraintDependencyIndex.for_schema(schema)
            for class_name in schema.classes:
                references = self.conformation.references(side, class_name)[0]
                self._component_plan[(side, class_name)] = (
                    [(c, _read_attrs(index, c)) for c in schema.effective_object_constraints(class_name)],
                    partial(_component_get_attr, self.conformation, references),
                )

    def validate(self, global_oid: str, **changes) -> UpdateVerdict:
        """Validate updating ``global_oid``'s state with ``changes``."""
        verdict = UpdateVerdict(global_oid, changes)
        obj = self.view.get(global_oid)
        proposed = dict(obj.state)
        proposed.update(changes)

        self._check_global_constraints(obj, proposed, verdict)
        self._check_component_constraints(obj, proposed, verdict)
        return verdict

    # -- global level ---------------------------------------------------------------

    def _check_global_constraints(self, obj, proposed, verdict) -> None:
        for constraint in self._global_constraints:
            if not all(
                cls in obj.classes or self._virtual_member(cls, obj) for cls in constraint.classes
            ):
                continue
            satisfied = self._evaluate(constraint.formula, proposed)
            if satisfied is False:
                verdict.rejections.append(
                    Rejection(
                        "global",
                        constraint.name,
                        f"violates {to_source(constraint.formula)} "
                        f"({constraint.origin})",
                    )
                )

    def _virtual_member(self, class_name: str, obj) -> bool:
        return self.view.in_extent(class_name, obj.oid)

    # -- component level ----------------------------------------------------------------

    def _check_component_constraints(self, obj, proposed, verdict) -> None:
        """A component's own constraints must hold on the state it would
        store — the subtransaction its transaction manager will see.

        A changed global value maps back to the sides whose property stays
        objective under the decision function: a trusted side receives it, a
        conflict-ignored property may land on either side (checked on both).
        Settling / eliminating functions keep no side objective and are not
        invertible — constraints over such properties cannot be pre-validated
        from the global state and are skipped (the derived *global*
        constraints cover them instead).
        """
        changes = {
            key: value
            for key, value in proposed.items()
            if obj.state.get(key) != value
        }
        local = obj.component_on(Side.LOCAL)
        remote = obj.component_on(Side.REMOTE)
        for side, component in obj.components.items():
            plan = self._component_plan.get((side, component.class_name))
            if plan is None:
                continue
            checks, get_attr = plan
            projected = dict(component.state)
            untranslatable: set[str] = set()
            for key, value in changes.items():
                if key not in component.state:
                    continue
                propeq = None
                if local is not None and remote is not None:
                    propeq = self.conformation.propeq_between(
                        local.class_name, remote.class_name, key
                    )
                if propeq is None:
                    projected[key] = value
                    continue
                sides = propeq.df.objective_sides()
                if side in sides:
                    projected[key] = value
                elif not sides:  # settling / eliminating: not invertible
                    untranslatable.add(key)
            for constraint, reads in checks:
                if not reads.isdisjoint(untranslatable):
                    continue
                if reads.isdisjoint(changes):
                    continue  # untouched by this update
                satisfied = self._evaluate_component(constraint.formula, projected, get_attr)
                if satisfied is False:
                    verdict.rejections.append(
                        Rejection(
                            self.conformation.on(side).schema.name,
                            constraint.qualified_name,
                            "the subtransaction would be rejected by this "
                            "component's transaction manager: "
                            f"{to_source(constraint.formula)}",
                        )
                    )

    def _evaluate_component(self, formula, state: dict, get_attr) -> bool | None:
        """Evaluate against a conformed component state."""
        try:
            return bool(
                evaluate(
                    formula,
                    EvalContext(current=state, constants=self._constants, get_attr=get_attr),
                )
            )
        except EvaluationError:
            return None

    def _evaluate(self, formula, state: dict) -> bool | None:
        # Plain dict states flow through the view's accessor, which still
        # dereferences global object ids for paths like publisher.name.
        try:
            return bool(evaluate(formula, self.view.eval_context(current=state)))
        except EvaluationError:
            return None


def _component_get_attr(
    conformation: ConformationResult, references: frozenset[str], obj, name: str
):
    """Read a conformed component's state — a projected state (a dict) as
    that of a class with ``references`` — dereferencing only declared
    reference attributes through the conformation's instance index.  A
    module function, so a validator's plan holds no cycle back to it."""
    if isinstance(obj, ConformedObject):
        state = obj.state
        references = conformation.references(obj.side, obj.class_name)[0]
    elif isinstance(obj, dict):
        state = obj
    else:
        raise EvaluationError(f"cannot read {name!r} from {obj!r}")
    if name not in state:
        raise EvaluationError(f"component state has no property {name!r}")
    value = state[name]
    if name in references:
        return conformation.instances_by_oid.get(value, value)
    return value


def _read_attrs(index: ConstraintDependencyIndex, constraint: Constraint) -> frozenset[str]:
    """Attribute names ``constraint`` reads off the constrained object, per
    the engine's constraint-dependency index.  Unresolvable (universal)
    constraints report every attribute mentioned so they are never skipped."""
    entry = index.entry(constraint)
    if entry is None or entry.universal:
        return frozenset(path.parts[0] for path in paths_in(constraint.formula))
    return entry.own_attr_names()
