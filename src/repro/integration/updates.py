"""Global update validation with derived integrity constraints.

The paper's second motivation: global constraints can be used "in the
validation of update transactions, preventing the formulation of
subtransactions which will certainly be rejected by the local transaction
manager".

:class:`GlobalUpdateValidator` judges the object a proposed update would
produce, never a bare state: (a) the global object with the proposed state
against the integrated constraint set, through
:meth:`~repro.integration.view.IntegratedView.satisfies`, and (b) each
component's conformed object with the projected state against the checks
that component's engine plans for an update of the written properties
(:meth:`~repro.engine.incremental.ConstraintDependencyIndex.checks_for`) —
so a doomed subtransaction is rejected *before* it is shipped to a
component.  Each object model reads itself: the view dereferences a global
object's declared references, the conformation a conformed object's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.evaluate import EvalContext, EvaluationError
from repro.constraints.printer import to_source
from repro.engine.incremental import ConstraintDependencyIndex, IndexedConstraint
from repro.integration.conformation import ConformedObject
from repro.integration.merging import GlobalObject
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

    A component's checks for an update are its engine's check plan per
    written (class, property), memoised on the validator, so
    :meth:`validate` costs in proportion to the updated object and its
    constraints, not to the view.  Build a new validator after re-running
    the workbench.
    """

    def __init__(self, result: IntegrationResult):
        if result.view is None or result.derivation is None:
            raise ValueError("run the workbench with stores before validating updates")
        assert result.conformation is not None
        self.result = result
        self.view = result.view
        self.conformation = result.conformation
        self._global_constraints = result.global_constraints
        #: (side, write shape) → the component's object checks on the
        #: written object, in its evaluation order.
        self._plans: dict[tuple[Side, str | tuple[str, str]], tuple[IndexedConstraint, ...]] = {}

    def validate(self, global_oid: str, **changes) -> UpdateVerdict:
        """Validate updating ``global_oid``'s state with ``changes``."""
        verdict = UpdateVerdict(global_oid, changes)
        obj = self.view.get(global_oid)
        self._check_global_constraints(obj, changes, verdict)
        changed = {key: value for key, value in changes.items() if obj.state.get(key) != value}
        self._check_component_constraints(obj, changed, verdict)
        return verdict

    # -- global level ---------------------------------------------------------------

    def _check_global_constraints(self, obj: GlobalObject, changes, verdict) -> None:
        proposed = GlobalObject(obj.oid, obj.components, {**obj.state, **changes}, obj.classes)
        proposed.references = obj.references  # not an init field
        for constraint in self._global_constraints:
            if not all(
                cls in obj.classes or self.view.in_extent(cls, obj.oid)
                for cls in constraint.classes
            ):
                continue
            if self.view.satisfies(proposed, constraint.formula) is False:
                verdict.rejections.append(
                    Rejection(
                        "global",
                        constraint.name,
                        f"violates {to_source(constraint.formula)} "
                        f"({constraint.origin})",
                    )
                )

    # -- component level ----------------------------------------------------------------

    def _check_component_constraints(self, obj: GlobalObject, changed, verdict) -> None:
        """A component's own constraints must hold on the state it would
        store — the subtransaction its transaction manager will see.

        A changed global value maps back to the sides whose property stays
        objective under the decision function: a trusted side receives it, a
        conflict-ignored property may land on either side (checked on both).
        Settling / eliminating functions keep no side objective and are not
        invertible — checks that read such properties cannot be pre-validated
        from the global state and are skipped (the derived *global*
        constraints cover them instead).
        """
        local = obj.component_on(Side.LOCAL)
        remote = obj.component_on(Side.REMOTE)
        for side, component in obj.components.items():
            class_name = component.class_name
            projected = dict(component.state)
            touched: list[str] = []
            untranslatable: list[str] = []
            for key, value in changed.items():
                if key not in component.state:
                    continue
                touched.append(key)
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
                    untranslatable.append(key)
            checks = self._checks(side, class_name, touched, untranslatable)
            if not checks:
                continue
            schema = self.conformation.on(side).schema
            target = ConformedObject(
                component.oid, class_name, projected, side, component.source_oid, component.virtual
            )
            context = EvalContext(
                current=target, constants=schema.constants, get_attr=self.conformation.get_attr
            )
            for entry in checks:
                try:
                    if entry.evaluate_with(context):
                        continue
                except EvaluationError:
                    continue  # undecided on this state
                verdict.rejections.append(
                    Rejection(
                        schema.name,
                        entry.constraint.qualified_name,
                        "the subtransaction would be rejected by this "
                        "component's transaction manager: "
                        f"{to_source(entry.constraint.formula)}",
                    )
                )

    def _checks(
        self, side: Side, class_name: str, touched: list[str], untranslatable: list[str]
    ) -> tuple[IndexedConstraint, ...]:
        """The checks an update of the ``touched`` properties of a
        ``class_name`` object runs, in the engine's evaluation order, less
        those that read an untranslatable property."""
        if not touched:
            return ()
        if len(touched) == 1 and not untranslatable:
            # The common update: its plan as is, without the union's
            # set and scan (~10% of an accepted validation).
            return self._plan(side, (class_name, touched[0]))
        chosen = {entry for key in touched for entry in self._plan(side, (class_name, key))}
        chosen.difference_update(
            entry for key in untranslatable for entry in self._plan(side, (class_name, key))
        )
        return tuple(entry for entry in self._plan(side, class_name) if entry in chosen)

    def _plan(self, side: Side, shape: str | tuple[str, str]) -> tuple[IndexedConstraint, ...]:
        """The component's object checks on an object a write of ``shape``
        touches (a class: all of them, in order)."""
        plan = self._plans.get((side, shape))
        if plan is None:
            index = ConstraintDependencyIndex.for_schema(self.conformation.on(side).schema)
            plan = self._plans[side, shape] = index.checks_for(shape).own
        return plan
