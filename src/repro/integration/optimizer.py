"""Global query optimisation with derived integrity constraints.

The paper's first motivation for global constraints: "Global integrity
constraints thus obtained could for example be used in optimising queries
against the integrated view, eliminating subqueries which are known to yield
empty results."

:class:`GlobalQueryOptimizer` does exactly that: a query predicate against a
global class is conjoined with every integrated constraint applicable to that
class; if the conjunction is unsatisfiable, the (sub)query is answered empty
without touching any extent.  The optimiser also simplifies disjunctive
predicates by pruning unsatisfiable disjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.ast import Node, conjoin, disjoin
from repro.constraints.normalize import to_dnf
from repro.constraints.parser import parse_expression
from repro.constraints.printer import to_source
from repro.constraints.solver import Solver, TypeEnvironment
from repro.integration.relationships import Side
from repro.integration.workbench import IntegrationResult


@dataclass
class QueryDecision:
    """The optimiser's verdict on one (sub)query."""

    class_name: str
    predicate: Node
    empty: bool
    #: The constraints that proved emptiness (when ``empty``).
    reasons: tuple[str, ...] = ()

    def describe(self) -> str:
        verdict = "EMPTY (pruned)" if self.empty else "may yield results"
        return f"{self.class_name} where {to_source(self.predicate)}: {verdict}"


class GlobalQueryOptimizer:
    """See module docstring."""

    def __init__(self, result: IntegrationResult):
        if result.derivation is None or result.conformation is None:
            raise ValueError("run the workbench before optimising queries")
        self.result = result
        self._by_class: dict[str, list] = {}
        for constraint in result.global_constraints:
            for class_name in constraint.classes:
                self._by_class.setdefault(class_name, []).append(constraint)

    # -- constraint lookup -------------------------------------------------------

    def constraints_for(self, class_name: str) -> list:
        """Integrated constraints applicable to a qualified global class.

        A constraint scoped to a pair ``A ⋈ B`` constrains objects in the
        intersection; for a query against ``A`` alone it applies only to the
        merged objects, so pair constraints are used when the query class
        participates in the pair.
        """
        return list(self._by_class.get(class_name, ()))

    def environment_for(self, class_name: str) -> TypeEnvironment:
        env = TypeEnvironment()
        for side in (Side.LOCAL, Side.REMOTE):
            conformed = self.result.conformation.on(side)  # type: ignore[union-attr]
            schema = conformed.schema
            prefix = f"{schema.name}."
            if class_name.startswith(prefix):
                bare = class_name[len(prefix):]
                if schema.has_class(bare):
                    env = env.merged_with(schema.type_environment(bare))
        return env

    # -- optimisation ---------------------------------------------------------------

    def analyse(self, class_name: str, predicate: "str | Node") -> QueryDecision:
        """Decide whether a query can be answered empty from constraints."""
        if isinstance(predicate, str):
            predicate = parse_expression(predicate)
        constraints = self.constraints_for(class_name)
        env = self.environment_for(class_name)
        solver = Solver(env)
        formulas = [c.formula for c in constraints]
        if formulas and solver.is_unsatisfiable(
            conjoin(formulas + [predicate])
        ):
            culprits = _minimal_culprits(solver, formulas, predicate)
            names = tuple(
                constraints[formulas.index(f)].name for f in culprits
            )
            return QueryDecision(class_name, predicate, True, names)
        if solver.is_unsatisfiable(predicate):
            return QueryDecision(class_name, predicate, True, ("<predicate>",))
        return QueryDecision(class_name, predicate, False)

    def simplify(self, class_name: str, predicate: "str | Node") -> Node:
        """Drop disjuncts that the constraints refute.

        ``(rating < 5 and publisher.name = 'ACM') or rating >= 9`` over a
        scope deriving ``ACM implies rating >= 5`` simplifies to
        ``rating >= 9``.
        """
        if isinstance(predicate, str):
            predicate = parse_expression(predicate)
        constraints = [c.formula for c in self.constraints_for(class_name)]
        if not constraints:
            return predicate
        solver = Solver(self.environment_for(class_name))
        base = conjoin(constraints)
        kept: list[Node] = []
        for branch in to_dnf(predicate):
            branch_formula = conjoin(list(branch))
            if solver.is_satisfiable(conjoin([base, branch_formula])):
                kept.append(branch_formula)
        return disjoin(kept)

    def execute(self, class_name: str, predicate: "str | Node"):
        """Answer a query, short-circuiting provably empty ones."""
        decision = self.analyse(class_name, predicate)
        if decision.empty:
            return []
        view = self.result.view
        if view is None:
            raise ValueError("no integrated view: workbench ran without stores")
        if isinstance(predicate, str):
            predicate = parse_expression(predicate)
        return view.select(class_name, predicate)


def _minimal_culprits(
    solver: Solver, formulas: list[Node], predicate: Node
) -> list[Node]:
    """A (greedy) minimal subset of constraints still refuting the predicate."""
    culprits = list(formulas)
    for formula in list(culprits):
        trial = [f for f in culprits if f is not formula]
        if solver.is_unsatisfiable(conjoin(trial + [predicate])):
            culprits = trial
    return culprits
