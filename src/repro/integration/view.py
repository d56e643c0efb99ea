"""The integrated (global) view of the two component databases.

Holds the merged global objects, class extents keyed by *qualified* class
names (``CSLibrary.RefereedPubl``, ``Bookseller.Proceedings``), virtual
classes arising from approximate similarity or partial extent overlaps, and
— once the workbench has run — the set of integrated constraints.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, TYPE_CHECKING

from repro.constraints.ast import Node
from repro.constraints.evaluate import EvalContext, evaluate
from repro.constraints.parser import parse_expression
from repro.errors import EvaluationError, IntegrationError
from repro.integration.conformation import ConformationResult
from repro.integration.spec import IntegrationSpecification

if TYPE_CHECKING:  # pragma: no cover
    from repro.integration.merging import GlobalObject


@dataclass(frozen=True)
class _ViewState:
    """The view's derived evaluation state, built in one pass per view
    generation: per-class oid sets, per-class object tuples in sorted-oid
    order, every global oid, and the merged component constants."""

    members: dict[str, frozenset[str]]
    extents: Mapping[str, tuple["GlobalObject", ...]]
    oids: frozenset[str]
    constants: Mapping[str, Any]


class IntegratedView:
    """See module docstring.

    Class extents, evaluation extents and the merged constants are derived
    lazily from the objects' classes and the virtual extents, once per view
    generation.  :meth:`add_object`, :meth:`add_virtual_extent_member`,
    :meth:`register_virtual_superclass` and :meth:`rebuild_extents` start a
    new generation; call :meth:`rebuild_extents` after changing an object's
    ``classes`` in place.  The conformed schemas' constants are read once per
    generation: conformation fixed them.
    """

    def __init__(
        self, spec: IntegrationSpecification, conformation: ConformationResult
    ):
        self.spec = spec
        self.conformation = conformation
        self._objects: dict[str, "GlobalObject"] = {}
        #: virtual class name → global oids explicitly placed there.
        self._virtual_extents: dict[str, set[str]] = {}
        #: virtual class name → qualified superclass names (approx. Sim Cv).
        self.virtual_superclasses: dict[str, set[str]] = {}
        self._state: _ViewState | None = None

    # -- population (used by merging) ----------------------------------------

    def add_object(self, obj: "GlobalObject") -> None:
        if obj.oid in self._objects:
            raise IntegrationError(f"duplicate global object {obj.oid}")
        self._objects[obj.oid] = obj
        self._state = None

    def add_virtual_extent_member(self, virtual_class: str, oid: str) -> None:
        self._virtual_extents.setdefault(virtual_class, set()).add(oid)
        self._state = None

    def register_virtual_superclass(self, virtual_class: str, parent: str) -> None:
        self.virtual_superclasses.setdefault(virtual_class, set()).add(parent)
        self._state = None

    def rebuild_extents(self) -> None:
        """Start a new view generation (after objects' classes changed)."""
        self._state = None

    def _derived(self) -> _ViewState:
        state = self._state
        if state is None:
            state = self._state = self._build_state()
        return state

    def _build_state(self) -> _ViewState:
        members: dict[str, set[str]] = {}
        for obj in self._objects.values():
            for class_name in obj.classes:
                members.setdefault(class_name, set()).add(obj.oid)
        for virtual_class, virtual_members in self._virtual_extents.items():
            extent = members.setdefault(virtual_class, set())
            extent.update(virtual_members)
            # The approximate-similarity Cv also contains the target class.
            for parent in self.virtual_superclasses.get(virtual_class, ()):
                extent.update(members.get(parent, ()))
        constants = {
            **self.conformation.remote.schema.constants,
            **self.conformation.local.schema.constants,
        }
        # Sorted-oid order, so aggregates and witnesses over the view do not
        # depend on set iteration order (and with it on PYTHONHASHSEED).
        return _ViewState(
            members={name: frozenset(oids) for name, oids in members.items()},
            extents=MappingProxyType(
                {
                    name: tuple(self._objects[oid] for oid in sorted(oids))
                    for name, oids in members.items()
                }
            ),
            oids=frozenset(self._objects),
            constants=MappingProxyType(constants),
        )

    # -- access ---------------------------------------------------------------------

    def objects(self) -> Iterable["GlobalObject"]:
        return self._objects.values()

    def oids(self) -> frozenset[str]:
        """Every global object id."""
        return self._derived().oids

    def get(self, oid: str) -> "GlobalObject":
        if oid not in self._objects:
            raise IntegrationError(f"no global object {oid!r}")
        return self._objects[oid]

    def classes(self) -> list[str]:
        return sorted(self._derived().members)

    def extent(self, class_name: str) -> list["GlobalObject"]:
        """The global extent of a (qualified or virtual) class name, in
        sorted-oid order."""
        extents = self._derived().extents
        if class_name not in extents:
            raise IntegrationError(f"no global class {class_name!r}")
        return list(extents[class_name])

    def extent_oids(self, class_name: str) -> frozenset[str]:
        return self._derived().members.get(class_name, frozenset())

    def in_extent(self, class_name: str, oid: str) -> bool:
        """Whether ``oid`` is in the global extent of ``class_name``."""
        members = self._derived().members.get(class_name)
        return members is not None and oid in members

    def has_class(self, class_name: str) -> bool:
        return class_name in self._derived().members

    def merged_objects(self) -> list["GlobalObject"]:
        """Objects with components from both databases (Eq merges)."""
        return [
            obj
            for obj in self._objects.values()
            if len(obj.components) == 2
        ]

    # -- evaluation -------------------------------------------------------------------

    def get_attr(self, obj: Any, name: str) -> Any:
        from repro.integration.merging import GlobalObject

        if isinstance(obj, GlobalObject):
            if name not in obj.state:
                raise EvaluationError(
                    f"global object {obj.oid} has no property {name!r}"
                )
            value = obj.state[name]
            if name in obj.references:
                return self._objects.get(value, value)
            return value
        raise EvaluationError(f"cannot read {name!r} from {obj!r}")

    def eval_context(self, current: Any = None, self_extent_class: str | None = None) -> EvalContext:
        """A fresh context over the view's shared, read-only evaluation
        state; replacing its fields does not affect later contexts."""
        state = self._derived()
        self_extent: tuple["GlobalObject", ...] = ()
        if self_extent_class:
            if self_extent_class not in state.extents:
                raise IntegrationError(f"no global class {self_extent_class!r}")
            self_extent = state.extents[self_extent_class]
        return EvalContext(
            current=current,
            extents=state.extents,
            self_extent=self_extent,
            constants=state.constants,
            get_attr=self.get_attr,
        )

    def select(
        self, class_name: str, predicate: "str | Node | Callable | None" = None
    ) -> list["GlobalObject"]:
        """Objects of a global class satisfying a predicate (cf. queries
        against the integrated view, one of the paper's motivations)."""
        extent = self.extent(class_name)
        if predicate is None:
            return extent
        if isinstance(predicate, str):
            predicate = parse_expression(predicate)
        if isinstance(predicate, Node):
            formula = predicate
            selected = []
            for obj in extent:
                try:
                    if evaluate(formula, self.eval_context(current=obj)):
                        selected.append(obj)
                except EvaluationError:
                    continue  # partial global states: treat as non-match
            return selected
        return [obj for obj in extent if predicate(obj)]

    def satisfies(self, obj: "GlobalObject", formula: Node) -> bool | None:
        """Evaluate a constraint on a global object; ``None`` if the object's
        state lacks the needed properties."""
        try:
            return bool(evaluate(formula, self.eval_context(current=obj)))
        except EvaluationError:
            return None
