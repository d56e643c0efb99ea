"""Deriving the integrated class hierarchy from extents (Section 2.3).

"A classification for the integrated view is now formed by applying both the
local and the remote classification to the global object set ...
relationships between local and remote classes may thus be detected; for
example, ``C isa C'`` iff every object of ``C`` is Eq- or Sim-related into
``C'``.  Thus, the global class hierarchy is a result of object relationships
rather than being defined explicitly."

For partially overlapping extents the paper derives *virtual* classes: "if it
turns out that some, but not all, of the objects in Proceedings and
RefereedPubl are similar, a virtual global subclass RefereedProceedings
containing these objects arises, which is a subclass of both".

The hierarchy is a :class:`networkx.DiGraph` whose edges point from subclass
to superclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.integration.conformation import ConformationResult
from repro.integration.relationships import Side
from repro.integration.view import IntegratedView


@dataclass
class DerivedHierarchy:
    """The integrated class hierarchy plus derivation notes."""

    graph: nx.DiGraph
    #: Cross-database subclass relationships detected from extents.
    derived_edges: list[tuple[str, str]] = field(default_factory=list)
    #: Pairs of classes with identical non-empty global extents.
    equivalent_classes: list[tuple[str, str]] = field(default_factory=list)
    #: Virtual intersection classes: name → (class_a, class_b).
    virtual_classes: dict[str, tuple[str, str]] = field(default_factory=dict)

    def is_subclass(self, child: str, parent: str) -> bool:
        if child == parent:
            return True
        return self.graph.has_node(child) and self.graph.has_node(parent) and nx.has_path(
            self.graph, child, parent
        )

    def parents_of(self, class_name: str) -> set[str]:
        if not self.graph.has_node(class_name):
            return set()
        return set(self.graph.successors(class_name))


def derive_hierarchy(
    view: IntegratedView, conformation: ConformationResult
) -> DerivedHierarchy:
    """Build the integrated hierarchy: declared isa edges + derived edges +
    virtual overlap classes."""
    graph = nx.DiGraph()
    result = DerivedHierarchy(graph)

    for side in (Side.LOCAL, Side.REMOTE):
        schema = conformation.on(side).schema
        for class_def in schema.classes.values():
            name = f"{schema.name}.{class_def.name}"
            graph.add_node(name, side=side.value, virtual=class_def.virtual)
            if class_def.parent:
                graph.add_edge(name, f"{schema.name}.{class_def.parent}")

    _derive_cross_edges(view, conformation, result)
    _derive_virtual_overlaps(view, conformation, result)
    _attach_approximate_virtuals(view, result)
    return result


def _derive_cross_edges(
    view: IntegratedView,
    conformation: ConformationResult,
    result: DerivedHierarchy,
) -> None:
    local_names = [
        f"{conformation.local.schema.name}.{c}"
        for c in conformation.local.schema.classes
    ]
    remote_names = [
        f"{conformation.remote.schema.name}.{c}"
        for c in conformation.remote.schema.classes
    ]
    for local_name in local_names:
        for remote_name in remote_names:
            left = view.extent_oids(local_name)
            right = view.extent_oids(remote_name)
            if not left or not right:
                continue
            if left == right:
                result.equivalent_classes.append((local_name, remote_name))
                result.graph.add_edge(local_name, remote_name)
                result.graph.add_edge(remote_name, local_name)
                result.derived_edges.append((local_name, remote_name))
                result.derived_edges.append((remote_name, local_name))
            elif left < right:
                result.graph.add_edge(local_name, remote_name)
                result.derived_edges.append((local_name, remote_name))
            elif right < left:
                result.graph.add_edge(remote_name, local_name)
                result.derived_edges.append((remote_name, local_name))


def _derive_virtual_overlaps(
    view: IntegratedView,
    conformation: ConformationResult,
    result: DerivedHierarchy,
) -> None:
    spec = view.spec
    local_schema = conformation.local.schema
    remote_schema = conformation.remote.schema
    # Members are placed after the scan: each placement starts a new view
    # generation, and the scan only reads component-class extents.
    placements: list[tuple[str, frozenset[str]]] = []
    for local_class in local_schema.classes:
        local_name = f"{local_schema.name}.{local_class}"
        left = view.extent_oids(local_name)
        if not left:
            continue
        for remote_class in remote_schema.classes:
            remote_name = f"{remote_schema.name}.{remote_class}"
            right = view.extent_oids(remote_name)
            if not right:
                continue
            overlap = left & right
            if not overlap or left <= right or right <= left:
                continue
            name = spec.virtual_class_names.get(
                frozenset((local_class, remote_class))
            ) or f"{local_class}_{remote_class}"
            result.virtual_classes[name] = (local_name, remote_name)
            result.graph.add_node(name, virtual=True, side="global")
            result.graph.add_edge(name, local_name)
            result.graph.add_edge(name, remote_name)
            result.derived_edges.append((name, local_name))
            result.derived_edges.append((name, remote_name))
            placements.append((name, overlap))
    for name, overlap in placements:
        for oid in overlap:
            view.add_virtual_extent_member(name, oid)


def _attach_approximate_virtuals(view: IntegratedView, result: DerivedHierarchy) -> None:
    for virtual_class, parents in view.virtual_superclasses.items():
        result.graph.add_node(virtual_class, virtual=True, side="global")
        for parent in parents:
            # Cv is a *generalisation*: the named class is a subclass of Cv.
            result.graph.add_edge(parent, virtual_class)
