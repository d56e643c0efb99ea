"""The merging phase: global objects, global values, global extents.

"In the merging step, objects from SLC and SRC between which an equivalence
relationship has been determined are merged into a single global object.
Equivalent properties are merged into an integrated property ... the value of
global properties is determined from the conformed local and remote ones,
using a decision function where applicable" (Section 2.3).

Descriptivity pairs (virtual objects created during conformation vs. the
remote objects they mirror — ``VirtPublisher('ACM')`` vs. the bookseller's
``Publisher('ACM')``) merge here too, matching on the described attribute.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Any

from repro.integration.conformation import (
    ConformationResult,
    ConformedObject,
    ConformedPropeq,
)
from repro.integration.matching import MatchResult
from repro.integration.relationships import Side
from repro.integration.spec import IntegrationSpecification


@dataclass
class GlobalObject:
    """A merged object of the integrated view."""

    oid: str
    components: dict[Side, ConformedObject]
    state: dict[str, Any]
    #: Qualified class names (``CSLibrary.RefereedPubl``) this object belongs
    #: to in the integrated view, including via similarity classification.
    classes: set[str] = field(default_factory=set)
    #: Properties whose local/remote values disagreed, with both values —
    #: the raw material of implicit conflicts.
    value_differences: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    #: Properties a component declares a (single) reference: only their
    #: values are global oids.
    references: frozenset[str] = field(default=frozenset(), init=False)

    def component_on(self, side: Side) -> ConformedObject | None:
        return self.components.get(side)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<global {self.oid} {sorted(self.classes)} {self.state!r}>"


def merge_instances(
    spec: IntegrationSpecification,
    conformation: ConformationResult,
    match: MatchResult,
):
    """Build the integrated view's objects and extents.

    Returns an :class:`~repro.integration.view.IntegratedView` (imported
    lazily to avoid a cycle).
    """
    from repro.integration.view import IntegratedView

    by_conformed_oid = conformation.instances_by_oid
    pairs = _collect_pairs(conformation, match, by_conformed_oid)
    groups = _group_pairs(pairs, by_conformed_oid)

    counter = itertools.count(1)
    view = IntegratedView(spec, conformation)
    conformed_to_global: dict[str, str] = {}
    merged_members: set[str] = set()

    # Merged (multi-component) objects first, then singletons.
    for group in groups:
        oid = f"g{next(counter)}"
        components = {obj.side: obj for obj in group}
        global_obj = GlobalObject(oid, components, {})
        view.add_object(global_obj)
        for obj in group:
            conformed_to_global[obj.oid] = oid
            merged_members.add(obj.oid)
    for conformed_oid, obj in by_conformed_oid.items():
        if conformed_oid in merged_members:
            continue
        oid = f"g{next(counter)}"
        view.add_object(GlobalObject(oid, {obj.side: obj}, {}))
        conformed_to_global[conformed_oid] = oid

    _compute_states(conformation, view, conformed_to_global)
    _classify(conformation, match, view, conformed_to_global)
    return view


# ---------------------------------------------------------------------------
# pair collection and grouping
# ---------------------------------------------------------------------------


def _collect_pairs(
    conformation: ConformationResult,
    match: MatchResult,
    by_conformed_oid: dict[str, ConformedObject],
) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for equality in match.equalities:
        local_oid = f"local:{equality.local.oid}"
        remote_oid = f"remote:{equality.remote.oid}"
        if local_oid in by_conformed_oid and remote_oid in by_conformed_oid:
            pairs.append((local_oid, remote_oid))
    pairs.extend(_descriptivity_pairs(conformation, by_conformed_oid))
    return pairs


def _descriptivity_pairs(
    conformation: ConformationResult,
    by_conformed_oid: dict[str, ConformedObject],
) -> list[tuple[str, str]]:
    """Match virtual objects with the objects they mirror, by described value."""
    pairs = []
    for side in (Side.LOCAL, Side.REMOTE):
        conformed = conformation.on(side)
        other = conformation.on(side.other)
        for relocation in conformed.relocations:
            # Virtual objects live on `side`; the real objects are the
            # descriptivity rule's source class on the other side.
            virtuals = [
                obj
                for obj in conformed.instances
                if obj.class_name == relocation.virtual_class
            ]
            source_class = relocation.virtual_class.removeprefix("Virt")
            if not other.schema.has_class(source_class):
                continue
            attr = relocation.object_attribute
            remote_renames = other.rename_map(source_class)
            conformed_attr = remote_renames.get(attr, attr)
            candidates: dict[Any, ConformedObject] = {}
            for obj in other.instances_of(source_class):
                candidates[obj.state.get(conformed_attr)] = obj
            for virtual in virtuals:
                value = virtual.state.get(attr)
                twin = candidates.get(value)
                if twin is not None:
                    pairs.append((virtual.oid, twin.oid))
    return pairs


def _group_pairs(
    pairs: list[tuple[str, str]],
    by_conformed_oid: dict[str, ConformedObject],
) -> list[list[ConformedObject]]:
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict[str, list[ConformedObject]] = {}
    for oid in parent:
        groups.setdefault(find(oid), []).append(by_conformed_oid[oid])
    return [sorted(group, key=lambda o: o.oid) for group in groups.values()]


# ---------------------------------------------------------------------------
# global states
# ---------------------------------------------------------------------------


def _compute_states(
    conformation: ConformationResult,
    view,
    conformed_to_global: dict[str, str],
) -> None:
    def remapped(obj: ConformedObject, global_obj: GlobalObject) -> dict[str, Any]:
        """``obj``'s state with its conformed reference oids made global; its
        reference attributes become ``global_obj``'s too (sharing, not
        copying, the class's set where they add nothing)."""
        state = dict(obj.state)
        references, reference_sets = conformation.references(obj.side, obj.class_name)
        if not global_obj.references:
            global_obj.references = references
        elif not references <= global_obj.references:
            global_obj.references = global_obj.references | references
        for name in references:
            value = state.get(name)
            if value in conformed_to_global:
                state[name] = conformed_to_global[value]
        for name in reference_sets:
            value = state.get(name)
            if value:
                state[name] = frozenset(conformed_to_global.get(oid, oid) for oid in value)
        return state

    for global_obj in view.objects():
        local = global_obj.component_on(Side.LOCAL)
        remote = global_obj.component_on(Side.REMOTE)
        if local is not None and remote is not None:
            global_obj.state = _merge_states(
                remapped(local, global_obj),
                remapped(remote, global_obj),
                global_obj,
                partial(conformation.propeq_between, local.class_name, remote.class_name),
            )
        else:
            only = local if local is not None else remote
            assert only is not None
            global_obj.state = remapped(only, global_obj)


def _merge_states(
    local_state: dict[str, Any],
    remote_state: dict[str, Any],
    global_obj: GlobalObject,
    propeq_for: Callable[[str], ConformedPropeq | None],
) -> dict[str, Any]:
    """Merge two remapped component states.  References are compared after
    remapping, so two references to the same merged object do not read as a
    value conflict."""
    state: dict[str, Any] = {}
    shared = set(local_state) & set(remote_state)
    for key in local_state.keys() | remote_state.keys():
        if key not in shared:
            state[key] = local_state.get(key, remote_state.get(key))
            continue
        local_value = local_state[key]
        remote_value = remote_state[key]
        propeq = propeq_for(key)
        if local_value != remote_value:
            global_obj.value_differences[key] = (local_value, remote_value)
        if propeq is not None:
            state[key] = propeq.df.apply(local_value, remote_value)
        else:
            state[key] = local_value  # default: keep the local view
    return state


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _classify(
    conformation: ConformationResult,
    match: MatchResult,
    view,
    conformed_to_global: dict[str, str],
) -> None:
    @cache
    def qualified_ancestors(side: Side, class_name: str) -> tuple[str, ...]:
        schema = conformation.on(side).schema
        if not schema.has_class(class_name):  # pragma: no cover - defensive
            return (f"{schema.name}.{class_name}",)
        return tuple(f"{schema.name}.{a.name}" for a in schema.ancestors(class_name))

    # Component classes (with ancestors) on their own side.
    for global_obj in view.objects():
        for side, component in global_obj.components.items():
            global_obj.classes.update(qualified_ancestors(side, component.class_name))
    # Similarity classifications place the source object into target classes.
    for similarity in match.similarities:
        source_conformed = f"{similarity.source_side.value}:{similarity.source.oid}"
        global_oid = conformed_to_global.get(source_conformed)
        if global_oid is None:
            continue
        global_obj = view.get(global_oid)
        target_side = similarity.source_side.other
        target_schema = conformation.on(target_side).schema
        if similarity.virtual_class is not None:
            view.add_virtual_extent_member(similarity.virtual_class, global_oid)
            view.register_virtual_superclass(
                similarity.virtual_class,
                f"{target_schema.name}.{similarity.target_class}",
            )
            continue
        if target_schema.has_class(similarity.target_class):
            global_obj.classes.update(qualified_ancestors(target_side, similarity.target_class))
    view.rebuild_extents()
