"""Rule matching: evaluating object comparison rules over extents.

Rules are written against the *original* schemas (``O.isbn = O'.isbn``), so
matching runs on the original stores; the merging phase then carries matches
over to the conformed instances.

Equality conditions of the common key-join shape ``O.a = O'.b [and ...]`` use
a hash join; everything else falls back to evaluating the condition over the
cross product of the two extents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.constraints.ast import And, Comparison, Node, Path
from repro.constraints.evaluate import EvalContext, evaluate
from repro.engine.objects import DBObject
from repro.engine.store import ObjectStore
from repro.errors import EvaluationError
from repro.integration.relationships import Side
from repro.integration.rules import ComparisonRule
from repro.integration.spec import IntegrationSpecification


@dataclass(frozen=True)
class EqualityMatch:
    local: DBObject
    remote: DBObject
    rule: ComparisonRule


@dataclass(frozen=True)
class SimilarityMatch:
    source: DBObject
    source_side: Side
    target_class: str  # class on the other side
    rule: ComparisonRule
    virtual_class: str | None = None  # set for approximate similarity


@dataclass
class MatchResult:
    equalities: list[EqualityMatch] = field(default_factory=list)
    similarities: list[SimilarityMatch] = field(default_factory=list)


def match_instances(
    spec: IntegrationSpecification,
    local_store: ObjectStore,
    remote_store: ObjectStore,
) -> MatchResult:
    """Evaluate every comparison rule over the stores' extents."""
    result = MatchResult()
    accessor = _CompositeAccessor(local_store, remote_store)
    for rule in spec.equality_rules():
        result.equalities.extend(
            _match_equality(rule, local_store, remote_store, accessor)
        )
    for rule in spec.similarity_rules() + spec.approximate_rules():
        result.similarities.extend(
            _match_similarity(rule, spec, local_store, remote_store, accessor)
        )
    return result


class _CompositeAccessor:
    """Attribute accessor that dereferences through whichever store owns the
    object (rule conditions navigate both databases)."""

    def __init__(self, local_store: ObjectStore, remote_store: ObjectStore):
        self.local_store = local_store
        self.remote_store = remote_store
        self._by_oid: dict[str, ObjectStore] = {}
        for store in (local_store, remote_store):
            for obj in store.objects():
                self._by_oid[obj.oid] = store

    def __call__(self, obj: Any, name: str) -> Any:
        if isinstance(obj, DBObject):
            store = self._by_oid.get(obj.oid, self.local_store)
            return store.get_attr(obj, name)
        if isinstance(obj, dict):
            return obj[name]
        raise EvaluationError(f"cannot read {name!r} from {obj!r}")


def _match_equality(
    rule: ComparisonRule,
    local_store: ObjectStore,
    remote_store: ObjectStore,
    accessor: _CompositeAccessor,
) -> list[EqualityMatch]:
    assert rule.local_class and rule.remote_class
    locals_ = local_store.extent(rule.local_class, deep=True)
    remotes = remote_store.extent(rule.remote_class, deep=True)
    join_key = _hash_join_key(rule.condition)
    if join_key is not None:
        return _hash_join(rule, locals_, remotes, accessor, join_key)
    matches = []
    for local_obj in locals_:
        for remote_obj in remotes:
            if _holds(rule.condition, local_obj, remote_obj, accessor, local_store):
                matches.append(EqualityMatch(local_obj, remote_obj, rule))
    return matches


def _hash_join_key(condition: Node) -> tuple[Path, Path] | None:
    """Detect the leading ``O.a = O'.b`` equi-join conjunct, if any."""
    conjuncts = condition.parts if isinstance(condition, And) else (condition,)
    for part in conjuncts:
        if not isinstance(part, Comparison) or part.op != "=":
            continue
        left, right = part.left, part.right
        if not isinstance(left, Path) or not isinstance(right, Path):
            continue
        sides = {left.parts[0], right.parts[0]}
        if sides == {"O", "O'"}:
            local_path = left if left.parts[0] == "O" else right
            remote_path = right if right.parts[0] == "O'" else left
            return local_path, remote_path
    return None


def _hash_join(
    rule: ComparisonRule,
    locals_: list[DBObject],
    remotes: list[DBObject],
    accessor: _CompositeAccessor,
    join_key: tuple[Path, Path],
) -> list[EqualityMatch]:
    local_path, remote_path = join_key
    buckets: dict[Any, list[DBObject]] = {}
    for remote_obj in remotes:
        try:
            key = _read_path(remote_obj, remote_path, accessor)
        except EvaluationError:
            continue
        buckets.setdefault(key, []).append(remote_obj)
    matches = []
    for local_obj in locals_:
        try:
            key = _read_path(local_obj, local_path, accessor)
        except EvaluationError:
            continue
        for remote_obj in buckets.get(key, ()):
            # Re-check the full condition (other conjuncts may filter).
            if _holds(rule.condition, local_obj, remote_obj, accessor, None):
                matches.append(EqualityMatch(local_obj, remote_obj, rule))
    return matches


def _read_path(obj: DBObject, path: Path, accessor: _CompositeAccessor) -> Any:
    value: Any = obj
    for segment in path.parts[1:]:
        value = accessor(value, segment)
    return value


def _holds(
    condition: Node,
    local_obj: DBObject | None,
    remote_obj: DBObject | None,
    accessor: _CompositeAccessor,
    store: ObjectStore | None,
) -> bool:
    bindings: dict[str, Any] = {}
    if local_obj is not None:
        bindings["O"] = local_obj
    if remote_obj is not None:
        bindings["O'"] = remote_obj
    constants: dict[str, Any] = {}
    for owner in (accessor.local_store, accessor.remote_store):
        constants.update(owner.schema.constants)
    ctx = EvalContext(bindings=bindings, constants=constants, get_attr=accessor)
    try:
        return bool(evaluate(condition, ctx))
    except EvaluationError:
        return False


def _match_similarity(
    rule: ComparisonRule,
    spec: IntegrationSpecification,
    local_store: ObjectStore,
    remote_store: ObjectStore,
    accessor: _CompositeAccessor,
) -> list[SimilarityMatch]:
    assert rule.source_class and rule.target_class
    source_store = local_store if rule.source_side is Side.LOCAL else remote_store
    matches = []
    for obj in source_store.extent(rule.source_class, deep=True):
        local_obj = obj if rule.source_side is Side.LOCAL else None
        remote_obj = obj if rule.source_side is Side.REMOTE else None
        if _holds(rule.condition, local_obj, remote_obj, accessor, source_store):
            matches.append(
                SimilarityMatch(
                    obj,
                    rule.source_side,
                    rule.target_class,
                    rule,
                    rule.virtual_class,
                )
            )
    return matches
