"""One scope rule and one path walk for constraint formulas.

Lint, schema validation, the engine's read sets, subjectivity analysis and
constraint conformation all resolve a constraint's names here:

* a quantifier ``forall v in C`` / ``exists v in C`` binds ``v`` to ``C``
  in its body;
* a path rooted at a bound variable starts at that variable's class; any
  other path, and every key attribute, starts at the owner;
* an aggregate's ``over`` resolves on its base class: the owner for
  ``collect x for x in self``, the named class otherwise.

A path then walks reference (:class:`ClassRef`) attributes, one
:class:`Step` per segment, or says why it stopped short.  :func:`traverse`
is :meth:`Node.rewrite` with the scope each node sits in: the one scoped
walk, for passes that only read and for rewrites alike.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.constraints.ast import Aggregate, Node, Path, Quantified
from repro.types.primitives import ClassRef, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.tm.schema import DatabaseSchema

#: Why a walk stops short (also lint's diagnostic codes): a path rooted
#: neither at a bound variable nor at an owner; an undeclared class; an
#: attribute the class lacks; a segment after a non-reference attribute.
UNBOUND_PATH = "unbound-path"
UNKNOWN_CLASS = "unknown-class"
UNKNOWN_ATTRIBUTE = "unknown-attribute"
NOT_A_REFERENCE = "not-a-reference"


@dataclass(frozen=True)
class Step:
    """``attribute``, looked up on ``class_name`` (inheritance included)."""

    class_name: str
    attribute: str
    tm_type: Type


@dataclass(frozen=True)
class Resolution:
    """Where a path, an ``over`` or a key attribute leads: one step per
    resolved segment (a path's segments exclude its bound variable); with a
    ``failure``, the walk stopped at ``segments[len(steps)]`` while standing
    on class ``stopped_on``.  An ``owner_rooted`` path's first step reads the
    constrained object."""

    segments: tuple[str, ...]
    steps: tuple[Step, ...]
    failure: str | None
    stopped_on: str | None
    owner_rooted: bool

    @property
    def end(self) -> Step | None:
        """The last segment's step, when every segment resolved."""
        return self.steps[-1] if self.failure is None and self.steps else None

    @property
    def stopped_at(self) -> str:
        """The segment the walk could not resolve."""
        return self.segments[len(self.steps)]

    def explain(self, templates: Mapping[str, str], path: Path) -> str:
        """``templates[failure]`` filled in: ``{path}``, the class the walk
        stopped ``{on}``, the segment it stopped ``{at}`` and the last
        attribute it went ``{through}``."""
        assert self.failure is not None
        through = self.steps[-1].attribute if self.steps else None
        return templates[self.failure].format(
            path=path.dotted(), on=self.stopped_on, at=self.stopped_at, through=through
        )


def _walk(
    schema: DatabaseSchema, start: str | None, segments: tuple[str, ...], owner_rooted: bool
) -> Resolution:
    steps: list[Step] = []
    current = start
    failure: str | None = None
    for segment in segments:
        if current is None:
            failure = NOT_A_REFERENCE if steps else UNBOUND_PATH
            break
        if not schema.has_class(current):
            failure = UNKNOWN_CLASS
            break
        attribute = schema.effective_attributes(current).get(segment)
        if attribute is None:
            failure = UNKNOWN_ATTRIBUTE
            break
        tm_type = attribute.tm_type
        steps.append(Step(current, segment, tm_type))
        current = tm_type.class_name if isinstance(tm_type, ClassRef) else None
    return Resolution(segments, tuple(steps), failure, current, owner_rooted)


@dataclass(frozen=True)
class Scope:
    """What one constraint's names resolve on: its owner (``None`` for a
    database constraint) and the quantifier variables bound so far."""

    schema: DatabaseSchema
    owner: str | None
    variables: Mapping[str, str] = field(default_factory=dict)

    def bind(self, quantifier: Quantified) -> Scope:
        return replace(self, variables={**self.variables, quantifier.var: quantifier.class_name})

    def resolve(self, path: Path) -> Resolution:
        head = path.parts[0]
        if head in self.variables:
            return _walk(self.schema, self.variables[head], path.parts[1:], False)
        return _walk(self.schema, self.owner, path.parts, True)

    def base(self, aggregate: Aggregate) -> str | None:
        """The class an aggregate collects over."""
        return self.owner if aggregate.collection == "self" else aggregate.collection

    def resolve_over(self, aggregate: Aggregate) -> Resolution:
        assert aggregate.over is not None
        return _walk(self.schema, self.base(aggregate), (aggregate.over,), False)

    def resolve_key(self, attribute: str) -> Resolution:
        return _walk(self.schema, self.owner, (attribute,), False)


def traverse(node: Node, scope: Scope, rule: Callable[[Node, Scope], Node | None]) -> Node:
    """:meth:`Node.rewrite` with ``rule(sub, scope)``, ``scope`` being the
    one ``sub`` sits in (a quantifier's body is in the scope binding its
    variable).  The rule returns a replacement (the node itself to stop
    descending) or ``None`` to descend."""

    def scoped(sub: Node) -> Node | None:
        replacement = rule(sub, scope)
        if replacement is not None or not isinstance(sub, Quantified):
            return replacement
        body = traverse(sub.body, scope.bind(sub), rule)
        return sub if body is sub.body else replace(sub, body=body)

    return node.rewrite(scoped)
