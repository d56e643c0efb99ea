"""Immutable AST for the constraint language.

All nodes are frozen dataclasses: structural equality and hashability are used
throughout (deduplicating atoms in the solver, comparing conformed constraints
across databases, caching).  Collections inside nodes are tuples.

Expression nodes produce values; formula nodes produce truth values.  Both
share the :class:`Node` base, and each node class states once, in
``child_fields``, which of its fields hold sub-nodes (a node or a tuple of
nodes).  :meth:`Node.children`, :meth:`Node.walk`, :meth:`Node.rewrite` (the
one structural rebuild behind attribute substitution and domain conversion)
and :attr:`Node.structural_key` all read that statement.

Every node carries an optional ``pos`` — the 1-based ``(line, column)`` of its
first token in the source it was parsed from — so diagnostics (static
analysis, lint, violation messages) can cite stable source locations.
``pos`` is excluded from equality and hashing: two structurally identical
formulas parsed from different places *are* the same constraint to the
solver, the compiled-closure cache and cross-database comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable, Iterator
from functools import cached_property
from typing import Any, ClassVar

def _pos_field() -> tuple[int, int] | None:
    """The shared ``pos`` field: carried along, never compared or hashed."""
    return field(default=None, compare=False, repr=False, kw_only=True)


def _tagged(value: Any) -> Any:
    """``value`` with the type of every non-string constant beside it."""
    if type(value) is str:
        return value
    if type(value) is tuple:
        return tuple(_tagged(member) for member in value)
    return (type(value), value)


# Comparison operators and their negations/mirrors.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

NEGATED_OP = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

MIRRORED_OP = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


class Node:
    """Base class for every AST node."""

    #: Source position; overridden by the dataclass field on every subclass.
    pos: tuple[int, int] | None = None
    #: The fields holding sub-nodes, in source order; a field holds one node
    #: or a tuple of nodes.  Leaf classes keep the empty default.
    child_fields: ClassVar[tuple[str, ...]] = ()
    #: Set on every subclass by ``@dataclass``.
    __dataclass_fields__: ClassVar[dict[str, Any]]

    def children(self) -> Iterator[Node]:
        """The node's direct sub-nodes, in source order."""
        for name in self.child_fields:
            value = getattr(self, name)
            if type(value) is tuple:
                yield from value
            else:
                yield value

    def rewrite(self, rule: Callable[[Node], Node | None]) -> Node:
        """Rebuild the subtree top-down through ``rule``.

        ``rule(node)`` returns a replacement, which is not descended into,
        or ``None`` to descend into the node's children.  A replacement
        without a position takes the position of the node it replaces.  A
        node is rebuilt (``dataclasses.replace``, so it keeps its ``pos``)
        only when one of its children changed; an untouched subtree is
        returned as the same object.
        """
        replacement = rule(self)
        if replacement is not None:
            if replacement.pos is None and self.pos is not None:
                replacement = replace(replacement, pos=self.pos)
            return replacement
        changes: dict[str, Any] = {}
        for name in self.child_fields:
            value = getattr(self, name)
            if type(value) is tuple:
                rebuilt = tuple(child.rewrite(rule) for child in value)
                if any(new is not old for new, old in zip(rebuilt, value)):
                    changes[name] = rebuilt
            else:
                rebuilt_child = value.rewrite(rule)
                if rebuilt_child is not value:
                    changes[name] = rebuilt_child
        return replace(self, **changes) if changes else self

    @cached_property
    def structural_key(self) -> tuple:
        """A key equal exactly for nodes of the same class whose fields hold
        the same values *of the same type*, ignoring ``pos``; computed once
        per node.  Dataclass equality makes ``Literal(1)``, ``Literal(1.0)``
        and ``Literal(True)`` equal; their keys differ."""
        values = tuple(
            _tagged(getattr(self, name))
            for name in self.__dataclass_fields__
            if name != "pos" and name not in self.child_fields
        )
        return (type(self), values, tuple(child.structural_key for child in self.children()))

    def walk(self) -> Iterator[Node]:
        """Depth-first pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children():
            yield from child.walk()

    def position(self) -> tuple[int, int] | None:
        """The first known source position in this subtree (pre-order)."""
        for node in self.walk():
            if node.pos is not None:
                return node.pos
        return None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Node):
    """A constant value: number, string or boolean."""

    value: Any
    pos: tuple[int, int] | None = _pos_field()


@dataclass(frozen=True)
class SetLiteral(Node):
    """An explicit finite set of constants, e.g. ``{10, 20}``."""

    values: tuple
    pos: tuple[int, int] | None = _pos_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class NamedConstant(Node):
    """A named schema constant such as ``KNOWNPUBLISHERS`` or ``MAX``.

    The binding of a named constant to a value (or value set) lives in the
    schema / evaluation context, not in the AST.
    """

    name: str
    pos: tuple[int, int] | None = _pos_field()


@dataclass(frozen=True)
class Path(Node):
    """A (possibly dotted) attribute path: ``rating``, ``publisher.name``,
    ``O'.ref?``, ``i.publisher``.

    ``parts[0]`` may name a bound variable (``O``, ``O'``, a quantifier
    variable, ``self``); otherwise the path is implicitly rooted at the
    constrained object.  Resolution happens at evaluation/solving time when
    the variable scope is known.
    """

    parts: tuple[str, ...]
    pos: tuple[int, int] | None = _pos_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    @staticmethod
    def of(*parts: str) -> Path:
        return Path(tuple(parts))

    def dotted(self) -> str:
        return ".".join(self.parts)

    def with_root(self, root: str) -> Path:
        """Prefix the path with an explicit root variable."""
        return Path((root,) + self.parts, pos=self.pos)


@dataclass(frozen=True)
class BinaryOp(Node):
    """Arithmetic: ``+ - * /`` between expressions."""

    op: str
    left: Node
    right: Node
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("left", "right")


@dataclass(frozen=True)
class FunctionCall(Node):
    """An uninterpreted or built-in function applied to expressions.

    The paper's example rules use ``contains(O.title, 'Proceed')``; conversion
    functions applied during conformation also surface as calls.
    """

    name: str
    args: tuple[Node, ...]
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("args",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Aggregate(Node):
    """A TM aggregate: ``(sum (collect x for x in self) over ourprice)``.

    ``collection`` is either the literal string ``"self"`` (the extent of the
    class owning the constraint) or a class name.
    """

    func: str  # sum | avg | min | max | count
    item_var: str
    collection: str
    over: str | None  # attribute name; None only for count
    pos: tuple[int, int] | None = _pos_field()


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison(Node):
    """``left op right`` with ``op`` one of ``= != < <= > >=``."""

    op: str
    left: Node
    right: Node
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("left", "right")

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def negated(self) -> Comparison:
        return Comparison(NEGATED_OP[self.op], self.left, self.right, pos=self.pos)

    def mirrored(self) -> Comparison:
        """The same relation with operands swapped (``a < b`` ↦ ``b > a``)."""
        return Comparison(MIRRORED_OP[self.op], self.right, self.left, pos=self.pos)


@dataclass(frozen=True)
class Membership(Node):
    """``expr in set_expr`` — set_expr is a :class:`SetLiteral` or a
    :class:`NamedConstant` naming a set."""

    element: Node
    collection: Node
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("element", "collection")


@dataclass(frozen=True)
class Not(Node):
    operand: Node
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("operand",)


@dataclass(frozen=True)
class And(Node):
    parts: tuple[Node, ...]
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("parts",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Or(Node):
    parts: tuple[Node, ...]
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("parts",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Implies(Node):
    """``antecedent implies consequent`` (the conditional constraints of
    Figure 1, e.g. ``publisher.name='IEEE' implies ref?=true``)."""

    antecedent: Node
    consequent: Node
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("antecedent", "consequent")


@dataclass(frozen=True)
class Quantified(Node):
    """``forall v in Class body`` / ``exists v in Class | body``.

    Database constraints chain quantifiers, e.g. the Figure 1 constraint
    ``forall p in Publisher exists i in Item | i.publisher = p``.
    """

    kind: str  # 'forall' | 'exists'
    var: str
    class_name: str
    body: Node
    pos: tuple[int, int] | None = _pos_field()
    child_fields = ("body",)


@dataclass(frozen=True)
class KeyConstraint(Node):
    """``key isbn`` — a uniqueness constraint over the listed attributes."""

    attributes: tuple[str, ...]
    pos: tuple[int, int] | None = _pos_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))


@dataclass(frozen=True)
class TrueFormula(Node):
    """The always-true formula (unit of conjunction)."""

    pos: tuple[int, int] | None = _pos_field()


@dataclass(frozen=True)
class FalseFormula(Node):
    """The always-false formula (unit of disjunction)."""

    pos: tuple[int, int] | None = _pos_field()


TRUE = TrueFormula()
FALSE = FalseFormula()


def conjoin(parts: list[Node]) -> Node:
    """Conjunction of formulas with unit simplification."""
    live = [p for p in parts if not isinstance(p, TrueFormula)]
    if any(isinstance(p, FalseFormula) for p in live):
        return FALSE
    if not live:
        return TRUE
    if len(live) == 1:
        return live[0]
    flattened: list[Node] = []
    for part in live:
        if isinstance(part, And):
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    return And(tuple(flattened))


def disjoin(parts: list[Node]) -> Node:
    """Disjunction of formulas with unit simplification."""
    live = [p for p in parts if not isinstance(p, FalseFormula)]
    if any(isinstance(p, TrueFormula) for p in live):
        return TRUE
    if not live:
        return FALSE
    if len(live) == 1:
        return live[0]
    flattened: list[Node] = []
    for part in live:
        if isinstance(part, Or):
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    return Or(tuple(flattened))


def match_referential_body(body: Node, var: str) -> tuple[str, Node] | None:
    """Match the body of a *referential* existential quantifier.

    Given the body of ``exists var in D | ...``, recognise the equality shape
    ``var.attr = other`` (or mirrored, ``other = var.attr``) with a
    single-dereference path on the quantified variable, and return
    ``(attr, other)``.  This is the structural half of the reference-count
    fast path: when ``attr`` is a reference attribute, ``exists y in D |
    y.attr = x`` reduces to a maintained referrer-count lookup on ``x``'s
    identity (see :mod:`repro.engine.indexes`).  Returns ``None`` for any
    other body — those stay on the extent scan.

    ``other`` must not mention ``var`` itself: the probe evaluates it in
    the *enclosing* scope, where a same-named outer binding would silently
    shadow-swap the semantics (``exists y in D | y.ref = y`` compares each
    D member to *itself*, not to an outer ``y``).
    """
    if not isinstance(body, Comparison) or body.op != "=":
        return None
    for mine, other in ((body.left, body.right), (body.right, body.left)):
        if (
            isinstance(mine, Path)
            and len(mine.parts) == 2
            and mine.parts[0] == var
            and not any(
                isinstance(sub, Path) and sub.parts[0] == var
                for sub in other.walk()
            )
        ):
            return mine.parts[1], other
    return None


def match_referential_quantifier(node: Node) -> tuple[str, str, str, str] | None:
    """Match a whole-formula referential quantifier pattern.

    Recognised shapes (``mode``, with C the outer and D the inner class):

    * ``forall x in C exists y in D | y.a = x``       → ``("all", C, D, a)``
    * ``forall x in C | not (exists y in D | y.a = x)`` → ``("none", C, D, a)``
    * ``exists x in C exists y in D | y.a = x``       → ``("any", C, D, a)``

    These are the forms a maintained reference-count index answers in O(1)
    from its live-referenced-member count; anything else returns ``None``.
    """
    if not isinstance(node, Quantified):
        return None
    inner, negated = node.body, False
    if isinstance(inner, Not):
        inner, negated = inner.operand, True
    if not isinstance(inner, Quantified) or inner.kind != "exists":
        return None
    if inner.var == node.var:
        return None  # the inner quantifier shadows the outer variable
    match = match_referential_body(inner.body, inner.var)
    if match is None:
        return None
    attr, other = match
    if not (isinstance(other, Path) and other.parts == (node.var,)):
        return None
    if node.kind == "forall":
        mode = "none" if negated else "all"
    elif node.kind == "exists" and not negated:
        mode = "any"
    else:
        return None
    return mode, node.class_name, inner.class_name, attr


def paths_in(node: Node) -> tuple[Path, ...]:
    """All :class:`Path` nodes in ``node``, in traversal order, deduplicated."""
    seen: dict[Path, None] = {}
    for sub in node.walk():
        if isinstance(sub, Path):
            seen.setdefault(sub, None)
    return tuple(seen)
