"""Immutable AST for the constraint language.

All nodes are frozen dataclasses: structural equality and hashability are used
throughout (deduplicating atoms in the solver, comparing conformed constraints
across databases, caching).  Collections inside nodes are tuples.

Expression nodes produce values; formula nodes produce truth values.  Both
share the :class:`Node` base so that rewriting (attribute substitution, domain
conversion) can traverse uniformly.

Every node carries an optional ``pos`` — the 1-based ``(line, column)`` of its
first token in the source it was parsed from — so diagnostics (static
analysis, lint, violation messages) can cite stable source locations.
``pos`` is excluded from equality and hashing: two structurally identical
formulas parsed from different places *are* the same constraint to the
solver, the compiled-closure cache and cross-database comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any

def _pos_field() -> tuple[int, int] | None:
    """The shared ``pos`` field: carried along, never compared or hashed."""
    return field(default=None, compare=False, repr=False, kw_only=True)


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

    def children(self) -> Iterator[Node]:
        """The node's direct sub-nodes, in source order."""
        return iter(())

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

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass(frozen=True)
class FunctionCall(Node):
    """An uninterpreted or built-in function applied to expressions.

    The paper's example rules use ``contains(O.title, 'Proceed')``; conversion
    functions applied during conformation also surface as calls.
    """

    name: str
    args: tuple[Node, ...]
    pos: tuple[int, int] | None = _pos_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def children(self) -> Iterator[Node]:
        return iter(self.args)


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

    def children(self) -> Iterator[Node]:
        return iter(())


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

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right

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

    def children(self) -> Iterator[Node]:
        yield self.element
        yield self.collection


@dataclass(frozen=True)
class Not(Node):
    operand: Node
    pos: tuple[int, int] | None = _pos_field()

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass(frozen=True)
class And(Node):
    parts: tuple[Node, ...]
    pos: tuple[int, int] | None = _pos_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def children(self) -> Iterator[Node]:
        return iter(self.parts)


@dataclass(frozen=True)
class Or(Node):
    parts: tuple[Node, ...]
    pos: tuple[int, int] | None = _pos_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def children(self) -> Iterator[Node]:
        return iter(self.parts)


@dataclass(frozen=True)
class Implies(Node):
    """``antecedent implies consequent`` (the conditional constraints of
    Figure 1, e.g. ``publisher.name='IEEE' implies ref?=true``)."""

    antecedent: Node
    consequent: Node
    pos: tuple[int, int] | None = _pos_field()

    def children(self) -> Iterator[Node]:
        yield self.antecedent
        yield self.consequent


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

    def children(self) -> Iterator[Node]:
        yield self.body


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
