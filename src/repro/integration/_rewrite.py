"""AST rewriting rules shared by conformation and rule repair.

Each rewrite here is one rule over :meth:`Node.rewrite`, the one structural
rebuild of the constraint AST: the rule names the node types it replaces and
the traversal reaches every other node, keeping positions and untouched
subtrees.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import replace
from typing import Any

from repro.constraints.ast import (
    Aggregate,
    Comparison,
    FunctionCall,
    KeyConstraint,
    Literal,
    Membership,
    NamedConstant,
    Node,
    Path,
    SetLiteral,
)
from repro.errors import ConformationError
from repro.integration.conversion import ConversionFunction, LinearConversion


def map_paths(node: Node, fn: Callable[[Path], Path]) -> Node:
    """Rebuild ``node`` with every :class:`Path` passed through ``fn``."""
    return node.rewrite(lambda sub: fn(sub) if isinstance(sub, Path) else None)


def rename_attributes(
    node: Node,
    renames: Mapping[str, str],
    rename_path: Callable[[Path], Path] | None = None,
) -> Node:
    """Substitute conformed attribute names (Section 4, subtask 2).

    ``renames`` maps *first path segments* (attribute names of the class the
    constraint is allocated to) to their conformed names.  Key-constraint
    attribute lists are renamed too; aggregate ``over`` attributes likewise,
    wherever the aggregate sits.  ``rename_path``, when given, renames each
    whole path instead (conformation's substitution along dotted paths).
    """

    def rule(sub: Node) -> Node | None:
        if isinstance(sub, Path):
            if rename_path is not None:
                return rename_path(sub)
            first = sub.parts[0]
            if first in renames:
                return replace(sub, parts=(renames[first],) + sub.parts[1:])
            return sub
        if isinstance(sub, KeyConstraint):
            attributes = tuple(renames.get(attr, attr) for attr in sub.attributes)
            return sub if attributes == sub.attributes else replace(sub, attributes=attributes)
        if isinstance(sub, Aggregate):
            if sub.over is not None and sub.over in renames:
                return replace(sub, over=renames[sub.over])
            return sub
        return None

    return node.rewrite(rule)


def convert_domains(
    node: Node,
    conversions: Mapping[str, ConversionFunction],
    constants: Mapping[str, Any] | None = None,
) -> Node:
    """Domain conversion of constraint constants (Section 4, subtask 3).

    For every comparison/membership whose path's *first segment* is a
    converted property, the constant side is pushed through the conversion
    function: under ``multiply(2)`` on ``rating``, ``rating >= 2`` becomes
    ``rating >= 4`` and ``rating in {1, 2}`` becomes ``rating in {2, 4}``.
    A comparison of an aggregate over a converted property converts when the
    conversion is purely multiplicative (``avg(rating) < 4`` becomes
    ``avg(rating) < 8``).  Scalar named ``constants``, when given, are bound
    in every comparison first so that conversion can rewrite them.  A
    converted property anywhere else (under arithmetic, in a function call,
    inside a nested aggregate) raises rather than being left unconverted.
    """

    def rule(sub: Node) -> Node | None:
        if isinstance(sub, Comparison):
            return _convert_comparison(sub, conversions, constants or {})
        if isinstance(sub, Membership):
            return _convert_membership(sub, conversions)
        if isinstance(sub, (Path, FunctionCall)):
            _reject_converted(sub, conversions)
            return sub
        return None

    return node.rewrite(rule)


def _bound(term: Node, constants: Mapping[str, Any]) -> Node:
    """A scalar named constant as its literal value; any other term as is."""
    value = constants.get(term.name) if isinstance(term, NamedConstant) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Literal(value, pos=term.pos)
    return term


def _conversion_for(
    term: Node, conversions: Mapping[str, ConversionFunction]
) -> ConversionFunction | None:
    """The conversion of a converted scalar property or of an aggregate over
    one; ``None`` for any other term."""
    if isinstance(term, Path) and term.parts[0] in conversions:
        if len(term.parts) > 1:
            raise ConformationError(
                f"cannot convert dotted path {term.dotted()!r}: conversion "
                f"functions apply to scalar properties"
            )
        return conversions[term.parts[0]]
    if isinstance(term, Aggregate) and term.over is not None and term.over in conversions:
        cf = conversions[term.over]
        # Only purely multiplicative linear conversions commute with the
        # aggregate; anything else would produce a wrong constraint.
        if not (
            isinstance(cf, LinearConversion)
            and cf.offset == 0
            and term.func in ("sum", "avg", "min", "max")
        ):
            raise ConformationError(
                f"cannot conform aggregate {term.func} over converted "
                f"attribute {term.over!r}: conversion {cf.name} does not "
                "commute with the aggregate"
            )
        return cf
    return None


def _reject_converted(term: Node, conversions: Mapping[str, ConversionFunction]) -> None:
    """Raise if ``term`` mentions a converted property: reached here, it is
    not compared directly with a constant, so no conversion applies."""
    for sub in term.walk():
        if isinstance(sub, Path):
            name = sub.parts[0]
        elif isinstance(sub, Aggregate):
            name = sub.over
        else:
            continue
        if name is not None and name in conversions:
            raise ConformationError(
                f"cannot convert property {name!r} under arithmetic, a function "
                "call or a nested aggregate: conversion functions apply where "
                "the property is compared directly with a constant"
            )


def _convert_comparison(
    node: Comparison,
    conversions: Mapping[str, ConversionFunction],
    constants: Mapping[str, Any],
) -> Node:
    left, right = (_bound(side, constants) for side in (node.left, node.right))
    if left is not node.left or right is not node.right:
        node = replace(node, left=left, right=right)
    left_cf = _conversion_for(node.left, conversions)
    right_cf = _conversion_for(node.right, conversions)
    if left_cf is None and right_cf is None:
        _reject_converted(node.left, conversions)
        _reject_converted(node.right, conversions)
        return node
    if left_cf is not None and right_cf is not None:
        if left_cf.name == right_cf.name:
            # Same conversion both sides of an order comparison: for the
            # linear/mapping conversions here, the relation is preserved
            # (or flipped for decreasing linear maps).
            if left_cf.order_preserving is False and node.op not in ("=", "!="):
                return node.mirrored()
            return node
        raise ConformationError("comparison relates two differently-converted properties")
    # Put the converted side on the left; an aggregate comparison turns back.
    oriented, cf = (node, left_cf) if left_cf is not None else (node.mirrored(), right_cf)
    assert cf is not None
    if not isinstance(oriented.right, Literal):
        raise ConformationError(f"cannot convert comparison {node!r}: non-constant operand")
    value, op = cf.convert_constant(oriented.right.value, oriented.op)
    converted = replace(oriented, op=op, right=replace(oriented.right, value=value))
    if oriented is not node and isinstance(converted.left, Aggregate):
        return converted.mirrored()
    return converted


def _convert_membership(
    node: Membership, conversions: Mapping[str, ConversionFunction]
) -> Node:
    cf = _conversion_for(node.element, conversions)
    if cf is None:
        _reject_converted(node.element, conversions)
        return node
    if isinstance(node.collection, SetLiteral):
        converted = tuple(cf.apply(v) for v in node.collection.values)
        return replace(node, collection=replace(node.collection, values=converted))
    raise ConformationError(
        f"cannot convert membership of {node.element!r} in a named constant: "
        "bind the constant to an explicit set first"
    )
