"""AST rewriting rules shared by conformation and rule repair.

Each rewrite here is one rule over :meth:`Node.rewrite`, the one structural
rebuild of the constraint AST: the rule names the node types it replaces and
the traversal reaches every other node, keeping positions and untouched
subtrees.  Domain conversion keys on what each path reads, so its rule runs
over :func:`repro.constraints.scope.traverse`, the same rebuild with each
node's scope.
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
from repro.constraints.scope import Scope, traverse
from repro.errors import ConformationError
from repro.integration.conversion import ConversionFunction, LinearConversion


def map_paths(node: Node, fn: Callable[[Path], Path]) -> Node:
    """Rebuild ``node`` with every :class:`Path` passed through ``fn``."""
    return node.rewrite(lambda sub: fn(sub) if isinstance(sub, Path) else None)


def rename_attributes(node: Node, renames: Mapping[str, str]) -> Node:
    """Substitute attribute names by first path segment.

    ``renames`` maps *first path segments* (attribute names of the one class
    the formula is written against) to new names.  Key-constraint attribute
    lists are renamed too; aggregate ``over`` attributes likewise, wherever
    the aggregate sits.  Conformation's own substitution resolves every
    segment instead (:mod:`repro.integration.constraint_conformation`).
    """

    def rule(sub: Node) -> Node | None:
        if isinstance(sub, Path):
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


#: ``(class, attribute)`` → the conversion of that property's values.
Conversions = Mapping[tuple[str, str], ConversionFunction]


def convert_domains(
    node: Node,
    scope: Scope,
    conversions: Conversions,
    constants: Mapping[str, Any] | None = None,
) -> Node:
    """Domain conversion of constraint constants (Section 4, subtask 3).

    A conversion keys on the ``(class, attribute)`` a path or an aggregate's
    ``over`` ends at, resolved in ``scope`` (:mod:`repro.constraints.scope`).
    For every comparison/membership with a converted side, the constant side
    is pushed through the conversion function: under ``multiply(2)`` on
    ``rating``, ``rating >= 2`` becomes ``rating >= 4`` and ``rating in {1,
    2}`` becomes ``rating in {2, 4}``.  A comparison of an aggregate over a
    converted property converts when the conversion is purely multiplicative
    (``avg(rating) < 4`` becomes ``avg(rating) < 8``).  Scalar named
    ``constants``, when given, are bound in a converted comparison first so
    that conversion can rewrite them.  A converted property anywhere else
    (mid-path, under arithmetic, in a function call, inside a nested
    aggregate) raises rather than being left unconverted.
    """

    def rule(sub: Node, scope: Scope) -> Node | None:
        if isinstance(sub, Comparison):
            return _convert_comparison(sub, scope, conversions, constants or {})
        if isinstance(sub, Membership):
            return _convert_membership(sub, scope, conversions)
        if isinstance(sub, (Path, FunctionCall)):
            _reject_converted(sub, scope, conversions)
            return sub
        return None

    return traverse(node, scope, rule)


def _bound(term: Node, constants: Mapping[str, Any]) -> Node:
    """A scalar named constant as its literal value; any other term as is."""
    value = constants.get(term.name) if isinstance(term, NamedConstant) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Literal(value, pos=term.pos)
    return term


def _conversion_for(
    term: Node, scope: Scope, conversions: Conversions
) -> ConversionFunction | None:
    """The conversion of a converted scalar property or of an aggregate over
    one; ``None`` for any other term."""
    if isinstance(term, Path):
        resolution = scope.resolve(term)
        for step in resolution.steps:
            cf = conversions.get((step.class_name, step.attribute))
            if cf is None:
                continue
            if step is not resolution.end:
                raise ConformationError(
                    f"cannot convert dotted path {term.dotted()!r}: conversion "
                    f"functions apply to scalar properties"
                )
            return cf
        return None
    if isinstance(term, Aggregate) and term.over is not None:
        end = scope.resolve_over(term).end
        cf = conversions.get((end.class_name, end.attribute)) if end is not None else None
        if cf is None:
            return None
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


def _reject_converted(term: Node, scope: Scope, conversions: Conversions) -> None:
    """Raise if ``term`` mentions a converted property: reached here, it is
    not compared directly with a constant, so no conversion applies."""
    for sub in term.walk():
        if isinstance(sub, Path):
            steps = scope.resolve(sub).steps
        elif isinstance(sub, Aggregate) and sub.over is not None:
            steps = scope.resolve_over(sub).steps
        else:
            continue
        for step in steps:
            if (step.class_name, step.attribute) in conversions:
                raise ConformationError(
                    f"cannot convert property {step.attribute!r} under arithmetic, a "
                    "function call or a nested aggregate: conversion functions apply "
                    "where the property is compared directly with a constant"
                )


def _convert_comparison(
    node: Comparison,
    scope: Scope,
    conversions: Conversions,
    constants: Mapping[str, Any],
) -> Node:
    left_cf = _conversion_for(node.left, scope, conversions)
    right_cf = _conversion_for(node.right, scope, conversions)
    if left_cf is None and right_cf is None:
        _reject_converted(node.left, scope, conversions)
        _reject_converted(node.right, scope, conversions)
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
    left, right = (_bound(side, constants) for side in (node.left, node.right))
    if left is not node.left or right is not node.right:
        node = replace(node, left=left, right=right)
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


def _convert_membership(node: Membership, scope: Scope, conversions: Conversions) -> Node:
    cf = _conversion_for(node.element, scope, conversions)
    if cf is None:
        _reject_converted(node.element, scope, conversions)
        return node
    if isinstance(node.collection, SetLiteral):
        converted = tuple(cf.apply(v) for v in node.collection.values)
        return replace(node, collection=replace(node.collection, values=converted))
    raise ConformationError(
        f"cannot convert membership of {node.element!r} in a named constant: "
        "bind the constant to an explicit set first"
    )
