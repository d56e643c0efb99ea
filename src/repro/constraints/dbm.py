"""Difference-bound closure for path-vs-path comparisons.

Atoms like ``ourprice <= shopprice`` (object constraint ``oc1`` of Figure 1)
relate two attribute paths.  The solver encodes each such atom as a weighted
edge ``x - y ≤ c`` (with a strictness flag for ``<``) in a difference-bound
matrix over the constrained terms plus a distinguished zero node, closes the
matrix with Floyd–Warshall, and reads tightened per-term bounds back out.

A negative cycle (total weight < 0, or = 0 with at least one strict edge)
proves the conjunction unsatisfiable — e.g. ``x < y and y < x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterable

#: The distinguished node representing the constant 0.
ZERO = "<zero>"


@dataclass(frozen=True)
class Bound:
    """An upper bound ``≤ value`` (or ``< value`` when ``strict``)."""

    value: float
    strict: bool = False

    def add(self, other: "Bound") -> "Bound":
        return Bound(self.value + other.value, self.strict or other.strict)

    def tighter_than(self, other: "Bound") -> bool:
        if self.value != other.value:
            return self.value < other.value
        return self.strict and not other.strict

    def violates_zero(self) -> bool:
        """Whether a cycle with this total bound is contradictory."""
        return self.value < 0 or (self.value == 0 and self.strict)


class DifferenceBounds:
    """A mutable difference-bound matrix over hashable node keys."""

    def __init__(self) -> None:
        self._edges: dict[tuple[Hashable, Hashable], Bound] = {}
        self._nodes: dict[Hashable, None] = {ZERO: None}

    def nodes(self) -> Iterable[Hashable]:
        return self._nodes

    def add_edge(self, source: Hashable, target: Hashable, bound: Bound) -> None:
        """Record ``source - target ≤ bound`` (keeping the tighter of dups)."""
        self._nodes.setdefault(source, None)
        self._nodes.setdefault(target, None)
        key = (source, target)
        existing = self._edges.get(key)
        if existing is None or bound.tighter_than(existing):
            self._edges[key] = bound

    def add_upper(self, term: Hashable, value: float, strict: bool = False) -> None:
        """``term ≤ value``."""
        self.add_edge(term, ZERO, Bound(value, strict))

    def add_lower(self, term: Hashable, value: float, strict: bool = False) -> None:
        """``term ≥ value``."""
        self.add_edge(ZERO, term, Bound(-value, strict))

    def close(self) -> bool:
        """Floyd–Warshall closure; returns ``False`` on a negative cycle."""
        nodes = list(self._nodes)
        edges = self._edges
        for middle in nodes:
            for source in nodes:
                first = edges.get((source, middle))
                if first is None:
                    continue
                for target in nodes:
                    second = edges.get((middle, target))
                    if second is None:
                        continue
                    candidate = first.add(second)
                    key = (source, target)
                    existing = edges.get(key)
                    if existing is None or candidate.tighter_than(existing):
                        edges[key] = candidate
        for node in nodes:
            loop = edges.get((node, node))
            if loop is not None and loop.violates_zero():
                return False
        return True

    def forces_equal(self, left: Hashable, right: Hashable) -> bool:
        """Whether the closed bounds pin ``left - right`` to exactly 0."""
        there = self._edges.get((left, right))
        back = self._edges.get((right, left))
        return (
            there is not None
            and back is not None
            and there == Bound(0)
            and back == Bound(0)
        )

    def upper_bound(self, term: Hashable) -> Bound | None:
        """The closed bound ``term ≤ value``, if any."""
        return self._edges.get((term, ZERO))

    def lower_bound(self, term: Hashable) -> tuple[float, bool] | None:
        """The closed bound ``term ≥ value`` as ``(value, strict)``, if any."""
        bound = self._edges.get((ZERO, term))
        if bound is None:
            return None
        return -bound.value, bound.strict
