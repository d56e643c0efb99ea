"""Intervals and normalised unions of intervals over the reals.

``None`` bounds denote (minus/plus) infinity.  An :class:`IntervalSet` is kept
in a canonical form — sorted, pairwise disjoint, non-adjacent intervals — so
structural equality coincides with set equality, which the solver relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable


@dataclass(frozen=True)
class Interval:
    """A real interval with independently open/closed endpoints.

    ``Interval(1, 5)`` is the closed interval ``[1, 5]``;
    ``Interval(1, 5, low_open=True)`` is ``(1, 5]``;
    ``Interval(None, 5)`` is ``(-inf, 5]``.
    """

    low: float | None = None
    high: float | None = None
    low_open: bool = False
    high_open: bool = False

    def is_empty(self) -> bool:
        """Whether the interval contains no points."""
        if self.low is None or self.high is None:
            return False
        if self.low > self.high:
            return True
        return self.low == self.high and (self.low_open or self.high_open)

    def is_point(self) -> bool:
        """Whether the interval is a single value ``[v, v]``."""
        return (
            self.low is not None
            and self.low == self.high
            and not self.low_open
            and not self.high_open
        )

    def contains(self, value: float) -> bool:
        if self.low is not None:
            if value < self.low or (value == self.low and self.low_open):
                return False
        if self.high is not None:
            if value > self.high or (value == self.high and self.high_open):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        low, low_open = _tighter_low(
            (self.low, self.low_open), (other.low, other.low_open)
        )
        high, high_open = _tighter_high(
            (self.high, self.high_open), (other.high, other.high_open)
        )
        return Interval(low, high, low_open, high_open)

    def _touches(self, other: "Interval") -> bool:
        """Whether ``self ∪ other`` is itself an interval (overlap/adjacency)."""
        first, second = (self, other) if _low_key(self) <= _low_key(other) else (other, self)
        if first.high is None:
            return True
        if second.low is None:
            return True
        if second.low < first.high:
            return True
        if second.low == first.high:
            # Adjacent at a shared endpoint: the union is connected unless the
            # point is excluded on both sides, e.g. (1,2) ∪ (2,3).
            return not (first.high_open and second.low_open)
        return False

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (only valid when they touch)."""
        low, low_open = _looser_low(
            (self.low, self.low_open), (other.low, other.low_open)
        )
        high, high_open = _looser_high(
            (self.high, self.high_open), (other.high, other.high_open)
        )
        return Interval(low, high, low_open, high_open)

    def describe(self) -> str:
        left = "(" if self.low_open or self.low is None else "["
        right = ")" if self.high_open or self.high is None else "]"
        low = "-inf" if self.low is None else _fmt(self.low)
        high = "+inf" if self.high is None else _fmt(self.high)
        if self.is_point():
            return "{" + _fmt(self.low) + "}"
        return f"{left}{low}, {high}{right}"

    def __str__(self) -> str:  # pragma: no cover - trivial delegation
        return self.describe()


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _low_key(interval: Interval) -> tuple:
    if interval.low is None:
        return (-math.inf, 0)
    return (interval.low, 1 if interval.low_open else 0)


def _tighter_low(a: tuple, b: tuple) -> tuple:
    """The larger (more restrictive) of two lower bounds."""
    (la, oa), (lb, ob) = a, b
    if la is None:
        return lb, ob
    if lb is None:
        return la, oa
    if la > lb:
        return la, oa
    if lb > la:
        return lb, ob
    return la, oa or ob


def _tighter_high(a: tuple, b: tuple) -> tuple:
    """The smaller (more restrictive) of two upper bounds."""
    (ha, oa), (hb, ob) = a, b
    if ha is None:
        return hb, ob
    if hb is None:
        return ha, oa
    if ha < hb:
        return ha, oa
    if hb < ha:
        return hb, ob
    return ha, oa or ob


def _looser_low(a: tuple, b: tuple) -> tuple:
    """The smaller (more permissive) of two lower bounds."""
    (la, oa), (lb, ob) = a, b
    if la is None or lb is None:
        return None, False
    if la < lb:
        return la, oa
    if lb < la:
        return lb, ob
    return la, oa and ob


def _looser_high(a: tuple, b: tuple) -> tuple:
    """The larger (more permissive) of two upper bounds."""
    (ha, oa), (hb, ob) = a, b
    if ha is None or hb is None:
        return None, False
    if ha > hb:
        return ha, oa
    if hb > ha:
        return hb, ob
    return ha, oa and ob


class IntervalSet:
    """A canonical union of disjoint intervals.

    Instances are immutable; all operations return new sets.  The canonical
    form (sorted, merged) makes ``==`` semantic set equality.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self.intervals: tuple[Interval, ...] = _normalise(intervals)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def all() -> "IntervalSet":
        """The whole real line."""
        return IntervalSet((Interval(),))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def point(value: float) -> "IntervalSet":
        return IntervalSet((Interval(value, value),))

    @staticmethod
    def points(values: Iterable[float]) -> "IntervalSet":
        return IntervalSet(Interval(v, v) for v in values)

    @staticmethod
    def at_least(value: float, strict: bool = False) -> "IntervalSet":
        return IntervalSet((Interval(value, None, low_open=strict),))

    @staticmethod
    def at_most(value: float, strict: bool = False) -> "IntervalSet":
        return IntervalSet((Interval(None, value, high_open=strict),))

    @staticmethod
    def closed(low: float, high: float) -> "IntervalSet":
        return IntervalSet((Interval(low, high),))

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals

    def is_all(self) -> bool:
        return self.intervals == (Interval(),)

    def contains(self, value: float) -> bool:
        return any(interval.contains(value) for interval in self.intervals)

    def lower_bound(self) -> tuple[float | None, bool]:
        """The set's infimum as ``(value, strict)``; ``(None, False)`` = -inf."""
        if not self.intervals:
            return None, True
        first = self.intervals[0]
        return first.low, first.low_open

    def upper_bound(self) -> tuple[float | None, bool]:
        """The set's supremum as ``(value, strict)``; ``(None, False)`` = +inf."""
        if not self.intervals:
            return None, True
        last = self.intervals[-1]
        return last.high, last.high_open

    def is_finite(self) -> bool:
        """Whether the set is a finite collection of points."""
        return all(interval.is_point() for interval in self.intervals)

    def finite_values(self) -> tuple[float, ...] | None:
        """The members, if the set is a finite collection of points."""
        if not self.is_finite():
            return None
        return tuple(interval.low for interval in self.intervals)  # type: ignore[misc]

    # -- set algebra ---------------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """A two-pointer merge of the sorted sides: at most ``n + m`` pairs."""
        pieces = []
        i = j = 0
        while i < len(self.intervals) and j < len(other.intervals):
            a, b = self.intervals[i], other.intervals[j]
            piece = a.intersect(b)
            if not piece.is_empty():
                pieces.append(piece)
            # The piece ends where the earlier-ending side does: advance it.
            end = (piece.high, piece.high_open)
            i += end == (a.high, a.high_open)
            j += end == (b.high, b.high_open)
        return IntervalSet(pieces)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def complement(self) -> "IntervalSet":
        """The complement with respect to the real line: the gaps between canonical intervals."""
        gaps = []
        gap = Interval()  # the gap after the intervals swept so far, up to +inf
        for interval in self.intervals:
            if interval.low is not None:
                gaps.append(Interval(gap.low, interval.low, gap.low_open, not interval.low_open))
            if interval.high is None:
                return IntervalSet(gaps)
            gap = Interval(interval.high, None, not interval.high_open)
        return IntervalSet((*gaps, gap))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    # -- transformations -----------------------------------------------------

    def map_monotone(self, fn: Callable[[float], float], increasing: bool = True) -> "IntervalSet":
        """Image under a monotone function (applied to bounds).

        Used by conversion functions such as ``multiply(2)`` to rewrite the
        value sets appearing in constraints.
        """
        mapped = []
        for interval in self.intervals:
            low = None if interval.low is None else fn(interval.low)
            high = None if interval.high is None else fn(interval.high)
            if increasing:
                mapped.append(Interval(low, high, interval.low_open, interval.high_open))
            else:
                mapped.append(Interval(high, low, interval.high_open, interval.low_open))
        return IntervalSet(mapped)

    def scale(self, factor: float) -> "IntervalSet":
        if factor == 0:
            return IntervalSet.point(0) if not self.is_empty() else self
        return self.map_monotone(lambda v: v * factor, increasing=factor > 0)

    def shift(self, offset: float) -> "IntervalSet":
        return self.map_monotone(lambda v: v + offset)

    def tighten_integral(self) -> "IntervalSet":
        """Shrink to the tightest interval set with the same integer members.

        ``(1, 5)`` over the integers becomes ``[2, 4]``; intervals containing
        no integer vanish.  Finite points that are not integers vanish too.
        """
        tightened = []
        for interval in self.intervals:
            low = interval.low
            high = interval.high
            if low is not None:
                # Smallest integer strictly above (open) / at-or-above (closed).
                low = math.floor(low) + 1 if interval.low_open else math.ceil(low)
            if high is not None:
                # Largest integer strictly below (open) / at-or-below (closed).
                high = math.ceil(high) - 1 if interval.high_open else math.floor(high)
            candidate = Interval(low, high)
            if not candidate.is_empty():
                tightened.append(candidate)
        return IntervalSet(tightened)

    def enumerate_integers(self, limit: int = 1024) -> tuple[int, ...] | None:
        """All integer members, if the set is bounded and small enough."""
        values: list[int] = []
        for interval in self.intervals:
            if interval.low is None or interval.high is None:
                return None
            start = math.ceil(interval.low)
            if interval.low_open and start == interval.low:
                start += 1
            stop = math.floor(interval.high)
            if interval.high_open and stop == interval.high:
                stop -= 1
            span = stop - start + 1
            if span > limit - len(values):
                return None
            values.extend(range(start, stop + 1))
        return tuple(sorted(set(values)))

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def describe(self) -> str:
        if not self.intervals:
            return "{}"
        points = self.finite_values()
        if points is not None:
            return "{" + ", ".join(_fmt(p) for p in points) + "}"
        return " ∪ ".join(interval.describe() for interval in self.intervals)

    def __str__(self) -> str:  # pragma: no cover - trivial delegation
        return self.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self.describe()})"


def _normalise(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    live = [
        _closed_at_infinity(interval)
        for interval in intervals
        if not interval.is_empty()
    ]
    live.sort(key=_low_key)
    merged: list[Interval] = []
    for interval in live:
        if merged and merged[-1]._touches(interval):
            merged[-1] = merged[-1].hull(interval)
        else:
            merged.append(interval)
    return tuple(merged)


def _closed_at_infinity(interval: Interval) -> Interval:
    """``interval`` with the open flag of an infinite bound cleared: the
    flag means nothing there, so one canonical value keeps ``==`` set
    equality (``(-inf, 5]`` whether or not its low side was built open)."""
    if (interval.low is None and interval.low_open) or (
        interval.high is None and interval.high_open
    ):
        return Interval(
            interval.low,
            interval.high,
            interval.low_open and interval.low is not None,
            interval.high_open and interval.high is not None,
        )
    return interval
