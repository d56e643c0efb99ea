"""Tests for intervals and interval sets (repro.domains.interval)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.domains.interval import Interval, IntervalSet


# -- strategies ---------------------------------------------------------------

small_values = st.integers(-20, 20)


@st.composite
def intervals(draw):
    low = draw(st.one_of(st.none(), small_values))
    high = draw(st.one_of(st.none(), small_values))
    return Interval(low, high, draw(st.booleans()), draw(st.booleans()))


@st.composite
def interval_sets(draw):
    return IntervalSet(draw(st.lists(intervals(), max_size=12)))


@st.composite
def point_sets(draw):
    """Finite sets of half-step values, shaped like the up-to-18-point rating
    domains (``{1.5, 2, ..., 10}``) that constraint derivation compares."""
    steps = draw(st.lists(st.integers(0, 24), max_size=18, unique=True))
    return IntervalSet.points(step / 2 for step in steps)


#: Both shapes: general unions (unbounded, open/closed, overlapping before
#: normalisation) and point-heavy finite sets.
value_sets = st.one_of(interval_sets(), point_sets())

probe_values = st.one_of(
    st.integers(-22, 22),
    st.integers(-44, 44).map(lambda half_steps: half_steps / 2),
)


class TestInterval:
    def test_closed_contains_endpoints(self):
        assert Interval(1, 5).contains(1)
        assert Interval(1, 5).contains(5)

    def test_open_excludes_endpoints(self):
        interval = Interval(1, 5, low_open=True, high_open=True)
        assert not interval.contains(1)
        assert not interval.contains(5)
        assert interval.contains(3)

    def test_unbounded(self):
        assert Interval(None, 5).contains(-1000)
        assert Interval(5, None).contains(1000)
        assert Interval().contains(0)

    def test_empty_detection(self):
        assert Interval(5, 1).is_empty()
        assert Interval(3, 3, low_open=True).is_empty()
        assert not Interval(3, 3).is_empty()

    def test_point(self):
        assert Interval(3, 3).is_point()
        assert not Interval(3, 4).is_point()

    def test_intersect(self):
        result = Interval(1, 5).intersect(Interval(3, 8))
        assert result == Interval(3, 5)

    def test_intersect_openness(self):
        result = Interval(1, 5, high_open=True).intersect(Interval(3, 5))
        assert result == Interval(3, 5, high_open=True)

    def test_describe(self):
        assert Interval(1, 5).describe() == "[1, 5]"
        assert Interval(None, 5, high_open=True).describe() == "(-inf, 5)"
        assert Interval(3, 3).describe() == "{3}"


class TestIntervalSetBasics:
    def test_points_constructor(self):
        points = IntervalSet.points([10, 20])
        assert points.contains(10)
        assert points.contains(20)
        assert not points.contains(15)
        assert points.finite_values() == (10, 20)

    def test_normalisation_merges_overlaps(self):
        merged = IntervalSet([Interval(1, 5), Interval(3, 8)])
        assert merged.intervals == (Interval(1, 8),)

    def test_normalisation_merges_adjacent_closed(self):
        merged = IntervalSet([Interval(1, 2), Interval(2, 3)])
        assert merged.intervals == (Interval(1, 3),)

    def test_normalisation_keeps_gap_between_open(self):
        kept = IntervalSet(
            [Interval(1, 2, high_open=True), Interval(2, 3, low_open=True)]
        )
        assert len(kept.intervals) == 2
        assert not kept.contains(2)

    def test_merges_half_open_adjacency(self):
        merged = IntervalSet(
            [Interval(1, 2), Interval(2, 3, low_open=True)]
        )
        assert merged.intervals == (Interval(1, 3),)

    def test_empty_intervals_dropped(self):
        assert IntervalSet([Interval(5, 1)]).is_empty()

    def test_bounds(self):
        sets = IntervalSet([Interval(1, 2), Interval(5, None)])
        assert sets.lower_bound() == (1, False)
        assert sets.upper_bound() == (None, False)

    def test_at_least_at_most(self):
        assert IntervalSet.at_least(7).contains(7)
        assert not IntervalSet.at_least(7, strict=True).contains(7)
        assert IntervalSet.at_most(4).contains(4)
        assert not IntervalSet.at_most(4, strict=True).contains(4)


class TestIntervalSetAlgebra:
    def test_paper_rating_example(self):
        # Conformed RefereedPubl.oc1 (rating >= 4) against the Proceedings
        # type domain 1..10.
        domain = IntervalSet.closed(1, 10)
        atleast4 = IntervalSet.at_least(4)
        assert domain.intersect(atleast4) == IntervalSet.closed(4, 10)

    def test_complement_roundtrip(self):
        sets = IntervalSet([Interval(1, 5), Interval(10, 12)])
        assert sets.complement().complement() == sets

    def test_complement_of_point_excludes_it(self):
        assert not IntervalSet.point(3).complement().contains(3)
        assert IntervalSet.point(3).complement().contains(2.9)

    def test_difference(self):
        result = IntervalSet.closed(1, 10).difference(IntervalSet.closed(4, 6))
        assert result.contains(3)
        assert not result.contains(5)
        assert result.contains(7)
        assert not result.contains(4)

    def test_subset(self):
        assert IntervalSet.closed(2, 3).is_subset(IntervalSet.closed(1, 5))
        assert not IntervalSet.closed(0, 3).is_subset(IntervalSet.closed(1, 5))

    @given(value_sets, value_sets, probe_values)
    def test_intersection_semantics(self, a, b, probe):
        assert a.intersect(b).contains(probe) == (a.contains(probe) and b.contains(probe))

    @given(value_sets, value_sets, probe_values)
    def test_union_semantics(self, a, b, probe):
        assert a.union(b).contains(probe) == (a.contains(probe) or b.contains(probe))

    @given(value_sets, probe_values)
    def test_complement_semantics(self, a, probe):
        assert a.complement().contains(probe) == (not a.contains(probe))

    @given(value_sets, value_sets)
    def test_subset_via_difference(self, a, b):
        assert a.is_subset(b) == a.difference(b).is_empty()

    @given(value_sets, value_sets, probe_values)
    def test_difference_semantics(self, a, b, probe):
        assert a.difference(b).contains(probe) == (a.contains(probe) and not b.contains(probe))

    @given(value_sets)
    def test_canonical_equality(self, a):
        rebuilt = IntervalSet(a.intervals)
        assert rebuilt == a
        assert hash(rebuilt) == hash(a)

    @given(value_sets)
    def test_complement_is_canonical_involution(self, a):
        complement = a.complement()
        assert complement.intervals == IntervalSet(complement.intervals).intervals
        assert complement.complement() == a

    def test_open_flag_on_an_infinite_bound_is_canonical(self):
        built_open = IntervalSet([Interval(None, 5, low_open=True)])
        assert built_open == IntervalSet.at_most(5)
        assert hash(built_open) == hash(IntervalSet.at_most(5))
        assert built_open.complement().complement() == built_open
        assert IntervalSet([Interval(2, None, high_open=True)]) == IntervalSet.at_least(2)
        assert IntervalSet([Interval(None, None, True, True)]).is_all()

    def test_complement_gaps(self):
        around = IntervalSet([Interval(None, 1, high_open=True), Interval(1, None, low_open=True)])
        assert around.complement() == IntervalSet.point(1)
        split = IntervalSet([Interval(1, 2), Interval(3, None, low_open=True)])
        assert split.complement().describe() == "(-inf, 1) ∪ (2, 3]"
        assert IntervalSet.empty().complement().is_all()
        assert IntervalSet.all().complement().is_empty()

    def test_intersect_advances_the_earlier_end(self):
        # Equal upper bounds, one open: the open one ends first.
        a = IntervalSet([Interval(0, 5), Interval(7, 9)])
        b = IntervalSet([Interval(1, 5, high_open=True), Interval(5, 8, low_open=True)])
        assert a.intersect(b).describe() == "[1, 5) ∪ [7, 8]"

    def test_algebra_is_linear_in_interval_pairs(self, monkeypatch):
        """``complement`` of n intervals and ``intersect`` (so ``difference``
        and ``is_subset``) of n and m intervals meet at most n + m pairs."""
        calls = 0
        original = Interval.intersect

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(Interval, "intersect", counting)
        ratings = IntervalSet.points(step / 2 for step in range(3, 21))  # 18 points
        bands = IntervalSet([Interval(k, k + 1.5, low_open=True) for k in range(0, 30, 3)])
        n, m = len(ratings.intervals), len(bands.intervals)
        assert (n, m) == (18, 10)
        ratings.complement()
        assert calls <= n
        calls = 0
        ratings.intersect(bands)
        assert calls <= n + m
        calls = 0
        ratings.difference(bands)
        assert calls <= n + (m + 1)
        calls = 0
        bands.is_subset(ratings)
        assert calls <= m + (n + 1)


class TestTransformations:
    def test_scale_by_two_paper_conversion(self):
        # multiply(2) conversion of 'rating >= 2' (1..5 scale) to the 1..10
        # scale used by the bookseller: the value set doubles.
        assert IntervalSet.at_least(2).scale(2) == IntervalSet.at_least(4)

    def test_scale_negative_flips(self):
        scaled = IntervalSet.closed(1, 3).scale(-2)
        assert scaled == IntervalSet.closed(-6, -2)

    def test_scale_zero(self):
        assert IntervalSet.closed(1, 3).scale(0) == IntervalSet.point(0)

    def test_shift(self):
        assert IntervalSet.closed(1, 3).shift(10) == IntervalSet.closed(11, 13)

    def test_tighten_integral_open_bounds(self):
        tightened = IntervalSet([Interval(1, 5, low_open=True, high_open=True)]).tighten_integral()
        assert tightened == IntervalSet.closed(2, 4)

    def test_tighten_integral_fractional_bounds(self):
        tightened = IntervalSet([Interval(1.5, 3.5)]).tighten_integral()
        assert tightened == IntervalSet.closed(2, 3)

    def test_tighten_integral_drops_fraction_points(self):
        assert IntervalSet.point(2.5).tighten_integral().is_empty()

    def test_enumerate_integers(self):
        values = IntervalSet([Interval(1, 3), Interval(7, 8)]).enumerate_integers()
        assert values == (1, 2, 3, 7, 8)

    def test_enumerate_integers_unbounded_is_none(self):
        assert IntervalSet.at_least(3).enumerate_integers() is None

    def test_enumerate_integers_respects_limit(self):
        assert IntervalSet.closed(0, 10_000).enumerate_integers(limit=10) is None

    @given(interval_sets(), st.integers(-3, 3).filter(lambda k: k != 0), probe_values)
    def test_scale_membership(self, a, factor, probe):
        assert a.scale(factor).contains(probe * factor) == a.contains(probe)

    @given(interval_sets(), st.integers(-22, 22))
    def test_tighten_integral_preserves_integers(self, a, probe):
        assert a.tighten_integral().contains(probe) == a.contains(probe)
