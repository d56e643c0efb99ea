"""Edge-case tests for the solver, normaliser and domains working together."""

import pytest

from repro.constraints import (
    Solver,
    TypeEnvironment,
    entails,
    is_satisfiable,
    parse_expression,
)
from repro.constraints.ast import And, FALSE, TRUE
from repro.domains import combine_numeric, numeric_range
from repro.errors import SolverError
from repro.types import BOOL, INT, REAL, STRING, EnumType, RangeType


def formula(source):
    return parse_expression(source)


class TestConstantFolding:
    def test_arithmetic_on_constants_folds(self):
        assert not is_satisfiable(formula("x < 2 + 1 and x > 5 - 2"))
        assert is_satisfiable(formula("x <= 2 * 3 and x >= 12 / 2"))

    def test_constant_vs_constant(self):
        assert not is_satisfiable(formula("3 > 5"))
        assert is_satisfiable(formula("3 < 5"))

    def test_division_by_zero_left_opaque(self):
        # 1/0 cannot fold; the comparison becomes an uninterpreted atom and
        # the formula stays (conservatively) satisfiable.
        assert is_satisfiable(formula("x < 1 / 0"))

    def test_scalar_named_constant(self):
        env = TypeEnvironment({}, {"MAX": 10})
        assert not is_satisfiable(formula("x > MAX and x < 5"), env)


class TestMixedKinds:
    def test_string_vs_numeric_equality_unsat(self):
        # name = 'a' gives a discrete domain; name = 3 a numeric one —
        # their intersection is a type clash, reported as such.
        with pytest.raises(SolverError):
            is_satisfiable(formula("name = 'a' and name = 3"))

    def test_boolean_path_atoms(self):
        env = TypeEnvironment({"flag": BOOL})
        assert not is_satisfiable(formula("flag = true and flag = false"), env)
        assert is_satisfiable(formula("flag != true"), env)

    def test_enum_typed_paths(self):
        env = TypeEnvironment({"tariff": EnumType(frozenset({10, 20}))})
        assert not is_satisfiable(formula("tariff = 15"), env)
        assert is_satisfiable(formula("tariff = 10"), env)


class TestQuantifierAndKeyAtoms:
    def test_quantified_atoms_are_opaque(self):
        from repro.constraints.ast import Not

        phi = formula("forall p in Publisher exists i in Item | i.publisher = p")
        assert is_satisfiable(phi)
        assert not is_satisfiable(And((phi, Not(phi))))

    def test_key_atoms_are_opaque_but_congruent(self):
        phi = formula("key isbn")
        from repro.constraints.ast import Not

        assert is_satisfiable(phi)
        assert not is_satisfiable(And((phi, Not(phi))))


class TestEntailmentEdges:
    def test_anything_entails_true(self):
        assert entails(formula("x = 1"), TRUE)

    def test_false_entails_anything(self):
        assert entails(FALSE, formula("x = 1"))

    def test_cross_type_independence(self):
        premise = formula("name = 'ACM' and rating >= 7")
        assert entails(premise, formula("rating >= 4"))
        assert entails(premise, formula("name = 'ACM'"))
        assert not entails(premise, formula("name = 'IEEE'"))

    def test_offset_entailment(self):
        assert entails(formula("x + 1 <= y"), formula("x < y"))
        assert not entails(formula("x <= y"), formula("x + 1 <= y"))

    def test_three_variable_chain(self):
        premise = formula("a <= b and b <= c and c <= 5")
        assert entails(premise, formula("a <= 5"))
        assert not entails(premise, formula("a <= 4"))

    def test_order_atoms_forcing_equality_refute_disequality(self):
        # x <= y and y <= x pin x = y through the difference bounds, not
        # through an explicit equality atom.
        env = TypeEnvironment({"x": RangeType(0, 3), "y": RangeType(0, 3)})
        assert not is_satisfiable(formula("x != y and x <= y and y <= x"), env)
        assert not is_satisfiable(formula("x != y and x <= y and y <= x"))
        assert is_satisfiable(formula("x != y and x <= y"), env)
        assert is_satisfiable(formula("x != y and x <= y + 1 and y <= x"), env)

    def test_domain_of_with_equalities(self):
        solver = Solver(TypeEnvironment({"x": RangeType(1, 9), "y": RangeType(1, 9)}))
        dom = solver.domain_of(formula("x = y and y >= 7"), "x")
        assert dom.enumerate() == (7, 8, 9)


class TestCombineEdges:
    def test_avg_open_bounds(self):
        left = numeric_range(0, 10, low_strict=True)
        right = numeric_range(4, 6)
        combined = combine_numeric(left, right, "avg")
        low, strict = combined.lower_bound()
        assert low == 2 and strict

    def test_min_with_unbounded_sides(self):
        left = numeric_range(None, 5)
        right = numeric_range(3, None)
        combined = combine_numeric(left, right, "min")
        assert combined.lower_bound() == (None, False)
        assert combined.upper_bound() == (5, False)

    def test_max_with_unbounded_sides(self):
        left = numeric_range(None, 5)
        right = numeric_range(3, None)
        combined = combine_numeric(left, right, "max")
        assert combined.lower_bound() == (3, False)
        assert combined.upper_bound() == (None, False)

    def test_sum_integrality(self):
        left = numeric_range(1, 3, integral=True)
        right = numeric_range(10, 20, integral=True)
        assert combine_numeric(left, right, "sum").integral
        assert not combine_numeric(left, right, "avg").integral


class TestRealVsIntegerSubtleties:
    def test_real_typed_paths_keep_fractions(self):
        env = TypeEnvironment({"price": REAL})
        assert is_satisfiable(formula("price > 1 and price < 2"), env)

    def test_untyped_paths_keep_fractions(self):
        assert is_satisfiable(formula("x > 1 and x < 2"))

    def test_int_typed_paths_drop_fractions(self):
        env = TypeEnvironment({"num": INT})
        assert not is_satisfiable(formula("num > 1 and num < 2"), env)

    def test_integer_equality_through_inequalities(self):
        env = TypeEnvironment({"n": INT})
        assert entails(
            formula("n > 4 and n < 6"), formula("n = 5"), env
        )
