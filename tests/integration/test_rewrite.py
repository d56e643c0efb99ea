"""Direct tests for the AST rewriting utilities behind conformation."""

import pytest

from repro.constraints import parse_expression, to_source
from repro.constraints.scope import Scope
from repro.errors import ConformationError
from repro.integration._rewrite import (
    convert_domains,
    map_paths,
    rename_attributes,
)
from repro.integration.conversion import LinearConversion, MappingConversion
from repro.tm.parser import parse_database

#: The class the conversion tests' formulas are written against.
SCOPE = Scope(
    parse_database(
        """
Database D
Class C
attributes
  rating : int
  score  : int
  other  : int
  grade  : string
  ref?   : boolean
  a      : int
end C
"""
    ),
    "C",
)


def convert(formula, conversions):
    """``convert_domains`` on class ``C``, conversions keyed by attribute."""
    return convert_domains(
        formula, SCOPE, {("C", name): cf for name, cf in conversions.items()}
    )


class TestRenameAttributes:
    def test_renames_first_segment_only(self):
        formula = parse_expression("ourprice <= shopprice")
        renamed = rename_attributes(formula, {"ourprice": "libprice"})
        assert renamed == parse_expression("libprice <= shopprice")

    def test_dotted_paths_keep_tail(self):
        formula = parse_expression("publisher.name = 'ACM'")
        renamed = rename_attributes(formula, {"publisher": "vendor"})
        assert renamed == parse_expression("vendor.name = 'ACM'")

    def test_key_constraints_renamed(self):
        formula = parse_expression("key isbn")
        renamed = rename_attributes(formula, {"isbn": "code"})
        assert to_source(renamed) == "key code"

    @pytest.mark.parametrize(
        "source",
        [
            "(sum (collect x for x in self) over ourprice) < MAX",
            "(sum (collect x for x in self) over ourprice) + 1 < MAX",
            "abs((sum (collect x for x in self) over ourprice)) < MAX",
        ],
    )
    def test_aggregate_over_renamed(self, source):
        formula = parse_expression(source)
        renamed = rename_attributes(formula, {"ourprice": "libprice"})
        assert "over libprice" in to_source(renamed)
        assert "ourprice" not in to_source(renamed)

    def test_connectives_traversed(self):
        formula = parse_expression("a = 1 and (b = 2 or not c.d = 3)")
        renamed = rename_attributes(formula, {"a": "x", "c": "y"})
        assert renamed == parse_expression("x = 1 and (b = 2 or not y.d = 3)")

    def test_quantified_bodies_traversed(self):
        formula = parse_expression("forall p in Publisher | p.name = q")
        renamed = rename_attributes(formula, {"q": "r"})
        assert renamed == parse_expression("forall p in Publisher | p.name = r")


class TestConvertDomains:
    def test_comparison_constant_converted(self):
        formula = parse_expression("rating >= 2")
        converted = convert(formula, {"rating": LinearConversion(2)})
        assert converted == parse_expression("rating >= 4")

    def test_negative_factor_flips_operator(self):
        formula = parse_expression("score <= 3")
        converted = convert(formula, {"score": LinearConversion(-1)})
        assert converted == parse_expression("score >= -3")

    def test_membership_values_converted(self):
        formula = parse_expression("rating in {1, 2}")
        converted = convert(formula, {"rating": LinearConversion(2)})
        assert converted == parse_expression("rating in {2, 4}")

    def test_constant_on_left_mirrored(self):
        formula = parse_expression("2 <= rating")
        converted = convert(formula, {"rating": LinearConversion(2)})
        assert converted == parse_expression("rating >= 4")

    def test_equality_both_sides_converted_same(self):
        formula = parse_expression("rating = other")
        converted = convert(
            formula, {"rating": LinearConversion(2), "other": LinearConversion(2)}
        )
        assert converted == formula  # same conversion: relation preserved

    def test_differently_converted_sides_rejected(self):
        formula = parse_expression("rating = other")
        with pytest.raises(ConformationError):
            convert(formula, {"rating": LinearConversion(2), "other": LinearConversion(3)})

    @pytest.mark.parametrize(
        "source",
        [
            "rating.sub = 1",
            "rating + 1 < 100",
            "abs(rating) < 100",
            "(sum (collect x for x in self) over rating) + 1 < 100",
            "a = 1 implies contains(rating, 'x')",
        ],
    )
    def test_converted_property_out_of_reach_rejected(self, source):
        formula = parse_expression(source)
        with pytest.raises(ConformationError, match="rating"):
            convert(formula, {"rating": LinearConversion(2.0)})

    def test_membership_in_named_constant_rejected(self):
        formula = parse_expression("rating in RATINGS")
        with pytest.raises(ConformationError):
            convert(formula, {"rating": LinearConversion(2)})

    def test_mapping_conversion_of_equality(self):
        formula = parse_expression("grade = 'A'")
        converted = convert(formula, {"grade": MappingConversion({"A": 1, "B": 2})})
        assert converted == parse_expression("grade = 1")

    def test_mapping_rejects_order(self):
        formula = parse_expression("grade < 'B'")
        with pytest.raises(ConformationError):
            convert(formula, {"grade": MappingConversion({"A": 1, "B": 2})})

    def test_implication_sides_converted(self):
        formula = parse_expression("ref? = true implies rating >= 7")
        converted = convert(formula, {"rating": LinearConversion(2)})
        assert converted == parse_expression("ref? = true implies rating >= 14")


class TestMapPaths:
    def test_identity(self):
        formula = parse_expression("a.b = 1 and contains(c, 'x')")
        assert map_paths(formula, lambda p: p) == formula

    def test_a_rule_that_never_fires_returns_the_same_object(self):
        formula = parse_expression(
            "forall p in Publisher | not (p.name = 'ACM' or abs(p.rating + 1) in {1, 2}) "
            "implies (sum (collect x for x in self) over price) < MAX"
        )
        assert formula.rewrite(lambda node: None) is formula
        assert map_paths(formula, lambda p: p) is formula
        assert rename_attributes(formula, {"absent": "other"}) is formula
        assert convert(formula, {"absent": LinearConversion(2)}) is formula

    def test_untouched_subtrees_keep_identity_and_positions_survive(self):
        formula = parse_expression("a = 1 and b = 2")
        renamed = rename_attributes(formula, {"b": "c"})
        assert renamed == parse_expression("a = 1 and c = 2")
        assert renamed.parts[0] is formula.parts[0]
        assert [node.pos for node in renamed.walk()] == [
            node.pos for node in formula.walk()
        ]

    def test_prefixing(self):
        from repro.constraints.ast import Path

        formula = parse_expression("rating >= 4")
        prefixed = map_paths(formula, lambda p: p.with_root("O'"))
        assert prefixed == parse_expression("O'.rating >= 4")

    def test_function_arguments_mapped(self):
        from repro.constraints.ast import Path

        formula = parse_expression("contains(title, 'Proceed')")
        mapped = map_paths(formula, lambda p: p.with_root("O"))
        assert mapped == parse_expression("contains(O.title, 'Proceed')")
