"""Tests for TM schema validation (repro.tm.validate)."""

import pytest

from repro.errors import SchemaError
from repro.fixtures import bookseller_schema, cslibrary_schema
from repro.tm import parse_database, validate_schema


def parse(source, **kwargs):
    return parse_database(source, validate_sections=False, **kwargs)


class TestPaperSchemasAreValid:
    def test_cslibrary_valid(self):
        assert validate_schema(cslibrary_schema()) == []

    def test_bookseller_valid(self):
        assert validate_schema(bookseller_schema()) == []


class TestInheritanceIssues:
    def test_missing_parent(self):
        schema = parse("""
Database D
Class A isa Ghost
end A
""")
        issues = validate_schema(schema)
        assert any("Ghost" in issue.message for issue in issues)

    def test_inheritance_cycle(self):
        schema = parse("""
Database D
Class A isa B
end A
Class B isa A
end B
""")
        issues = validate_schema(schema)
        assert any("cycle" in issue.message for issue in issues)

    def test_raise_on_error(self):
        schema = parse("""
Database D
Class A isa Ghost
end A
""")
        with pytest.raises(SchemaError):
            validate_schema(schema, raise_on_error=True)


class TestAttributeIssues:
    def test_dangling_class_reference(self):
        schema = parse("""
Database D
Class A
attributes
  other : Ghost
end A
""")
        issues = validate_schema(schema)
        assert any("undeclared class 'Ghost'" in issue.message for issue in issues)


class TestConstraintIssues:
    def test_unknown_attribute_in_constraint(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
object constraints
  oc1: y > 0
end A
""")
        issues = validate_schema(schema)
        assert any("unknown attribute 'y'" in issue.message for issue in issues)

    def test_undeclared_constant(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
object constraints
  oc1: x < LIMIT
end A
""")
        issues = validate_schema(schema)
        assert any("undeclared constant 'LIMIT'" in issue.message for issue in issues)

    def test_declared_constant_ok(self):
        schema = parse(
            """
Database D
constants
  LIMIT = 5
Class A
attributes
  x : int
object constraints
  oc1: x < LIMIT
end A
"""
        )
        assert validate_schema(schema) == []

    def test_path_through_non_reference(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
object constraints
  oc1: x.name = 'a'
end A
""")
        issues = validate_schema(schema)
        assert any("dereferences non-reference" in issue.message for issue in issues)

    def test_path_breaks_at_segment(self):
        schema = parse("""
Database D
Class P
attributes
  name : string
end P
Class A
attributes
  p : P
object constraints
  oc1: p.location = 'a'
end A
""")
        issues = validate_schema(schema)
        assert any("breaks at segment 'location'" in issue.message for issue in issues)

    def test_misclassified_section(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
object constraints
  oc1: key x
end A
""")
        issues = validate_schema(schema)
        assert any("structurally a class constraint" in issue.message for issue in issues)

    def test_key_over_unknown_attribute(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
class constraints
  cc1: key y
end A
""")
        issues = validate_schema(schema)
        assert any("key attribute 'y'" in issue.message for issue in issues)

    def test_quantifier_over_unknown_class(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
end A
Database constraints
  db1: forall g in Ghost | g.x = 1
""")
        issues = validate_schema(schema)
        assert any("undeclared class 'Ghost'" in issue.message for issue in issues)

    def test_unknown_attribute_behind_a_quantifier(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
end A
Database constraints
  db1: forall a in A | a.nosuch > 0
""")
        issues = validate_schema(schema)
        assert [issue.describe() for issue in issues] == [
            "D.db1: references unknown attribute 'nosuch'"
        ]

    def test_database_constraint_path_needs_a_quantified_root(self):
        schema = parse("""
Database D
Class A
attributes
  x : int
end A
Database constraints
  db1: forall a in A | x > 0
""")
        issues = validate_schema(schema)
        assert any("'x' is not rooted at a quantified variable" in i.message for i in issues)

    def test_issue_describe(self):
        schema = parse("""
Database D
Class A isa Ghost
end A
""")
        issues = validate_schema(schema)
        assert issues[0].describe().startswith("D.A:")
