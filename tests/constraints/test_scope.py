"""Tests for the one scope rule and path walk (repro.constraints.scope)."""

import pytest

from repro.constraints import parse_expression
from repro.constraints.ast import Aggregate, Path
from repro.constraints.scope import Scope, traverse
from repro.fixtures import bookseller_schema

SCHEMA = bookseller_schema()


def resolutions(source, owner):
    """Every path of ``source`` with its resolution, in traversal order."""
    found = []

    def visit(node, scope):
        if isinstance(node, Path):
            found.append((node.dotted(), scope.resolve(node)))
        return None

    traverse(parse_expression(source), Scope(SCHEMA, owner), visit)
    return found


@pytest.mark.parametrize(
    "source, owner, steps, failure",
    [
        ("publisher.name = 'ACM'", "Proceedings",
         [("Proceedings", "publisher"), ("Publisher", "name")], None),
        ("forall i in Item | i.publisher.name = 'ACM'", None,
         [("Item", "publisher"), ("Publisher", "name")], None),
        ("rating.name = 1", "Proceedings", [("Proceedings", "rating")], "not-a-reference"),
        ("publisher.nosuch = 1", "Item", [("Item", "publisher")], "unknown-attribute"),
        ("forall i in Item | libprice > 0", None, [], "unbound-path"),
    ],
)
def test_a_path_resolves_in_its_scope(source, owner, steps, failure):
    [(_dotted, resolution)] = resolutions(source, owner)
    assert [(s.class_name, s.attribute) for s in resolution.steps] == steps
    assert resolution.failure == failure


def test_a_quantifier_binds_only_its_body_and_shadows_the_owner():
    found = resolutions(
        "(forall publisher in Publisher | publisher.name = 'ACM') and publisher.name = 'x'",
        "Item",
    )
    assert [(d, r.owner_rooted, r.steps[0].class_name) for d, r in found] == [
        ("publisher.name", False, "Publisher"),
        ("publisher.name", True, "Item"),
    ]


def test_an_aggregate_over_resolves_on_its_base_class():
    scope = Scope(SCHEMA, "Proceedings")
    own = parse_expression("(avg (collect x for x in self) over rating) < 4").left
    named = parse_expression("(sum (collect x for x in Item) over rating) < 4").left
    assert isinstance(own, Aggregate) and isinstance(named, Aggregate)
    assert scope.resolve_over(own).end.class_name == "Proceedings"
    assert scope.resolve_over(named).failure == "unknown-attribute"
    assert scope.resolve_over(named).stopped_on == "Item"
