"""Tests for constraint evaluation against object states."""

import pytest

from repro.constraints import EvalContext, evaluate, parse_expression
from repro.constraints.evaluate import VACUOUS, ReasonTrace
from repro.errors import EvaluationError


def check(source, current=None, **kwargs):
    return evaluate(parse_expression(source), EvalContext(current=current, **kwargs))


class TestObjectConstraints:
    def test_price_comparison(self):
        book = {"ourprice": 20.0, "shopprice": 25.0}
        assert check("ourprice <= shopprice", book)
        assert not check("ourprice > shopprice", book)

    def test_membership_named_constant(self):
        book = {"publisher": "ACM"}
        constants = {"KNOWNPUBLISHERS": {"ACM", "IEEE"}}
        assert check("publisher in KNOWNPUBLISHERS", book, constants=constants)
        assert not check(
            "publisher in KNOWNPUBLISHERS", {"publisher": "X"}, constants=constants
        )

    def test_membership_set_literal(self):
        assert check("trav_reimb in {10, 20}", {"trav_reimb": 10})
        assert not check("trav_reimb in {10, 20}", {"trav_reimb": 15})

    def test_implication(self):
        ieee = {"publisher": {"name": "IEEE"}, "ref?": True}
        other = {"publisher": {"name": "X"}, "ref?": False}
        violating = {"publisher": {"name": "IEEE"}, "ref?": False}
        src = "publisher.name = 'IEEE' implies ref? = true"
        assert check(src, ieee)
        assert check(src, other)
        assert not check(src, violating)

    def test_nested_path_through_dicts(self):
        assert check("publisher.name = 'ACM'", {"publisher": {"name": "ACM"}})

    def test_boolean_connectives(self):
        state = {"a": 1, "b": 2}
        assert check("a = 1 and b = 2", state)
        assert check("a = 9 or b = 2", state)
        assert check("not a = 9", state)
        assert not check("not (a = 1)", state)

    def test_arithmetic(self):
        assert check("salary + bonus < 1500", {"salary": 1000, "bonus": 400})
        assert check("salary * 2 >= 2000", {"salary": 1000})
        assert check("salary / 2 = 500", {"salary": 1000})
        assert check("salary - 1 != 1000", {"salary": 1000})

    def test_contains_builtin(self):
        state = {"title": "Proceedings of VLDB"}
        assert check("contains(title, 'Proceed')", state)
        assert not check("contains(title, 'Journal')", state)

    def test_membership_in_set_attribute(self):
        state = {"subjects": {"databases", "networks"}}
        assert check("'databases' in subjects", state)
        assert not check("'compilers' in subjects", state)

    def test_missing_attribute_raises(self):
        with pytest.raises(EvaluationError):
            check("rating >= 2", {"title": "x"})

    def test_no_current_object_raises(self):
        with pytest.raises(EvaluationError):
            check("rating >= 2")

    def test_unknown_constant_raises(self):
        with pytest.raises(EvaluationError):
            check("x in UNKNOWN", {"x": 1})

    def test_unknown_function_raises(self):
        with pytest.raises(EvaluationError):
            check("frobnicate(x)", {"x": 1})

    def test_incomparable_types_raise(self):
        with pytest.raises(EvaluationError):
            check("x < 3", {"x": "abc"})


class TestBindings:
    def test_two_object_rule_condition(self):
        local = {"isbn": "111"}
        remote = {"isbn": "111"}
        ctx = EvalContext(bindings={"O": local, "O'": remote})
        assert evaluate(parse_expression("O.isbn = O'.isbn"), ctx)

    def test_binding_shadows_current(self):
        ctx = EvalContext(current={"x": 1}, bindings={"O": {"x": 2}})
        assert evaluate(parse_expression("O.x = 2"), ctx)
        assert evaluate(parse_expression("x = 1"), ctx)


class TestClassConstraints:
    def test_sum_aggregate(self):
        extent = [{"ourprice": 10.0}, {"ourprice": 20.0}]
        ctx = EvalContext(self_extent=extent, constants={"MAX": 100})
        src = "(sum (collect x for x in self) over ourprice) < MAX"
        assert evaluate(parse_expression(src), ctx)
        ctx_low = EvalContext(self_extent=extent, constants={"MAX": 25})
        assert not evaluate(parse_expression(src), ctx_low)

    def test_avg_aggregate_paper_cc1(self):
        extent = [{"rating": 2}, {"rating": 4}]
        ctx = EvalContext(self_extent=extent)
        src = "(avg (collect x for x in self) over rating) < 4"
        assert evaluate(parse_expression(src), ctx)

    def test_min_max_count(self):
        extent = [{"r": 1}, {"r": 5}]
        ctx = EvalContext(self_extent=extent)
        assert evaluate(parse_expression("(min (collect x for x in self) over r) = 1"), ctx)
        assert evaluate(parse_expression("(max (collect x for x in self) over r) = 5"), ctx)
        assert evaluate(parse_expression("(count (collect x for x in self) over r) = 2"), ctx)

    def test_empty_extent_sum_is_zero(self):
        ctx = EvalContext(self_extent=[], constants={"MAX": 1})
        src = "(sum (collect x for x in self) over p) < MAX"
        assert evaluate(parse_expression(src), ctx)

    def test_empty_extent_avg_is_vacuous(self):
        ctx = EvalContext(self_extent=[])
        src = "(avg (collect x for x in self) over p) < 4"
        assert evaluate(parse_expression(src), ctx)

    def test_key_constraint(self):
        ctx = EvalContext(self_extent=[{"isbn": "1"}, {"isbn": "2"}])
        assert evaluate(parse_expression("key isbn"), ctx)
        ctx_dup = EvalContext(self_extent=[{"isbn": "1"}, {"isbn": "1"}])
        assert not evaluate(parse_expression("key isbn"), ctx_dup)

    def test_composite_key(self):
        extent = [{"a": 1, "b": 1}, {"a": 1, "b": 2}]
        ctx = EvalContext(self_extent=extent)
        assert evaluate(parse_expression("key a, b"), ctx)
        assert not evaluate(parse_expression("key a"), ctx)


class TestDatabaseConstraints:
    def test_figure1_db1(self):
        """forall p in Publisher exists i in Item | i.publisher = p"""
        acm = {"name": "ACM"}
        springer = {"name": "Springer"}
        extents = {
            "Publisher": [acm, springer],
            "Item": [{"publisher": acm}, {"publisher": springer}],
        }
        src = "forall p in Publisher exists i in Item | i.publisher = p"
        assert evaluate(parse_expression(src), EvalContext(extents=extents))

    def test_figure1_db1_violated(self):
        acm = {"name": "ACM"}
        dangling = {"name": "Ghost"}
        extents = {
            "Publisher": [acm, dangling],
            "Item": [{"publisher": acm}],
        }
        src = "forall p in Publisher exists i in Item | i.publisher = p"
        assert not evaluate(parse_expression(src), EvalContext(extents=extents))

    def test_exists_only(self):
        extents = {"Item": [{"price": 5}]}
        assert evaluate(
            parse_expression("exists i in Item | i.price = 5"),
            EvalContext(extents=extents),
        )

    def test_unknown_extent_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(
                parse_expression("exists i in Nowhere | i.x = 1"), EvalContext()
            )


class TestVacuous:
    def test_vacuous_satisfies_comparisons(self):
        ctx = EvalContext(self_extent=[])
        for op in ("<", "<=", ">", ">=", "=", "!="):
            src = f"(avg (collect x for x in self) over p) {op} 4"
            assert evaluate(parse_expression(src), ctx)

    def test_vacuous_propagates_through_arithmetic(self):
        ctx = EvalContext(self_extent=[])
        src = "(avg (collect x for x in self) over p) + 1 < 4"
        assert evaluate(parse_expression(src), ctx)

    def test_vacuous_repr(self):
        assert "vacuous" in repr(VACUOUS)

    def test_negated_vacuous_comparison_agrees_with_equivalent(self):
        """Regression: ``not (avg ... > 5)`` and ``avg ... <= 5`` are
        logically equivalent, so both must be satisfied on an empty extent.
        Vacuous truth propagates through ``not`` instead of flipping."""
        ctx = EvalContext(self_extent=[])
        negated = "not ((avg (collect x for x in self) over p) > 5)"
        direct = "(avg (collect x for x in self) over p) <= 5"
        assert evaluate(parse_expression(direct), ctx)
        assert evaluate(parse_expression(negated), ctx)

    def test_vacuous_propagates_through_connectives(self):
        ctx = EvalContext(self_extent=[], current={"q": 1})
        avg = "(avg (collect x for x in self) over p)"
        # A strict operand still decides; vacuity absorbs otherwise.
        assert evaluate(parse_expression(f"{avg} > 5 and q = 1"), ctx)
        assert not evaluate(parse_expression(f"{avg} > 5 and q = 2"), ctx)
        assert evaluate(parse_expression(f"{avg} > 5 or q = 2"), ctx)
        assert evaluate(parse_expression(f"not ({avg} > 5 and q = 1)"), ctx)
        assert evaluate(parse_expression(f"{avg} > 5 implies q = 2"), ctx)
        assert evaluate(parse_expression(f"q = 1 implies {avg} > 5"), ctx)

    def test_de_morgan_agreement_on_vacuous_operands(self):
        ctx = EvalContext(self_extent=[], current={"q": 1})
        avg = "(avg (collect x for x in self) over p)"
        left = f"not ({avg} > 5 or q = 2)"
        right = f"(not ({avg} > 5)) and (not (q = 2))"
        assert bool(evaluate(parse_expression(left), ctx)) == bool(
            evaluate(parse_expression(right), ctx)
        )

    def test_vacuous_propagates_through_membership_negation(self):
        ctx = EvalContext(self_extent=[])
        avg = "(avg (collect x for x in self) over p)"
        assert evaluate(parse_expression(f"{avg} in {{1, 2}}"), ctx)
        assert evaluate(parse_expression(f"not ({avg} in {{1, 2}})"), ctx)

    def test_vacuous_propagates_through_quantifiers(self):
        extents = {"C": [{"q": 1}, {"q": 2}]}
        ctx = EvalContext(extents=extents, self_extent=[])
        avg = "(avg (collect x for x in self) over p)"
        # not(forall c: vacuous) must agree with exists c: not(vacuous).
        assert evaluate(
            parse_expression(f"not (forall c in C | {avg} > 5)"), ctx
        )
        assert evaluate(
            parse_expression(f"exists c in C | not ({avg} > 5)"), ctx
        )


class TestAggregateErrorContract:
    def test_non_numeric_sum_raises_evaluation_error(self):
        """Regression: a non-numeric aggregate operand on the scan path must
        raise EvaluationError (the wrapping contract comparisons/arithmetic
        honor), never a raw TypeError."""
        ctx = EvalContext(self_extent=[{"p": "not a number"}])
        src = "(sum (collect x for x in self) over p) < 5"
        with pytest.raises(EvaluationError):
            evaluate(parse_expression(src), ctx)

    def test_non_numeric_avg_raises_evaluation_error(self):
        ctx = EvalContext(self_extent=[{"p": "abc"}, {"p": "def"}])
        src = "(avg (collect x for x in self) over p) < 5"
        with pytest.raises(EvaluationError):
            evaluate(parse_expression(src), ctx)

    def test_mixed_type_min_raises_evaluation_error(self):
        ctx = EvalContext(self_extent=[{"p": 1}, {"p": "abc"}])
        src = "(min (collect x for x in self) over p) < 5"
        with pytest.raises(EvaluationError):
            evaluate(parse_expression(src), ctx)

    def test_comparable_non_numbers_still_aggregate(self):
        # Homogeneous orderable values keep working on min/max.
        ctx = EvalContext(self_extent=[{"p": "b"}, {"p": "a"}])
        src = "(min (collect x for x in self) over p) = 'a'"
        assert evaluate(parse_expression(src), ctx)


class TestCustomAccessor:
    def test_accessor_hook(self):
        class Wrapped:
            def __init__(self, state):
                self.state = state

        def get_attr(obj, name):
            if isinstance(obj, Wrapped):
                return obj.state[name]
            return obj[name]

        ctx = EvalContext(current=Wrapped({"x": 7}), get_attr=get_attr)
        assert evaluate(parse_expression("x = 7"), ctx)

    def test_custom_function_table(self):
        ctx = EvalContext(current={"x": 4}, functions={"double": lambda v: v * 2})
        assert evaluate(parse_expression("double(x) = 8"), ctx)


def test_member_index_pins_chain_precedence_and_read_order():
    """One pass yields every member's binding chain and reads.  A chain is
    decided by the first event naming the oid: a ``var in Class`` binding
    extends its env by itself, a subject read contributes its env, and an
    oid bound in another event's env takes that env."""
    trace = ReasonTrace()
    outer = (("p", "P1"),)
    trace.record("extent", "Item", "forall i", outer)
    # P1 first appears bound in the env of another event.
    trace.record("binding", "I1", "i in Item", outer)
    # I2 first appears as a subject read under a non-empty env.
    trace.record("attr", "I2", "price", (("i", "I1"),))
    trace.record("member", "I2", "isbn")
    trace.record("attr", "I2", "price", (("i", "I1"),))
    # Later events never override a decided chain ...
    trace.record("binding", "I2", "j in Item", outer)
    trace.record("binding", "I1", "k in Item", ())
    # ... and an envless read or a non-quantifier binding decides nothing.
    trace.record("attr", "I3", "title")
    trace.record("binding", "I3", "key collision on (isbn)")
    trace.record("member", "I3", "")

    chains, reads = trace.member_index()
    assert chains["I1"] == (("p", "P1"), ("i", "I1"))
    assert chains["P1"] == outer
    assert chains["I2"] == (("i", "I1"),)
    assert "I3" not in chains
    assert reads == {"I2": ("price", "isbn"), "I3": ("title",)}
    for oid in ("I1", "I2", "I3", "P1", "absent"):
        assert trace.chain_of(oid) == chains.get(oid, ())
        assert trace.reads_of(oid) == reads.get(oid, ())
