"""The solver's judgement memo returns what the decision procedure returns.

:meth:`Solver.is_satisfiable` and :meth:`Solver.domain_of` remember their
answers process-wide, keyed on the formula, the path and the typing
environment.  Dataclass equality makes ``Literal(1)``, ``Literal(1.0)`` and
``Literal(True)`` equal, so these tests ask queries that differ only in a
literal's type, a constant's type or one attribute's type, in every order,
and require each warm answer to equal the answer of a cold solver.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solver import _VARS, _formula_sources

from repro.constraints import Solver, TypeEnvironment, parse_expression
from repro.constraints import solver as solver_module
from repro.constraints.solver import _MEMO_CAPACITY, _clear_memo
from repro.errors import SolverError
from repro.types import BOOL, INT, REAL, RangeType

_CONSTANTS = ("M", "S")


def _floats(source: str) -> str:
    return re.sub(r"\b(\d+)\b", r"\1.0", source)


def _booleans(source: str) -> str:
    return re.sub(r"\b1\b", "true", re.sub(r"\b0\b", "false", source))


_LITERAL_TYPES = (lambda source: source, _floats, _booleans)

_RANGE = RangeType(0, 3)
_ENVIRONMENTS = (
    TypeEnvironment({"x": _RANGE, "y": _RANGE}, {"M": 1, "S": {1, 2}}),
    TypeEnvironment({"x": _RANGE, "y": _RANGE}, {"M": 1.0, "S": {1.0, 2}}),
    TypeEnvironment({"x": _RANGE, "y": _RANGE}, {"M": True, "S": {True, 2}}),
    TypeEnvironment({"x": INT, "y": _RANGE}, {"M": 1, "S": {1, 2}}),
    TypeEnvironment({"x": REAL, "y": _RANGE}, {"M": 1, "S": {1, 2}}),
    TypeEnvironment({"x": BOOL, "y": _RANGE}, {"M": 1, "S": {1, 2}}),
)

_constant_atoms = st.one_of(
    st.builds(
        lambda var, op: f"{var} {op} M",
        st.sampled_from(_VARS),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    ),
    st.builds(lambda var: f"{var} in S", st.sampled_from(_VARS)),
)


@st.composite
def _queries(draw):
    """A brute-force-checked formula, maybe joined to an atom over a named
    constant, asked in every literal type under every environment, in a
    drawn order."""
    source = draw(_formula_sources(3))
    if draw(st.booleans()):
        connective = draw(st.sampled_from(["and", "or", "implies"]))
        source = f"({source}) {connective} ({draw(_constant_atoms)})"
    queries = [
        (parse_expression(retype(source), _CONSTANTS), env)
        for retype in _LITERAL_TYPES
        for env in _ENVIRONMENTS
    ]
    return draw(st.permutations(queries))


def _outcome(judge):
    """What ``judge()`` returns, or the error it raises (a type clash, such
    as a boolean literal against a range-typed path, is an answer too)."""
    try:
        return judge()
    except SolverError as exc:
        return ("raises", str(exc))


def _answers(formula, env):
    solver = Solver(env)
    return [_outcome(lambda: solver.is_satisfiable(formula))] + [
        _outcome(lambda: (type(domain := solver.domain_of(formula, var)), domain.describe()))
        for var in _VARS
    ]


def _cold(formula, env):
    _clear_memo()
    return _answers(formula, env)


@settings(max_examples=150, deadline=None)
@given(_queries())
def test_warm_answers_equal_cold_answers(queries):
    _clear_memo()
    warm = [_answers(formula, env) for formula, env in queries]
    again = [_answers(formula, env) for formula, env in queries]
    cold = [_cold(formula, env) for formula, env in queries]
    assert warm == cold
    assert again == cold


@pytest.mark.parametrize(
    "sources",
    [
        ("x = 1", "x = 1.0", "x = true"),
        ("x in {1}", "x in {1.0}", "x in {true}"),
        ("x = 1 and y != 0", "x = true and y != false"),
    ],
)
def test_literals_equal_as_dataclasses_are_separate_questions(sources):
    formulas = [parse_expression(source) for source in sources]
    assert all(formula == formulas[0] for formula in formulas)
    cold = [_cold(formula, TypeEnvironment()) for formula in formulas]
    _clear_memo()
    assert [_answers(formula, TypeEnvironment()) for formula in formulas] == cold
    assert cold[0] != cold[-1]


def test_constants_equal_as_values_are_separate_environments():
    formula = parse_expression("x >= M", _CONSTANTS)
    one, true = TypeEnvironment({}, {"M": 1}), TypeEnvironment({}, {"M": True})
    assert one != true
    cold = [_cold(formula, env) for env in (one, true)]
    _clear_memo()
    assert [_answers(formula, env) for env in (one, true)] == cold
    assert cold[0] != cold[1]


def test_an_environment_is_a_value():
    env = TypeEnvironment({"x": INT}, {"S": {"a", "b"}, "L": [1, 2]})
    with pytest.raises(TypeError):
        env.attribute_types["y"] = INT  # type: ignore[index]
    with pytest.raises(TypeError):
        env.constants["M"] = 1  # type: ignore[index]
    assert env.constants["S"] == frozenset({"a", "b"})
    same = TypeEnvironment({"x": INT}, {"L": [1, 2], "S": {"b", "a"}})
    assert env == same and hash(env) == hash(same)
    assert env != TypeEnvironment({"x": REAL}, {"S": {"a", "b"}, "L": [1, 2]})
    assert env.merged_with(TypeEnvironment()) == env
    assert env.prefixed("O").prefixed("P") == TypeEnvironment(
        {"P.O.x": INT}, env.constants
    )


def test_the_table_stays_at_capacity():
    _clear_memo()
    solver = Solver(TypeEnvironment({"x": INT}))
    first = parse_expression("x = 0")
    solver.is_satisfiable(first)
    for value in range(1, _MEMO_CAPACITY + 50):
        solver.is_satisfiable(parse_expression(f"x = {value}"))
        if value % 1000 == 0:
            solver.is_satisfiable(first)  # recently used: kept
    assert len(solver_module._memo) == _MEMO_CAPACITY
    keys = {key[1] for key in solver_module._memo}
    assert first.structural_key in keys
    assert parse_expression("x = 1").structural_key not in keys
    assert parse_expression(f"x = {_MEMO_CAPACITY + 49}").structural_key in keys


def test_the_structural_key_tells_literal_types_apart_and_ignores_positions():
    keys = [
        parse_expression(source).structural_key
        for source in ("x = 1", "x = 1.0", "x = true", "x in {1}", "x in {1.0}", "x in {true}")
    ]
    assert len(set(keys)) == len(keys)
    assert parse_expression("x = 1").structural_key == parse_expression("  x  =  1").structural_key
    formula = parse_expression("a = 1 and not b in {2}")
    assert formula.structural_key is formula.structural_key  # computed once
