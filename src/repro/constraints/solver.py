"""Satisfiability and entailment for the paper's constraint fragment.

The solver decides the judgements the paper relies on:

* **conflict detection** — "a conflict between local and remote object
  constraints is inconsistent, i.e. ``Omega ⊨ false``" (Section 5.2.1);
* **entailment** — strict similarity requires ``Omega' ⊨ Omega``
  (Section 5.2.1), e.g. ``rating >= 7 ⊨ rating >= 4``;
* **domain extraction** — the derivation engine asks for the set of values a
  formula allows for a property (Section 5.2.1's derivation of global
  constraints through decision functions).

Method: the formula goes to disjunctive normal form; each conjunctive branch
is checked by abstract-domain propagation.  Every *term* (attribute path,
uninterpreted function application, aggregate) gets a
:class:`~repro.domains.valueset.ValueSet` seeded from its declared type;
unary atoms intersect the domains; equality atoms merge terms via union-find;
order atoms between terms feed a difference-bound matrix whose closure
(Floyd–Warshall) both detects cycles like ``x < y and y < x`` and tightens
per-term bounds; disequalities prune singletons.  The loop runs to a fixpoint
because finite-set domains with holes can tighten DBM bounds and vice versa.

Soundness: an UNSAT answer is always correct (every propagation step is a
sound over-approximation, so an empty domain or negative cycle is a real
contradiction).  A SAT answer is correct on the fragment the paper uses
(unary constraints over typed domains, pairwise order atoms, boolean /
membership atoms); pathological combinations of many disequalities over small
finite domains may be reported SAT conservatively.  The property-based test
suite cross-checks the solver against brute-force enumeration on randomly
generated formulas within the fragment.

Memo: :meth:`Solver.is_satisfiable` and :meth:`Solver.domain_of` are the two
primitive judgements (``entails``, ``conflicts``, ``equivalent`` and the
module-level helpers all reduce to them), and each is a pure function of the
formula, the path and the :class:`TypeEnvironment` — the solver reads nothing
else.  One process-wide table therefore remembers every answer under the key
``(judgement, formula, path, environment)``, so a workbench re-run over the
same specification asks the table, not the decision procedure.  Every part of
the key compares by structure *and type*: dataclass equality would make
``Literal(1)``, ``Literal(1.0)`` and ``Literal(True)`` equal (with equal
hashes), yet the solver treats ``True`` as a boolean and ``1`` as a number,
so the formula enters the key as its
:attr:`~repro.constraints.ast.Node.structural_key` (type-tagged, without
``pos``, computed once per node) and the environment by its own type-tagged
key (:meth:`TypeEnvironment.__eq__`).  The table holds
at most ``_MEMO_CAPACITY`` entries and evicts the least recently used.  A
cached :class:`~repro.domains.valueset.ValueSet` is handed to every caller
that asks the same question; that is safe because value sets are never
mutated after construction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

from repro.constraints.ast import (
    BinaryOp,
    Comparison,
    Literal,
    Membership,
    NamedConstant,
    Node,
    Not,
    Path,
    SetLiteral,
    TrueFormula,
    FalseFormula,
    conjoin,
)
from repro.constraints.dbm import DifferenceBounds
from repro.constraints.normalize import negate, to_dnf
from repro.domains.valueset import (
    BOTTOM,
    DiscreteSet,
    NumericSet,
    TopSet,
    ValueSet,
    boolean_set,
    from_values,
)
from repro.domains.interval import IntervalSet
from repro.domains.typed import type_to_valueset
from repro.errors import SolverError
from repro.types.primitives import Type

_MAX_FIXPOINT_ROUNDS = 12


class TypeEnvironment:
    """Typing context for the solver.

    ``attribute_types`` maps *dotted paths* (as they appear in the formulas
    being solved, e.g. ``"rating"`` or ``"O'.publisher.name"``) to TM types;
    ``constants`` binds named schema constants to scalars or collections.
    Unknown paths default to the unconstrained domain.

    An environment is a value: both maps are copied into read-only mappings
    at construction (collection constants become tuples and frozensets), and
    two environments are equal when they bind the same names to the same
    types and to constants of the same type and value — ``{"M": 1}`` and
    ``{"M": True}`` differ, although ``1 == True``.
    """

    __slots__ = ("attribute_types", "constants", "_key", "_hash")

    def __init__(
        self,
        attribute_types: Mapping[str, Type] | None = None,
        constants: Mapping[str, Any] | None = None,
    ):
        self.attribute_types: Mapping[str, Type] = MappingProxyType(dict(attribute_types or {}))
        self.constants: Mapping[str, Any] = MappingProxyType(
            {name: _frozen(value) for name, value in (constants or {}).items()}
        )
        self._key = (
            tuple(sorted((path, repr(tm_type)) for path, tm_type in self.attribute_types.items())),
            tuple(sorted((name, _tagged(value)) for name, value in self.constants.items())),
        )
        self._hash = hash(self._key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeEnvironment):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TypeEnvironment(attribute_types={dict(self.attribute_types)!r}, "
            f"constants={dict(self.constants)!r})"
        )

    def domain_for(self, path: Path) -> ValueSet:
        tm_type = self.attribute_types.get(path.dotted())
        return type_to_valueset(tm_type)

    def constant(self, name: str) -> Any | None:
        return self.constants.get(name)

    def merged_with(self, other: "TypeEnvironment") -> "TypeEnvironment":
        """A new environment with the union of both (``other`` wins ties)."""
        return TypeEnvironment(
            {**self.attribute_types, **other.attribute_types},
            {**self.constants, **other.constants},
        )

    def prefixed(self, root: str) -> "TypeEnvironment":
        """All attribute types re-keyed under a root variable (``O.rating``)."""
        return TypeEnvironment(
            {f"{root}.{key}": value for key, value in self.attribute_types.items()},
            self.constants,
        )


def _frozen(value: Any) -> Any:
    """An immutable copy of a constant's binding (the solver reads a
    collection constant only by iterating it)."""
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, list):
        return tuple(value)
    return value


def _tagged(value: Any) -> str:
    """A form of ``value`` that tells ``1``, ``1.0`` and ``True`` apart and
    does not depend on a set's iteration order."""
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(_tagged(member) for member in value)) + "}"
    return repr(value)


EMPTY_ENVIRONMENT = TypeEnvironment()


def is_satisfiable(formula: Node, env: TypeEnvironment | None = None) -> bool:
    """Whether some typed assignment of the terms satisfies ``formula``."""
    return Solver(env).is_satisfiable(formula)


def entails(premise: Node, conclusion: Node, env: TypeEnvironment | None = None) -> bool:
    """``premise ⊨ conclusion`` under the typing environment."""
    return Solver(env).entails(premise, conclusion)


#: Entries the judgement memo keeps.  A workbench run over the Figure 1
#: specification asks ~160 distinct questions, so this keeps many
#: specifications warm while bounding the table's memory.
_MEMO_CAPACITY = 4096

_memo: OrderedDict[tuple, Any] = OrderedDict()
_memo_lock = threading.Lock()


def _memoised(key: tuple, decide: Callable[[], Any]) -> Any:
    """The remembered answer under ``key``, deciding it on a miss.  Two
    threads missing on one key both decide it; the answers are equal."""
    with _memo_lock:
        if key in _memo:
            _memo.move_to_end(key)
            return _memo[key]
    answer = decide()
    with _memo_lock:
        _memo[key] = answer
        if len(_memo) > _MEMO_CAPACITY:
            _memo.popitem(last=False)
    return answer


def _clear_memo() -> None:
    """Forget every remembered judgement, for tests and benchmarks that
    count or time the decision procedure itself."""
    with _memo_lock:
        _memo.clear()


class Solver:
    """See module docstring.  Stateless apart from the environment."""

    def __init__(self, env: TypeEnvironment | None = None):
        self.env = env or EMPTY_ENVIRONMENT

    # -- public API -----------------------------------------------------------

    def is_satisfiable(self, formula: Node) -> bool:
        return _memoised(
            ("sat", formula.structural_key, None, self.env),
            lambda: any(
                _Branch(self.env, branch).satisfiable() for branch in to_dnf(formula)
            ),
        )

    def is_unsatisfiable(self, formula: Node) -> bool:
        return not self.is_satisfiable(formula)

    def entails(self, premise: Node, conclusion: Node) -> bool:
        """``premise ⊨ conclusion``: no model of premise violates conclusion."""
        return self.is_unsatisfiable(conjoin([premise, negate(conclusion)]))

    def equivalent(self, left: Node, right: Node) -> bool:
        return self.entails(left, right) and self.entails(right, left)

    def conflicts(self, *formulas: Node) -> bool:
        """Whether the conjunction of ``formulas`` is unsatisfiable — the
        paper's *explicit conflict* (``Omega ⊨ false``)."""
        return self.is_unsatisfiable(conjoin(list(formulas)))

    def domain_of(self, formula: Node, path: Path | str) -> ValueSet:
        """The set of values ``path`` may take in models of ``formula``.

        Computed as the union over satisfiable DNF branches of the propagated
        branch domain — a sound over-approximation that is exact on the
        paper's fragment.  This is the primitive underlying global-constraint
        derivation: ``domain_of(trav_reimb ∈ {10,20} ..., trav_reimb)``.
        """
        if isinstance(path, str):
            path = Path(tuple(path.split(".")))
        return _memoised(
            ("domain", formula.structural_key, path.parts, self.env),
            lambda: self._decide_domain(formula, path),
        )

    def _decide_domain(self, formula: Node, path: Path) -> ValueSet:
        result: ValueSet = BOTTOM
        for branch_literals in to_dnf(formula):
            branch = _Branch(self.env, branch_literals)
            if branch.satisfiable():
                result = result.union_with(branch.domain_of(path))
        return result


class _UnionFind:
    """Union-find over AST term nodes (for ``=`` atoms)."""

    def __init__(self) -> None:
        self._parent: dict[Node, Node] = {}

    def find(self, item: Node) -> Node:
        parent = self._parent.get(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Node, b: Node) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


class _Branch:
    """Propagation state for a single conjunctive DNF branch."""

    def __init__(self, env: TypeEnvironment, literals: list[Node]):
        self.env = env
        self.literals = literals
        self.domains: dict[Node, ValueSet] = {}
        self.order_atoms: list[tuple[Node, Node, str]] = []  # (left, right, op)
        self.disequalities: list[tuple[Node, Node]] = []
        self.merged = _UnionFind()
        self.contradiction = False
        self._result: bool | None = None

    # -- domain bookkeeping ---------------------------------------------------

    def _seed(self, term: Node) -> ValueSet:
        if isinstance(term, Path):
            return self.env.domain_for(term)
        return TopSet()

    def _get(self, term: Node) -> ValueSet:
        root = self.merged.find(term)
        if root not in self.domains:
            self.domains[root] = self._seed(term)
        return self.domains[root]

    def _narrow(self, term: Node, values: ValueSet) -> None:
        root = self.merged.find(term)
        current = self._get(term)
        narrowed = current.intersect(values)
        self.domains[root] = narrowed
        if narrowed.is_empty():
            self.contradiction = True

    def domain_of(self, term: Node) -> ValueSet:
        """The propagated domain of ``term`` (call after :meth:`satisfiable`)."""
        self.satisfiable()
        return self._get(term)

    # -- main loop ----------------------------------------------------------------

    def satisfiable(self) -> bool:
        if self._result is None:
            self._result = self._solve()
        return self._result

    def _solve(self) -> bool:
        for literal in self.literals:
            self._assert_literal(literal)
            if self.contradiction:
                return False
        # Union-find merges may have left stale domain entries; rebuild by
        # intersecting every term's entry into its representative.
        self._consolidate_merged_domains()
        if self.contradiction:
            return False
        for _ in range(_MAX_FIXPOINT_ROUNDS):
            changed = self._propagate_order_atoms()
            changed = self._propagate_disequalities() or changed
            if self.contradiction:
                return False
            if not changed:
                break
        return not self.contradiction

    def _consolidate_merged_domains(self) -> None:
        for term in list(self.domains):
            root = self.merged.find(term)
            if root == term:
                continue
            mine = self.domains.pop(term)
            existing = self.domains.get(root, self._seed(root))
            merged = existing.intersect(mine)
            self.domains[root] = merged
            if merged.is_empty():
                self.contradiction = True

    # -- literal assertion -----------------------------------------------------------

    def _assert_literal(self, literal: Node) -> None:
        positive = True
        if isinstance(literal, Not):
            positive = False
            literal = literal.operand
        if isinstance(literal, TrueFormula):
            if not positive:
                self.contradiction = True
            return
        if isinstance(literal, FalseFormula):
            if positive:
                self.contradiction = True
            return
        if isinstance(literal, Comparison):
            if not positive:
                literal = literal.negated()
            self._assert_comparison(literal)
            return
        if isinstance(literal, Membership):
            self._assert_membership(literal, positive)
            return
        # Bare boolean atom (function call, path used as boolean, quantifier,
        # key constraint): give the node itself a boolean pseudo-domain.
        self._narrow(literal, boolean_set(positive))

    def _assert_comparison(self, atom: Comparison) -> None:
        left = _fold(atom.left, self.env)
        right = _fold(atom.right, self.env)
        left_const = _const_value(left)
        right_const = _const_value(right)
        if left_const is not _NOT_CONST and right_const is not _NOT_CONST:
            if not _compare_constants(atom.op, left_const, right_const):
                self.contradiction = True
            return
        if left_const is not _NOT_CONST:
            # const op term  ==  term mirrored-op const
            self._assert_comparison(Comparison(atom.op, left, right).mirrored())
            return
        if right_const is not _NOT_CONST:
            self._assert_term_vs_const(left, atom.op, right_const)
            return
        self._assert_term_vs_term(left, atom.op, right)

    def _assert_term_vs_const(self, term: Node, op: str, value: Any) -> None:
        term = _strip_linear(term, self)
        if isinstance(term, _LinearTerm):
            # (x + c) op v  ==  x op (v - c)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                self.contradiction = True
                return
            self._assert_term_vs_const(term.term, op, value - term.offset)
            return
        self._narrow(term, _valueset_for(op, value))

    def _assert_term_vs_term(self, left: Node, op: str, right: Node) -> None:
        left_linear = _strip_linear(left, self)
        right_linear = _strip_linear(right, self)
        left_term = left_linear.term if isinstance(left_linear, _LinearTerm) else left
        left_off = left_linear.offset if isinstance(left_linear, _LinearTerm) else 0
        right_term = right_linear.term if isinstance(right_linear, _LinearTerm) else right
        right_off = right_linear.offset if isinstance(right_linear, _LinearTerm) else 0

        if op == "=" and left_off == right_off == 0:
            self.merged.union(left_term, right_term)
            return
        if op == "!=" and left_off == right_off == 0:
            self.disequalities.append((left_term, right_term))
            return
        if op in ("<", "<=", ">", ">=", "="):
            self.order_atoms.append(
                (_OffsetTerm(left_term, left_off), _OffsetTerm(right_term, right_off), op)  # type: ignore[arg-type]
            )
            return
        # != with offsets: keep as a (weak) disequality between base terms
        # only when offsets match was handled above; otherwise inert.

    def _assert_membership(self, atom: Membership, positive: bool) -> None:
        element = _fold(atom.element, self.env)
        collection = _fold(atom.collection, self.env)
        values = _collection_values(collection, self.env)
        if values is None:
            # Unresolvable collection (set-valued attribute): opaque boolean.
            self._narrow(atom, boolean_set(positive))
            return
        element_const = _const_value(element)
        if element_const is not _NOT_CONST:
            inside = element_const in values
            if inside != positive:
                self.contradiction = True
            return
        value_set = from_values(values)
        if not positive:
            value_set = value_set.complement()
        self._narrow(element, value_set)

    # -- propagation -------------------------------------------------------------------

    def _propagate_order_atoms(self) -> bool:
        numeric_terms: dict[Node, None] = {}
        for left, right, _ in self.order_atoms:
            numeric_terms.setdefault(self.merged.find(left.term), None)
            numeric_terms.setdefault(self.merged.find(right.term), None)
        for term, domain in self.domains.items():
            if isinstance(domain, NumericSet):
                numeric_terms.setdefault(term, None)
        if not numeric_terms and not self.order_atoms:
            return False

        dbm = DifferenceBounds()
        for left, right, op in self.order_atoms:
            lterm = self.merged.find(left.term)
            rterm = self.merged.find(right.term)
            offset = right.offset - left.offset
            # left.term + left.off  op  right.term + right.off
            if op in ("<", "<="):
                dbm.add_edge(lterm, rterm, _bound(offset, op == "<"))
            elif op in (">", ">="):
                dbm.add_edge(rterm, lterm, _bound(-offset, op == ">"))
            elif op == "=":
                dbm.add_edge(lterm, rterm, _bound(offset, False))
                dbm.add_edge(rterm, lterm, _bound(-offset, False))
        for term in numeric_terms:
            domain = self._get(term)
            if not isinstance(domain, NumericSet):
                if isinstance(domain, TopSet):
                    continue
                # An order atom over a non-numeric domain: inert (sound).
                continue
            low, low_strict = domain.lower_bound()
            high, high_strict = domain.upper_bound()
            if low is not None:
                dbm.add_lower(term, low, low_strict)
            if high is not None:
                dbm.add_upper(term, high, high_strict)
        if not dbm.close():
            self.contradiction = True
            return True
        # x <= y and y <= x force x = y, which a disequality refutes.
        for left, right in self.disequalities:
            if dbm.forces_equal(self.merged.find(left), self.merged.find(right)):
                self.contradiction = True
                return True

        changed = False
        for term in numeric_terms:
            domain = self._get(term)
            if not isinstance(domain, (NumericSet, TopSet)):
                continue
            bounds = IntervalSet.all()
            upper = dbm.upper_bound(term)
            if upper is not None:
                bounds = bounds.intersect(IntervalSet.at_most(upper.value, upper.strict))
            lower = dbm.lower_bound(term)
            if lower is not None:
                bounds = bounds.intersect(IntervalSet.at_least(lower[0], lower[1]))
            refined = NumericSet(bounds)
            narrowed = domain.intersect(refined)
            if narrowed != domain:
                changed = True
                self.domains[self.merged.find(term)] = narrowed
                if narrowed.is_empty():
                    self.contradiction = True
                    return True
        return changed

    def _propagate_disequalities(self) -> bool:
        changed = False
        for left, right in self.disequalities:
            lroot, rroot = self.merged.find(left), self.merged.find(right)
            if lroot == rroot:
                self.contradiction = True
                return True
            ldom, rdom = self._get(lroot), self._get(rroot)
            lvals = ldom.enumerate(limit=1)
            rvals = rdom.enumerate(limit=1)
            if lvals is not None and len(lvals) == 1 and rvals is not None and len(rvals) == 1:
                if lvals[0] == rvals[0]:
                    self.contradiction = True
                    return True
            if lvals is not None and len(lvals) == 1:
                narrowed = rdom.intersect(_point_complement(lvals[0]))
                if narrowed != rdom:
                    self.domains[rroot] = narrowed
                    changed = True
                    if narrowed.is_empty():
                        self.contradiction = True
                        return True
            elif rvals is not None and len(rvals) == 1:
                narrowed = ldom.intersect(_point_complement(rvals[0]))
                if narrowed != ldom:
                    self.domains[lroot] = narrowed
                    changed = True
                    if narrowed.is_empty():
                        self.contradiction = True
                        return True
        return changed


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OffsetTerm:
    term: Node
    offset: float


@dataclass(frozen=True)
class _LinearTerm:
    term: Node
    offset: float


_NOT_CONST = object()


def _const_value(node: Node) -> Any:
    if isinstance(node, Literal):
        return node.value
    return _NOT_CONST


def _fold(node: Node, env: TypeEnvironment) -> Node:
    """Constant-fold literals, named constants and arithmetic on constants."""
    if isinstance(node, NamedConstant):
        value = env.constant(node.name)
        if value is not None and not isinstance(value, (set, frozenset, list, tuple)):
            return Literal(value)
        return node
    if isinstance(node, BinaryOp):
        left = _fold(node.left, env)
        right = _fold(node.right, env)
        if isinstance(left, Literal) and isinstance(right, Literal):
            try:
                return Literal(_ARITH[node.op](left.value, right.value))
            except (TypeError, ZeroDivisionError, KeyError):
                return BinaryOp(node.op, left, right)
        return BinaryOp(node.op, left, right)
    return node


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _strip_linear(node: Node, branch: "_Branch") -> Node | _LinearTerm:
    """Recognise ``term + c`` / ``term - c`` shapes for DBM offsets."""
    if isinstance(node, BinaryOp) and node.op in ("+", "-"):
        left, right = node.left, node.right
        if isinstance(right, Literal) and isinstance(right.value, (int, float)):
            sign = 1 if node.op == "+" else -1
            return _LinearTerm(left, sign * right.value)
        if (
            node.op == "+"
            and isinstance(left, Literal)
            and isinstance(left.value, (int, float))
        ):
            return _LinearTerm(right, left.value)
    return node


def _compare_constants(op: str, left: Any, right: Any) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise SolverError(f"unknown comparison {op!r}")


def _valueset_for(op: str, value: Any) -> ValueSet:
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if is_number:
        if op == "=":
            return NumericSet.points([value])
        if op == "!=":
            return NumericSet.points([value]).complement()
        if op == "<":
            return NumericSet(IntervalSet.at_most(value, strict=True))
        if op == "<=":
            return NumericSet(IntervalSet.at_most(value))
        if op == ">":
            return NumericSet(IntervalSet.at_least(value, strict=True))
        if op == ">=":
            return NumericSet(IntervalSet.at_least(value))
    else:
        if op == "=":
            if isinstance(value, bool):
                return boolean_set(value)
            return DiscreteSet.of(value)
        if op == "!=":
            if isinstance(value, bool):
                return boolean_set(not value)
            return DiscreteSet.of(value).complement()
        # Ordered comparison on non-numeric constants: inert (no refinement).
        return TopSet()
    raise SolverError(f"unknown comparison {op!r}")


def _point_complement(value: Any) -> ValueSet:
    if isinstance(value, bool):
        return boolean_set(not value)
    if isinstance(value, (int, float)):
        return NumericSet.points([value]).complement()
    return DiscreteSet.of(value).complement()


def _collection_values(node: Node, env: TypeEnvironment) -> tuple | None:
    if isinstance(node, SetLiteral):
        return node.values
    if isinstance(node, NamedConstant):
        bound = env.constant(node.name)
        if isinstance(bound, (set, frozenset, list, tuple)):
            return tuple(bound)
    return None


def _bound(value: float, strict: bool):
    from repro.constraints.dbm import Bound

    return Bound(value, strict)
