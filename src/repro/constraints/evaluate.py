"""Evaluation of constraint formulas against object states.

An *object state* is any mapping from attribute names to values (the engine
stores states as dicts).  Evaluation is parameterised by an
:class:`EvalContext` carrying:

* ``current`` — the object an object constraint is being checked on (paths
  without an explicit root resolve against it);
* ``bindings`` — named variables in scope (``O``, ``O'``, quantifier vars);
* ``extents`` — class name → iterable of object states, for quantifiers,
  aggregates over named classes and key constraints;
* ``self_extent`` — the extent behind ``self`` in class constraints;
* ``constants`` — named schema constants (``MAX`` → number,
  ``KNOWNPUBLISHERS`` → set of strings);
* ``get_attr`` — attribute accessor hook; the engine substitutes one that
  dereferences object identifiers through the store so that paths like
  ``publisher.name`` traverse references.

Aggregates over an empty extent: ``sum`` is 0 and ``count`` is 0; ``avg`` /
``min`` / ``max`` are *vacuous* — a comparison against a vacuous value is
satisfied.  (TM leaves this case open; vacuous truth matches how the paper
treats constraints on empty classes.)  Vacuous truth is a *tri-state*: a
comparison (or membership test) on a vacuous value returns the
:data:`VACUOUS` sentinel itself — truthy, so it satisfies at formula roots —
and the connectives propagate it (``not`` of a vacuous truth stays vacuous,
conjunction/disjunction/implication absorb it unless a strict operand
decides).  This keeps logically equivalent phrasings in agreement:
``not (avg ... > 5)`` and ``avg ... <= 5`` are both satisfied on an empty
extent, where naive boolean negation would make them disagree.

Evaluation is *compiled*: :func:`compile_node` lowers an AST once into a tree
of Python closures (``EvalContext -> value``), and :func:`evaluate` dispatches
through a cache keyed by the (hashable, frozen) AST node.  Constraints are
checked against every mutation, so the same formula is evaluated thousands of
times per store lifetime; paying the ``isinstance`` dispatch and operator
lookup once per formula instead of once per check is the difference between
an interpretive and a compiled enforcement hot path.

When the context carries an index probe (``ctx.indexes``, supplied by the
engine's :class:`~repro.engine.indexes.IndexManager`), aggregate, key and
*referential quantifier* nodes first ask it for a materialized answer — a
running sum/count/min/max, a key-uniqueness verdict, or a reference-count
verdict (``forall p in Publisher exists i in Item | i.publisher = p``
reduces to one maintained counter comparison) — and only fall back to the
extent scan on :data:`INDEX_MISS`.  The probe answers in O(1) regardless of
extent size, which is what makes aggregate-, key- and referential-constraint
commits constant-time in store size.

Reason tracing: when ``ctx.trace`` is a :class:`ReasonTrace`, every closure
records the reads that determined its verdict — attribute reads (with the
owning object), constant reads, index probes, extent scans, quantifier
bindings — as :class:`TraceEvent` rows.  Quantifiers record *decisive*
iterations only: an ``exists`` that succeeds keeps just the witness, a
``forall`` that fails keeps just the falsifying binding, while a quantifier
that had to exhaust its extent keeps every iteration (the whole extent
supports the verdict).  Tracing is opt-in and adds exactly one ``is None``
test per closure to the untraced path; verdicts are bit-identical with and
without a trace (the property suite in ``tests/engine/test_explain.py``
holds us to that).  :meth:`ReasonTrace.support` projects the events down to
the set of object identifiers the verdict depended on — the seed for
deletion-based conflict-core extraction (``repro.engine.explain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.constraints.ast import (
    Aggregate,
    And,
    BinaryOp,
    Comparison,
    FalseFormula,
    FunctionCall,
    Implies,
    KeyConstraint,
    Literal,
    Membership,
    NamedConstant,
    Node,
    Not,
    Or,
    Path,
    Quantified,
    SetLiteral,
    TrueFormula,
    match_referential_body,
    match_referential_quantifier,
)
from repro.errors import EvaluationError


class _Vacuous:
    """Result of an aggregate over an empty extent; satisfies any comparison.

    Doubles as the *vacuous truth* of the tri-state logic: comparisons on a
    vacuous value return the sentinel itself, connectives propagate it, and
    at a formula root its truthiness (``True``) counts as satisfied.
    """

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<vacuous>"


VACUOUS = _Vacuous()

#: Sentinel returned by an index probe that cannot answer a query (no index
#: materialized for the class/attribute, or the index was invalidated);
#: evaluation then falls back to the extent scan.
INDEX_MISS = object()


@dataclass(frozen=True)
class TraceEvent:
    """One read recorded during a traced evaluation.

    ``kind`` is one of:

    * ``"attr"`` — an attribute read; ``subject`` is the owning object's oid
      (or its repr for plain states), ``detail`` the attribute name;
    * ``"constant"`` — a named-constant read; ``subject`` is the name,
      ``detail`` the value's repr;
    * ``"probe"`` — an index probe answered the node; ``subject`` describes
      the probe, ``detail`` the answer;
    * ``"extent"`` — a quantifier/aggregate/key scanned a class extent;
      ``subject`` is the class name, ``detail`` what for;
    * ``"binding"`` — a quantifier bound ``var`` to an object; ``subject``
      is the object's oid, ``detail`` the binding description;
    * ``"member"`` — an aggregate or key scan visited an extent member;
      ``subject`` is its oid, ``detail`` the attribute(s) read from it;
    * ``"error"`` — evaluation failed; ``subject`` is the message.

    ``env`` snapshots the quantifier bindings in scope when the event was
    recorded, as ``((var, oid), ...)`` — the binding chain explanations and
    the CLI print for each conflict-core member.
    """

    kind: str
    subject: str
    detail: str = ""
    env: tuple = ()

    def describe(self) -> str:
        text = f"{self.kind} {self.subject}"
        if self.detail:
            text += f" [{self.detail}]"
        if self.env:
            chain = ", ".join(f"{var}={oid}" for var, oid in self.env)
            text += f" via {chain}"
        return text


class ReasonTrace:
    """The reason graph of one evaluation: an ordered list of
    :class:`TraceEvent` rows, append-only during evaluation.

    Quantifier closures truncate their own event ranges to keep only
    decisive iterations (see the module docstring), which is why the trace
    exposes its raw ``events`` list rather than an opaque recorder.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(
        self, kind: str, subject: str, detail: str = "", env: tuple = ()
    ) -> None:
        self.events.append(TraceEvent(kind, subject, detail, env))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReasonTrace of {len(self.events)} events>"

    def support(self) -> tuple[str, ...]:
        """Subjects of every object whose state or membership determined
        the verdict, in first-read order (the seed set for core
        extraction).  Objects traced outside a store contribute their repr;
        core extraction intersects with the store's object table, so those
        drop out where masking is meaningless.
        """
        seen: dict[str, None] = {}
        for event in self.events:
            if event.kind in ("attr", "binding", "member"):
                seen.setdefault(event.subject, None)
            for _var, oid in event.env:
                if isinstance(oid, str):
                    seen.setdefault(oid, None)
        return tuple(seen)

    def constants_read(self) -> tuple[str, ...]:
        """Names of every schema constant the verdict depended on."""
        return tuple(
            dict.fromkeys(
                event.subject for event in self.events if event.kind == "constant"
            )
        )

    def member_index(self) -> tuple[dict[str, tuple], dict[str, tuple]]:
        """``(chains, reads)`` for every subject, built in one pass over the
        events: ``chains[oid]`` is :meth:`chain_of` and ``reads[oid]`` is
        :meth:`reads_of` (subjects without one are absent).  Explaining a
        core of k members through it costs one pass, not k.
        """
        chains: dict[str, tuple] = {}
        names: dict[str, dict[str, None]] = {}
        for event in self.events:
            subject, env = event.subject, event.env
            if subject not in chains:
                # The earliest event that can give an oid a chain decides
                # it: a quantifier binding extends its env by the binding
                # itself; an event naming the oid as subject, or binding it
                # in its env (below), contributes that env.
                if event.kind == "binding" and " in " in event.detail:
                    chains[subject] = env + ((_binding_var(event.detail), subject),)
                elif env:
                    chains[subject] = env
            for _var, bound in env:
                chains.setdefault(bound, env)
            if event.kind in ("attr", "member") and event.detail:
                names.setdefault(subject, {}).setdefault(event.detail, None)
        return chains, {oid: tuple(read) for oid, read in names.items()}

    def reads_of(self, oid: str) -> tuple[str, ...]:
        """Attribute names read from ``oid`` during the evaluation, in
        first-read order."""
        return self.member_index()[1].get(oid, ())

    def chain_of(self, oid: str) -> tuple:
        """The first binding chain that put ``oid`` in scope —
        ``((var, oid), ...)`` ending at the binding that introduced it.
        Only quantifier bindings (``var in Class`` details) extend the
        chain; other events contribute the bindings they were read under.
        """
        return self.member_index()[0].get(oid, ())

    def describe(self) -> str:
        return "\n".join(event.describe() for event in self.events)


def _binding_var(detail: str) -> str:
    # binding details are "var in Class" (or "key collision with …")
    return detail.split(" ", 1)[0] if detail else "?"


def _subject_of(obj: Any) -> str:
    """Trace subject for an object: its oid when it has one (store objects,
    snapshot objects), otherwise a repr (plain dict states)."""
    oid = getattr(obj, "oid", None)
    if isinstance(oid, str):
        return oid
    text = repr(obj)
    return text if len(text) <= 80 else text[:77] + "..."


def _trace_env(ctx: "EvalContext") -> tuple:
    """Snapshot of the quantifier bindings in scope, as ((var, oid), ...).
    Only called on traced paths, so the untraced hot path never pays for it.
    """
    return tuple((var, _subject_of(obj)) for var, obj in ctx.bindings.items())


def _default_get_attr(obj: Any, name: str) -> Any:
    if isinstance(obj, Mapping):
        if name in obj:
            return obj[name]
        raise EvaluationError(f"object state has no attribute {name!r}: {obj!r}")
    if hasattr(obj, name):
        return getattr(obj, name)
    raise EvaluationError(f"cannot read attribute {name!r} from {obj!r}")


#: Built-in functions available in rule conditions and constraints.
BUILTIN_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "contains": lambda haystack, needle: needle in haystack,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "abs": abs,
    "length": len,
    "startswith": lambda s, prefix: s.startswith(prefix),
}


@dataclass
class EvalContext:
    """Everything a formula needs to evaluate; see module docstring."""

    current: Any = None
    bindings: dict[str, Any] = field(default_factory=dict)
    extents: Mapping[str, Iterable[Any]] = field(default_factory=dict)
    self_extent: Iterable[Any] = ()
    constants: Mapping[str, Any] = field(default_factory=dict)
    get_attr: Callable[[Any, str], Any] = _default_get_attr
    functions: Mapping[str, Callable[..., Any]] = field(default_factory=dict)
    #: The class whose deep extent backs ``self`` in class constraints;
    #: lets aggregate/key evaluation consult ``indexes`` instead of scanning.
    self_extent_class: str | None = None
    #: Optional index probe (duck-typed; the engine passes
    #: :class:`repro.engine.indexes.IndexManager`).  Must provide
    #: ``aggregate_value(func, class_name, over) -> value | INDEX_MISS``,
    #: ``key_unique(class_name, attributes) -> bool | None``,
    #: ``reference_count(referrer_class, attribute, oid) -> int | INDEX_MISS``
    #: and ``referential_verdict(mode, referenced_class, referrer_class,
    #: attribute) -> bool | INDEX_MISS``.  ``None`` disables the fast path:
    #: every aggregate, key and referential check scans extents.
    indexes: Any = None
    #: Optional :class:`ReasonTrace` collecting the reads that determine the
    #: verdict.  ``None`` (the default) disables tracing; the only cost left
    #: on the untraced path is one ``is None`` test per instrumented closure.
    trace: Any = None

    def child(self, **overrides: Any) -> "EvalContext":
        """A copy with some fields replaced (used by quantifier binding)."""
        data = {
            "current": self.current,
            "bindings": dict(self.bindings),
            "extents": self.extents,
            "self_extent": self.self_extent,
            "constants": self.constants,
            "get_attr": self.get_attr,
            "functions": self.functions,
            "self_extent_class": self.self_extent_class,
            "indexes": self.indexes,
            "trace": self.trace,
        }
        data.update(overrides)
        return EvalContext(**data)

    def function(self, name: str) -> Callable[..., Any]:
        if name in self.functions:
            return self.functions[name]
        if name in BUILTIN_FUNCTIONS:
            return BUILTIN_FUNCTIONS[name]
        raise EvaluationError(f"unknown function {name!r}")

    def extent_of(self, class_name: str) -> Iterable[Any]:
        if class_name not in self.extents:
            raise EvaluationError(f"no extent known for class {class_name!r}")
        return self.extents[class_name]


#: Compiled form of a node: a closure from evaluation context to value.
CompiledNode = Callable[[EvalContext], Any]

#: node → compiled closure.  AST nodes are frozen dataclasses, so structurally
#: equal formulas share one compilation.  Unhashable nodes (a Literal holding
#: a mutable value) are compiled without caching.  The cache is bounded: a
#: long-lived process compiling formulas from many schemas (the workbench as
#: a service, a large test session) would otherwise grow without limit, so
#: once the bound is hit the cache is dropped wholesale — recompilation is
#: cheap and the live constraints repopulate it on their next check.
_COMPILED: dict[Node, CompiledNode] = {}
_COMPILED_LIMIT = 4096


def compiled(node: Node) -> CompiledNode:
    """The compiled closure for ``node``, lowered once and cached."""
    try:
        closure = _COMPILED.get(node)
    except TypeError:  # unhashable literal somewhere in the tree
        return compile_node(node)
    if closure is None:
        closure = compile_node(node)
        if len(_COMPILED) >= _COMPILED_LIMIT:
            _COMPILED.clear()
        _COMPILED[node] = closure
    return closure


def evaluate(node: Node, ctx: EvalContext) -> Any:
    """Evaluate a formula (→ bool) or expression (→ value) in ``ctx``."""
    return compiled(node)(ctx)


def evaluate_traced(
    node: Node, ctx: EvalContext, trace: ReasonTrace | None = None
) -> tuple[Any, ReasonTrace]:
    """Evaluate with reason tracing; returns ``(verdict, trace)``.

    Same compiled closures, same verdict as :func:`evaluate` — bit-identical
    by the property suite.  Pass ``trace`` explicitly to keep access to the
    partial event list when evaluation raises (the events recorded up to the
    failure stay on it); the :class:`EvaluationError` itself carries the
    quantifier ``bindings`` that were in scope.
    """
    if trace is None:
        trace = ReasonTrace()
    return compiled(node)(ctx.child(trace=trace)), trace


def compile_node(node: Node) -> CompiledNode:
    """Lower ``node`` to a closure over :class:`EvalContext`.

    The closure tree mirrors the AST; all per-node dispatch (isinstance
    checks, operator table lookups, tuple rebuilding) happens here, once,
    instead of on every evaluation.  Semantics are identical to the former
    tree interpreter, including vacuous-value propagation and the errors
    raised.
    """
    if isinstance(node, Literal):
        value = node.value
        return lambda ctx: value
    if isinstance(node, SetLiteral):
        values = frozenset(node.values)
        return lambda ctx: values
    if isinstance(node, NamedConstant):
        name = node.name
        def run_constant(ctx: EvalContext) -> Any:
            if name not in ctx.constants:
                raise EvaluationError(
                    f"unknown named constant {name!r}", bindings=_trace_env(ctx)
                )
            value = ctx.constants[name]
            if ctx.trace is not None:
                ctx.trace.record("constant", name, repr(value), _trace_env(ctx))
            return value
        return run_constant
    if isinstance(node, Path):
        return _compile_path(node)
    if isinstance(node, BinaryOp):
        return _compile_arith(node)
    if isinstance(node, FunctionCall):
        fn_name = node.name
        arg_closures = tuple(compiled(arg) for arg in node.args)
        def run_call(ctx: EvalContext) -> Any:
            return ctx.function(fn_name)(*[arg(ctx) for arg in arg_closures])
        return run_call
    if isinstance(node, Aggregate):
        return _compile_aggregate(node)
    if isinstance(node, Comparison):
        return _compile_comparison(node)
    if isinstance(node, Membership):
        element = compiled(node.element)
        collection = compiled(node.collection)
        def run_membership(ctx: EvalContext) -> Any:
            value = element(ctx)
            members = collection(ctx)
            if isinstance(value, _Vacuous):
                return VACUOUS
            try:
                return value in members
            except TypeError as exc:
                raise EvaluationError(
                    f"cannot test membership in {members!r}",
                    bindings=_trace_env(ctx),
                ) from exc
        return run_membership
    if isinstance(node, Not):
        operand = compiled(node.operand)

        def run_not(ctx: EvalContext) -> Any:
            value = operand(ctx)
            if isinstance(value, _Vacuous):
                return value  # ¬(vacuous) imposes nothing either
            return not value

        return run_not
    if isinstance(node, And):
        parts = tuple(compiled(part) for part in node.parts)

        def run_and(ctx: EvalContext) -> Any:
            saw_vacuous = False
            for part in parts:
                value = part(ctx)
                if isinstance(value, _Vacuous):
                    saw_vacuous = True
                elif not value:
                    return False
            return VACUOUS if saw_vacuous else True

        return run_and
    if isinstance(node, Or):
        parts = tuple(compiled(part) for part in node.parts)

        def run_or(ctx: EvalContext) -> Any:
            # A vacuous disjunct must not short-circuit: its De Morgan dual
            # (a conjunction of negations) evaluates every part too.
            saw_vacuous = False
            for part in parts:
                value = part(ctx)
                if isinstance(value, _Vacuous):
                    saw_vacuous = True
                elif value:
                    return True
            return VACUOUS if saw_vacuous else False

        return run_or
    if isinstance(node, Implies):
        antecedent = compiled(node.antecedent)
        consequent = compiled(node.consequent)

        def run_implies(ctx: EvalContext) -> Any:
            condition = antecedent(ctx)
            if isinstance(condition, _Vacuous):
                conclusion = consequent(ctx)
                if not isinstance(conclusion, _Vacuous) and conclusion:
                    return True
                return VACUOUS
            if not condition:
                return True
            return consequent(ctx)

        return run_implies
    if isinstance(node, Quantified):
        return _compile_quantified(node)
    if isinstance(node, KeyConstraint):
        return _compile_key(node)
    if isinstance(node, TrueFormula):
        return lambda ctx: True
    if isinstance(node, FalseFormula):
        return lambda ctx: False
    raise EvaluationError(f"cannot evaluate node of type {type(node).__name__}")


def _compile_path(path: Path) -> CompiledNode:
    parts = path.parts
    head, tail = parts[0], parts[1:]
    dotted = path.dotted()

    def run_path(ctx: EvalContext) -> Any:
        if head in ctx.bindings:
            obj = ctx.bindings[head]
            rest = tail
        else:
            if ctx.current is None:
                raise EvaluationError(
                    f"path {dotted!r} has no root: no current object bound",
                    bindings=_trace_env(ctx),
                )
            obj = ctx.current
            rest = parts
        get_attr = ctx.get_attr
        trace = ctx.trace
        if trace is None:
            for name in rest:
                obj = get_attr(obj, name)
            return obj
        env = _trace_env(ctx)
        for name in rest:
            # Recorded before the read so a failing dereference still shows
            # which object's attribute was being followed.
            trace.record("attr", _subject_of(obj), name, env)
            obj = get_attr(obj, name)
        return obj

    return run_path


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _compile_arith(node: BinaryOp) -> CompiledNode:
    if node.op not in _ARITHMETIC:
        raise EvaluationError(f"unknown arithmetic operator {node.op!r}")
    op_name = node.op
    operator = _ARITHMETIC[op_name]
    left = compiled(node.left)
    right = compiled(node.right)

    def run_arith(ctx: EvalContext) -> Any:
        a = left(ctx)
        b = right(ctx)
        if isinstance(a, _Vacuous) or isinstance(b, _Vacuous):
            return VACUOUS
        try:
            return operator(a, b)
        except TypeError as exc:
            raise EvaluationError(
                f"arithmetic {op_name!r} failed on {a!r} and {b!r}",
                bindings=_trace_env(ctx),
            ) from exc

    return run_arith


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compile_comparison(node: Comparison) -> CompiledNode:
    comparator = _COMPARATORS[node.op]
    op_name = node.op
    left = compiled(node.left)
    right = compiled(node.right)

    def run_comparison(ctx: EvalContext) -> Any:
        a = left(ctx)
        b = right(ctx)
        if isinstance(a, _Vacuous) or isinstance(b, _Vacuous):
            return VACUOUS
        try:
            return comparator(a, b)
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {a!r} {op_name} {b!r}",
                bindings=_trace_env(ctx),
            ) from exc

    return run_comparison


#: Every finite float is an integer multiple of ``2**-1074``, so float sums
#: scaled by ``2**1074`` are exact integer sums.
_SCALE_BITS = 1074


def scaled_float(value: float) -> int:
    """``value * 2**1074`` exactly, for a finite float."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (_SCALE_BITS + 1 - denominator.bit_length())


def exact_aggregate(func: str, count: int, ints: int, scaled: int, floats: int) -> Any:
    """``count``/``sum``/``avg`` of ``count`` values from their exact
    partials: the ints among them sum to ``ints``, the ``floats`` finite
    floats to ``scaled / 2**1074``.  A sum with no float is that int;
    otherwise the value is the correctly rounded float of the exact sum (or
    mean), ±inf beyond float range.  Partials add, so the value is the
    same whatever the order or grouping of the values — the extent scan,
    maintained aggregates and merged shard partials agree by construction.
    ``avg`` of nothing is ``VACUOUS``."""
    if func == "count":
        return count
    if func == "sum" and not floats:
        return ints
    if count == 0:
        return VACUOUS
    numerator = (ints << _SCALE_BITS) + scaled
    try:
        return numerator / ((count if func == "avg" else 1) << _SCALE_BITS)
    except OverflowError:  # the exact value is past float range
        return math.inf if numerator > 0 else -math.inf


def fold_aggregate(func: str, values: list) -> Any:
    """``func`` over ``values`` — the one definition of an aggregate's
    value, shared by the extent scan and index probes that must agree with
    it: ``sum``/``avg`` per :func:`exact_aggregate`, except that a
    non-finite float makes them the sum of the non-finite values (inf,
    -inf or nan, whatever the order).  ``sum`` of nothing is ``0``,
    ``avg``/``min``/``max`` of nothing are ``VACUOUS``; operand trouble
    raises ``TypeError`` for the caller to translate."""
    if func == "count":
        return len(values)
    if func not in ("sum", "avg"):
        if not values:
            return VACUOUS
        return min(values) if func == "min" else max(values)
    try:
        total = sum(values)
    except OverflowError:  # an int past float range beside a float
        return _fold_exactly(func, values)
    if type(total) is int:
        return exact_aggregate(func, len(values), total, 0, 0)
    if all(type(value) is float for value in values):
        return fold_floats(func, values)
    return _fold_exactly(func, values)


def fold_floats(func: str, floats: list) -> Any:
    """:func:`fold_aggregate`'s ``sum``/``avg`` of a list of floats, for
    callers that know every value is a float."""
    if func == "sum" and floats:
        try:
            # The correctly rounded exact sum of finite floats at C speed;
            # ``or 0.0`` gives an exact zero the sign int division gives it.
            return math.fsum(floats) or 0.0
        except (OverflowError, ValueError):  # past float range, or inf - inf
            pass
    return _fold_exactly(func, floats)


def _fold_exactly(func: str, values: list) -> Any:
    """``sum``/``avg`` by :func:`exact_aggregate`'s partials, one value at
    a time: any mix of ints and floats, at Python speed."""
    ints = scaled = floats = 0
    nonfinite = []
    for value in values:
        if isinstance(value, int):
            ints += value
        elif not isinstance(value, float):
            raise TypeError(f"cannot {func} a {type(value).__name__}")
        elif math.isfinite(value):
            scaled += scaled_float(value)
            floats += 1
        else:
            nonfinite.append(value)
    if nonfinite:
        return sum(nonfinite)
    return exact_aggregate(func, len(values), ints, scaled, floats)


def _compile_aggregate(node: Aggregate) -> CompiledNode:
    func, collection, over = node.func, node.collection, node.over
    if func not in ("sum", "avg", "min", "max", "count"):
        raise EvaluationError(f"unknown aggregate {func!r}")

    def run_aggregate(ctx: EvalContext) -> Any:
        trace = ctx.trace
        if ctx.indexes is not None:
            base = ctx.self_extent_class if collection == "self" else collection
            if base is not None:
                value = ctx.indexes.aggregate_value(func, base, over)
                if value is not INDEX_MISS:
                    if trace is not None:
                        trace.record(
                            "probe",
                            f"{func}({base}.{over})" if over else f"{func}({base})",
                            repr(value),
                            _trace_env(ctx),
                        )
                    return value
        if collection == "self":
            extent = list(ctx.self_extent)
            base_name = ctx.self_extent_class or "self"
        else:
            extent = list(ctx.extent_of(collection))
            base_name = collection
        if trace is not None:
            # The whole extent supports an aggregate verdict — including the
            # empty extent (a vacuous verdict still gets a non-empty trace).
            env = _trace_env(ctx)
            trace.record(
                "extent",
                base_name,
                f"{func} over {over}" if over else func,
                env,
            )
            for obj in extent:
                trace.record("member", _subject_of(obj), over or "", env)
        if func == "count" and over is None:
            return len(extent)
        get_attr = ctx.get_attr
        values = [get_attr(obj, over) for obj in extent]
        try:
            return fold_aggregate(func, values)
        except TypeError as exc:
            # Same error contract as comparisons/arithmetic: operand trouble
            # surfaces as EvaluationError, never a raw TypeError — mirroring
            # the index path, which degrades to INDEX_MISS on such values.
            raise EvaluationError(
                f"cannot aggregate {func!r} over {over!r}: "
                f"non-numeric or mixed-type operands",
                bindings=_trace_env(ctx),
            ) from exc

    return run_aggregate


def _compile_quantified(node: Quantified) -> CompiledNode:
    if node.kind not in ("forall", "exists"):
        raise EvaluationError(f"unknown quantifier {node.kind!r}")
    body = compiled(node.body)
    var, class_name = node.var, node.class_name
    is_forall = node.kind == "forall"

    # Referential fast paths.  ``outer`` matches whole-formula shapes
    # (``forall x in C exists y in D | y.a = x`` and the negated/existential
    # variants) answered by one O(1) verdict probe; ``inner`` matches the
    # bare existential (``exists y in D | y.a = <expr>``) answered by an O(1)
    # referrer-count lookup on the expression's identity.  Both degrade to
    # the extent scan on INDEX_MISS, exactly like aggregates and keys.
    outer = match_referential_quantifier(node)
    inner = match_referential_body(node.body, var) if not is_forall else None
    inner_attr = inner[0] if inner is not None else None
    inner_other = compiled(inner[1]) if inner is not None else None

    def run_quantified(ctx: EvalContext) -> Any:
        indexes = ctx.indexes
        trace = ctx.trace
        if indexes is not None:
            if outer is not None:
                verdict = indexes.referential_verdict(*outer)
                if verdict is not INDEX_MISS:
                    if trace is not None:
                        mode, referenced, referrer, attr = outer
                        trace.record(
                            "probe",
                            f"referential {mode}: {referrer}.{attr} -> {referenced}",
                            repr(verdict),
                            _trace_env(ctx),
                        )
                    return verdict
            if inner_other is not None:
                try:
                    target = inner_other(ctx)
                except Exception:
                    target = None  # scan fallback re-raises (or not), as before
                oid = getattr(target, "oid", None)
                if isinstance(oid, str):
                    count = indexes.reference_count(class_name, inner_attr, oid)
                    if count is not INDEX_MISS:
                        if trace is not None:
                            trace.record(
                                "probe",
                                f"refcount {class_name}.{inner_attr} = {oid}",
                                repr(count),
                                _trace_env(ctx),
                            )
                        return count > 0
        extent = ctx.extent_of(class_name)
        bindings = ctx.bindings
        saw_vacuous = False
        if trace is None:
            if is_forall:
                for obj in extent:
                    value = body(ctx.child(bindings={**bindings, var: obj}))
                    if isinstance(value, _Vacuous):
                        saw_vacuous = True
                    elif not value:
                        return False
                return VACUOUS if saw_vacuous else True
            for obj in extent:
                value = body(ctx.child(bindings={**bindings, var: obj}))
                if isinstance(value, _Vacuous):
                    saw_vacuous = True
                elif value:
                    return True
            return VACUOUS if saw_vacuous else False
        # Traced scan.  Bodies run *untraced* first — identical closures,
        # identical verdicts — and only the decisive iteration (forall's
        # falsifier, exists' witness, or the iteration that raises) is
        # re-evaluated with tracing to capture its reason events.  An
        # exhausted loop (forall→True/VACUOUS, exists→False/VACUOUS) keeps
        # just the extent event: "every member was scanned" *is* the
        # reason, and per-member events would make detection traces — and
        # the conflict-core seed supports derived from them — O(extent).
        env = _trace_env(ctx)
        trace.record("extent", class_name, f"{node.kind} {var}", env)

        def retrace(obj: Any) -> Any:
            trace.record(
                "binding", _subject_of(obj), f"{var} in {class_name}", env
            )
            return body(ctx.child(bindings={**bindings, var: obj}))

        decisive = not is_forall  # forall exits on falsy, exists on truthy
        for obj in extent:
            try:
                value = body(
                    ctx.child(bindings={**bindings, var: obj}, trace=None)
                )
            except Exception:
                # Evaluation is pure, so the traced re-run deterministically
                # raises the same error — now with its events on the trace.
                retrace(obj)
                raise
            if isinstance(value, _Vacuous):
                saw_vacuous = True
            elif bool(value) is decisive:
                retrace(obj)
                return decisive
        if saw_vacuous:
            return VACUOUS
        return is_forall

    return run_quantified


def _compile_key(node: KeyConstraint) -> CompiledNode:
    attributes = node.attributes

    def run_key(ctx: EvalContext) -> bool:
        trace = ctx.trace
        if ctx.indexes is not None and ctx.self_extent_class is not None:
            verdict = ctx.indexes.key_unique(ctx.self_extent_class, attributes)
            if verdict is not None:
                if trace is not None:
                    trace.record(
                        "probe",
                        f"key {ctx.self_extent_class}({', '.join(attributes)})",
                        repr(verdict),
                        _trace_env(ctx),
                    )
                return verdict
        # seen maps key → first holder's subject so a traced collision can
        # name the pair; the untraced cost over a plain set is negligible.
        seen: dict[tuple, str] = {}
        get_attr = ctx.get_attr
        joined = ", ".join(attributes)
        if trace is not None:
            trace.record(
                "extent", ctx.self_extent_class or "self", f"key {joined}", ()
            )
            loop_mark = len(trace.events)
        for obj in ctx.self_extent:
            subject = _subject_of(obj) if trace is not None else ""
            if trace is not None:
                trace.record("member", subject, joined)
            key = tuple(get_attr(obj, attr) for attr in attributes)
            if key in seen:
                if trace is not None:
                    # Only the colliding pair supports a False verdict.
                    del trace.events[loop_mark:]
                    trace.record("member", seen[key], joined)
                    trace.record("member", subject, joined)
                    trace.record("binding", seen[key], f"key collision on ({joined})")
                    trace.record("binding", subject, f"key collision on ({joined})")
                return False
            seen[key] = subject
        return True

    return run_key
