"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause.  The hierarchy
mirrors the major subsystems: the specification languages (parsing), the type
system, the database engine (enforcement), and the integration machinery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(ReproError):
    """A specification (TM schema or constraint expression) failed to parse.

    Attributes
    ----------
    message:
        Human-readable description of the problem.
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        position = ""
        if line is not None:
            position = f" at line {line}"
            if column is not None:
                position += f", column {column}"
        super().__init__(f"{message}{position}")


class TypeSystemError(ReproError):
    """A value or expression does not conform to its declared TM type."""


class SchemaError(ReproError):
    """A TM schema is structurally invalid (bad inheritance, unknown types...)."""


class EngineError(ReproError):
    """Base class for errors raised by the in-memory object database engine."""


class UnknownClassError(EngineError):
    """An operation referenced a class that is not part of the schema."""


class UnknownObjectError(EngineError):
    """An operation referenced an object identifier that does not exist."""


class StorePoisonedError(EngineError):
    """The durable store degraded to read-only after an unrecoverable IO
    failure at a commit point.

    Raised on every mutation attempt once the write-ahead log has poisoned
    itself — a failed commit-point fsync (which must never be retried: the
    kernel may have dropped the dirty pages while marking them clean, so a
    succeeding retry proves nothing about the lost writes), or an append
    whose bytes may sit partially in a userspace buffer.  Snapshot reads
    keep working; reopening the directory recovers the durable prefix.
    """


class ShardingError(EngineError):
    """The shard layout is unusable: a schema whose reference edges would
    span shards, a manifest that disagrees with the directories on disk,
    a spread class that carries references, or an unknown class in the
    requested placement (see :mod:`repro.engine.sharding`)."""


class ConstraintViolation(EngineError):
    """A database operation would leave the store violating a constraint.

    Attributes
    ----------
    constraint_name:
        The label of the violated constraint (e.g. ``"Publication.oc1"``),
        or a phase label (``"transaction"``, ``"full revalidation"``) when
        several constraints failed together.
    detail:
        Explanation of the violation, including the offending object(s).
    violations:
        The structured per-constraint findings behind the failure (objects
        with ``constraint_name``/``detail`` attributes — see
        :class:`repro.engine.enforcement.Violation`): every one of a
        multi-constraint failure, the one of a rejected single operation.
    trace:
        The reason graph of the failing check, when the raising store had
        explanations enabled: a
        :class:`repro.constraints.evaluate.ReasonTrace` recording the
        attribute reads, constant reads, index probes and quantifier
        bindings that determined the verdict.  ``None`` otherwise.
    cores:
        Subset-minimal conflict cores
        (:class:`repro.engine.explain.ConflictCore`) extracted for the
        failure, when the raising path could afford to compute them —
        commit-time multi-constraint failures compute cores *before*
        rolling the transaction back, since the violating state is gone
        afterwards.  Empty otherwise; ``store.explain_violations()``
        recomputes cores for any standing violation.
    """

    def __init__(
        self,
        constraint_name: str,
        detail: str = "",
        violations: "tuple | list | None" = None,
        trace: "object | None" = None,
        cores: "tuple | list | None" = None,
    ):
        self.constraint_name = constraint_name
        self.detail = detail
        self.violations = tuple(violations) if violations is not None else ()
        self.trace = trace
        self.cores = tuple(cores) if cores is not None else ()
        message = f"constraint {constraint_name} violated"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    @property
    def constraint_names(self) -> tuple[str, ...]:
        """Names of every constraint this failure implicates, deduplicated.

        Reads the structured ``violations`` when present, so commit-time
        failures (raised under the ``"transaction"`` label) still attribute
        each violated constraint by name.
        """
        if self.violations:
            names = [
                getattr(violation, "constraint_name", None) or str(violation)
                for violation in self.violations
            ]
            return tuple(dict.fromkeys(names))
        return (self.constraint_name,)


class ServerError(ReproError):
    """Base class for errors raised by the network server and client
    (:mod:`repro.server`, :mod:`repro.client`).

    Engine errors crossing the wire do **not** arrive as ``ServerError`` —
    the protocol maps them back to their original classes
    (:class:`ConstraintViolation` with structured violations and conflict
    cores, :class:`StorePoisonedError`, :class:`SchemaError`, ...), so
    remote callers catch exactly what embedded callers catch.  This branch
    covers what only exists over a wire: framing damage, admission
    rejections, connection loss.
    """


class ProtocolError(ServerError):
    """A wire frame was malformed: oversized, truncated, undecodable, an
    unknown operation, or a reference to server-side state (transaction,
    snapshot, tenant) the connection does not hold."""


class AdmissionError(ServerError):
    """The server refused the request to protect itself (connection limit,
    in-flight cap, draining for shutdown).

    ``retryable`` distinguishes back-off-and-retry rejections (the limit
    is transient — another client may disconnect) from permanent ones.
    """

    def __init__(self, message: str, retryable: bool = True):
        self.retryable = retryable
        super().__init__(message)


class ConnectionLostError(ServerError):
    """The transport died mid-conversation: the peer closed the socket (or
    the frame stream tore) before a response arrived.  Any in-flight
    operation's outcome is unknown to the client; the server side rolls
    open transactions back and releases the connection's leases."""


class IntegrationError(ReproError):
    """Base class for errors raised by the integration machinery."""


class SpecificationError(IntegrationError):
    """An integration specification is malformed (unknown classes/properties,
    a decision function violating ``df(a, a) = a``, ...)."""


class ConformationError(IntegrationError):
    """The conformation phase could not bring the databases into a common
    semantic context (e.g. a constraint mentions a hidden property)."""


class SolverError(ReproError):
    """The symbolic solver met a formula outside the decidable fragment."""


class EvaluationError(ReproError):
    """A constraint could not be evaluated against an object state (missing
    attribute, unknown function, unresolvable reference...).

    ``bindings`` carries the quantifier bindings in scope when the failure
    happened, as ``((var, oid), ...)`` — so a scan-fallback failure deep in
    a quantifier body keeps its originating binding context and reason
    traces can report *which* object the evaluation died on.
    """

    def __init__(self, message: str, bindings: "tuple | list" = ()):
        self.bindings = tuple(bindings)
        super().__init__(message)
