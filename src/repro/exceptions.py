"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Simulation-level anomalies that are *detected
conditions* rather than programming errors (deadlock, deadline overrun with a
strict policy) have their own subclasses carrying structured context.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SpecificationError(ReproError):
    """A transaction specification or task set is malformed.

    Raised during validation, e.g. for a non-positive period, an operation
    with a negative duration, duplicate transaction names, or a priority
    assignment that is not a total order.
    """


class ProtocolError(ReproError):
    """A concurrency-control protocol was used incorrectly.

    Examples: releasing a lock that is not held, registering two protocols
    with the same name, or a protocol returning an inconsistent decision.
    """


class UnknownProtocolError(ProtocolError):
    """Lookup of a protocol name in the registry failed."""

    def __init__(self, name: str, available: "tuple[str, ...]" = ()) -> None:
        self.name = name
        self.available = tuple(available)
        msg = f"unknown protocol {name!r}"
        if self.available:
            msg += f"; available: {', '.join(self.available)}"
        super().__init__(msg)


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state."""


class DeadlockError(SimulationError):
    """A deadlock (cycle in the wait-for graph) was detected.

    Only protocols outside PCP-DA's guarantees can raise this (e.g. plain
    2PL, or the deliberately weakened variant from the paper's Example 5).

    Attributes:
        cycle: the job names forming the wait-for cycle, in order.
        time: simulation time at which the cycle was detected.
    """

    def __init__(self, cycle, time: float) -> None:
        self.cycle = tuple(cycle)
        self.time = time
        names = " -> ".join(self.cycle + (self.cycle[0],)) if self.cycle else "?"
        super().__init__(f"deadlock detected at t={time}: {names}")


class SerializationViolation(ReproError):
    """A committed history failed the conflict-serializability check.

    Attributes:
        cycle: transaction names forming a cycle in the serialization graph.
    """

    def __init__(self, cycle) -> None:
        self.cycle = tuple(cycle)
        names = " -> ".join(self.cycle + (self.cycle[0],)) if self.cycle else "?"
        super().__init__(f"serialization graph contains a cycle: {names}")


class InvariantViolation(ReproError):
    """A protocol invariant asserted by the paper was violated at runtime.

    Used by the verification oracles in :mod:`repro.verify` — e.g. the
    single-blocking property (Theorem 1) or the no-restart guarantee of
    PCP-DA.
    """


class AnalysisError(ReproError):
    """Schedulability analysis was asked an ill-posed question."""


class ServiceError(ReproError):
    """Base class for errors raised by the live lock-manager service.

    Every service error carries a stable ``kind`` string that the wire
    protocol ships to remote clients, so the TCP transport can re-raise the
    matching exception class on the client side (see
    :mod:`repro.service.wire`).
    """

    kind = "service"


class AdmissionError(ServiceError):
    """The service refused to open a session (backpressure).

    Raised when the configured ``max_sessions`` limit is reached; clients
    are expected to back off and retry (docs/SERVICE.md, "Admission and
    backpressure").
    """

    kind = "admission"


class SessionStateError(ServiceError):
    """An operation was issued against a session in the wrong state.

    Examples: reading on a committed session, committing twice, issuing a
    second operation while one is still waiting for a lock, or touching a
    data item outside the transaction's declared access sets.
    """

    kind = "session-state"


class TransactionAborted(ServiceError):
    """The session's transaction was aborted by the service.

    Carries the reason ("deadlock", "validation", "shutdown", ...).  The
    client may open a fresh session and retry; PCP-DA itself never aborts
    (zero restarts), so under ``--protocol pcp-da`` this surfaces only for
    explicit client aborts and service shutdown.
    """

    kind = "aborted"


class DeadlineExceeded(ServiceError):
    """A session overran its deadline and was aborted by the service.

    The service enforces firm deadlines: an expired session is aborted at
    its next operation boundary (or while waiting in the grant queue), its
    locks released and its workspace discarded — mirroring the simulator's
    ``on_miss="abort"`` policy.
    """

    kind = "deadline"


class ProtocolVersionError(ServiceError):
    """The client and server speak incompatible wire-protocol eras.

    Raised by the ``hello`` negotiation when the major versions differ —
    e.g. a ``repro-service/1`` client against an event-frame-capable
    ``repro-service/2`` shard host.  The message names both versions so
    operators know which side to upgrade.
    """

    kind = "version"
