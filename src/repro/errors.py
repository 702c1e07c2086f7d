"""Exception hierarchy for the repro package.

Every error raised by the compiler, runtime, or device derives from
:class:`LobsterError` so applications can catch framework failures with a
single except clause.
"""

from __future__ import annotations


class LobsterError(Exception):
    """Base class for all errors raised by this framework."""


class ParseError(LobsterError):
    """Raised when Datalog source text cannot be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class ResolutionError(LobsterError):
    """Raised when a program refers to undeclared relations or variables."""


class StratificationError(LobsterError):
    """Raised when a program cannot be stratified (e.g. negation cycles)."""


class CompileError(LobsterError):
    """Raised when RAM cannot be lowered to APM."""


class ExecutionError(LobsterError):
    """Raised when an APM program fails at runtime."""


class DeviceOutOfMemory(ExecutionError):
    """Raised when an allocation exceeds the virtual device's capacity.

    Mirrors a CUDA out-of-memory failure; benchmark harnesses catch this to
    report "OOM" rows as in Table 3 of the paper.
    """


class EvaluationTimeout(LobsterError):
    """Raised by baseline engines when a configured wall-clock budget expires.

    Used to reproduce the paper's 2-hour ProbLog timeouts at a smaller scale.
    """


class ProvenanceError(LobsterError):
    """Raised on invalid tag operations (e.g. proof capacity overflow)
    and on semiring keywords the named semiring does not accept."""


class UnknownProvenanceError(ProvenanceError, KeyError):
    """Raised when no semiring is registered under the requested name
    (also a :class:`KeyError`, which registry lookups raised before)."""

    __str__ = Exception.__str__  # KeyError would repr-quote the message


class FactError(LobsterError, ValueError):
    """Raised by :meth:`Database.add_facts` for rows that do not fit the
    relation — wrong arity, a non-numeric cell, a ``probs`` list of
    another length (also a :class:`ValueError`, which a length mismatch
    raised before).  Nothing is stored when it is raised."""


class RetractionUnsupportedError(LobsterError):
    """Raised when DRed-style maintain was explicitly requested
    (``engine.run(db, maintain=True)``) but the program or provenance
    cannot support it.

    The engine's automatic path never raises this: it records the same
    ``reason`` on :attr:`ExecutionResult.maintain_fallback` and falls
    back to a checkpointed recompute (retractions applied to the input
    fact log, then a cold rerun) — slower, never wrong.  The two
    fallback classes are stratified negation (a retraction can *add*
    negated conclusions, which over-delete/re-derive does not model)
    and a non-idempotent ⊕ (re-derivation from warm state would
    double-count alternatives, e.g. ``addmultprob``'s sum).
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"retraction maintain unsupported: {reason}")


class StaleViewError(LobsterError):
    """Raised when a materialized view (or one of its subscriptions) can
    no longer reconcile its state.

    Two cases: the view's database was evaluated or mutated outside the
    view's tick path (the view's retained result no longer corresponds
    to the database — call :meth:`MaterializedView.refresh`), or a
    subscription's cursor points at tick history the view has already
    pruned (re-subscribe, or raise the view's ``max_history``).
    """


class CorruptLogError(LobsterError):
    """Raised when a durability artifact is unreadable *beyond* the
    torn-tail case.

    A write-ahead log whose final record was cut short by a crash is
    **not** an error: recovery silently truncates the torn tail and
    resumes from the last complete record (the live stream regenerates
    the lost tick).  This exception covers the cases silent truncation
    cannot repair: a checkpoint file whose CRC framing fails (checkpoints
    are swapped in atomically, so a bad one was corrupted at rest, not
    torn), a strict read that found trailing garbage, or a WAL record
    that disagrees with the deterministic stream source it claims to
    describe.
    """


class CheckpointMismatchError(LobsterError):
    """Raised when a checkpoint (or exported database) is structurally
    incompatible with the process trying to load it: a different format
    version, a different provenance semiring than the engine's, a stream
    name with no registered setup, or a feed whose shape (window
    class/size) differs from the one that wrote the state.  Unlike a
    torn log tail this is never silently recoverable — loading would
    produce a *wrong* state rather than a merely older one.
    """


class SessionError(LobsterError):
    """Raised on invalid session ticket operations."""


class UnknownTicketError(SessionError):
    """Raised when a session is asked about a ticket it never issued."""

    def __init__(self, ticket: int):
        self.ticket = ticket
        super().__init__(
            f"unknown session ticket {ticket}: this session never issued it"
        )


class TicketNotRunError(SessionError):
    """Raised when a ticket's result is requested before the query ran
    (submit it and drain the session first)."""

    def __init__(self, ticket: int):
        self.ticket = ticket
        super().__init__(
            f"ticket {ticket} has not been run yet: call run_all() (or "
            "run_batch) to drain the session before reading its result"
        )
