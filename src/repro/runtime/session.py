"""Multi-query serving sessions (compile once, run many).

A :class:`LobsterSession` batches independent databases through **one**
compiled program on **one** shared :class:`~repro.gpu.device.VirtualDevice`.
Relative to constructing and running engines per query, the session
amortizes every one-time cost the device profile models:

* the program is compiled (or fetched from the program cache) exactly
  once, before the first query;
* the host<->device transfer *plan* is computed once per program (memoized
  in :mod:`repro.apm.schedule`);
* allocation sites stay warm across queries — one shared
  :class:`~repro.apm.interpreter.ApmInterpreter` retains its allocation
  sites, so after the first database the arena hands back the previous
  query's buffers instead of paying the simulated allocation latency.

For throughput serving, a session can spread its queries across a
:class:`~repro.dist.pool.DevicePool`: queries round-robin over the pool's
devices (each with its own warm interpreter), and the report aggregates
the per-device profiles counter-wise.  Sessions are thread-safe —
``submit``/``result`` may be called from a pool of worker threads while
another thread drains (``run_all`` serializes drains).

Example
-------
>>> from repro import LobsterEngine, LobsterSession
>>> engine = LobsterEngine(
...     "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."
... )
>>> session = LobsterSession(engine)
>>> for edges in ([(0, 1)], [(1, 2)], [(0, 2), (2, 3)]):
...     db = session.create_database()
...     _ = db.add_facts("edge", edges)
...     _ = session.submit(db)
>>> report = session.run_all()
>>> len(report.results)
3
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .database import Database
from .engine import ExecutionResult, LobsterEngine
from ..apm.interpreter import ApmInterpreter
from ..dist.pool import DevicePool
from ..errors import LobsterError, TicketNotRunError, UnknownTicketError
from ..gpu.device import DeviceProfile


@dataclass
class SubmittedQuery:
    """One enqueued unit of work: a database awaiting (or holding) a run."""

    ticket: int
    database: Database
    result: ExecutionResult | None = None


@dataclass
class SessionReport:
    """Aggregate outcome of one :meth:`LobsterSession.run_all` drain.

    Separates the one-time compile cost from steady-state execution, the
    SPEC CPU2026-style split every benchmark's warm-path mode reports.
    """

    #: One-time front-end cost (0.0 when the program cache already held
    #: the artifact).
    compile_seconds: float
    #: Whether the engine's program was served from the cache.
    program_from_cache: bool
    #: Per-query results, in submission order, for this drain.
    results: list[ExecutionResult] = field(default_factory=list)
    #: Device counters accumulated across the whole drain — the
    #: counter-wise :meth:`DeviceProfile.merge` of ``device_profiles``.
    profile: DeviceProfile | None = None
    #: Number of devices the drain used (1 = the engine's own device;
    #: >1 = a :class:`~repro.dist.pool.DevicePool` round-robin).
    pool_size: int = 1
    #: Per-device profile deltas for this drain, pool order.
    device_profiles: list[DeviceProfile] = field(default_factory=list)

    @property
    def steady_state_seconds(self) -> float:
        """Measured wall time summed over the drained queries."""
        return sum(result.wall_seconds for result in self.results)

    @property
    def modeled_overhead_seconds(self) -> float:
        return sum(result.simulated_overhead_seconds for result in self.results)

    @property
    def total_seconds(self) -> float:
        return (
            self.compile_seconds
            + self.steady_state_seconds
            + self.modeled_overhead_seconds
        )

    @property
    def makespan_seconds(self) -> float:
        """Modeled makespan of the drain: pool devices serve queries
        concurrently, so the busiest device bounds the batch."""
        if not self.device_profiles:
            return 0.0
        return max(profile.busy_seconds for profile in self.device_profiles)


class LobsterSession:
    """Serve many independent databases through one compiled program.

    Thread-safety: the queue (``submit``/``database``/``result``) is
    guarded by one lock so worker threads can enqueue concurrently;
    drains serialize on a lock owned by the *shared resource* — the
    pool when one is supplied, the engine otherwise — so even two
    sessions sharing one engine or one pool cannot interleave drains on
    the same devices.  Queue mutations never happen while holding the
    drain lock, so submitting during a drain is safe (the new query
    lands in the next drain).
    """

    def __init__(
        self,
        engine: LobsterEngine,
        pool: DevicePool | None = None,
        metrics=None,
        tracer=None,
    ):
        """``metrics`` (a :class:`~repro.serve.metrics.MetricsRegistry`,
        or anything with the same ``counter``/``histogram`` shape)
        instruments every query this session runs — counts, incremental
        hits, and the modeled per-query service-time distribution.

        ``tracer`` (a :class:`~repro.obs.Tracer`) overrides the engine's
        own tracer for queries run through this session — the serving
        scheduler passes its serve-clock tracer here so engine-run spans
        nest under the micro-batch spans.  ``None`` defers to whatever
        the engine was constructed with."""
        self.engine = engine
        self.pool = pool
        self.metrics = metrics
        self.tracer = tracer
        self._queries: dict[int, SubmittedQuery] = {}
        self._next_ticket = 0
        self._lock = threading.Lock()  # queue + ticket counter
        # Drains serialize on the shared resource's lock, not a
        # per-session one, so sessions sharing an engine/pool are safe.
        self._run_lock = pool._drain_lock if pool else engine._drain_lock

        # One warm interpreter (*lane*) per device for the whole session:
        # allocation sites stay warm across queries (buffer reuse across
        # the batch); data-dependent state (static hash indices) still
        # resets per stratum.
        self._interpreters = [
            engine._make_interpreter(device, warm=True)
            for device in (pool.devices if pool else [engine.device])
        ]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)

    @property
    def pending(self) -> list[SubmittedQuery]:
        with self._lock:
            return [
                query
                for query in self._queries.values()
                if query.result is None
            ]

    def create_database(self) -> Database:
        """A fresh database for this session's program (convenience
        passthrough to the engine)."""
        return self.engine.create_database()

    def submit(self, database: Database | None = None) -> int:
        """Enqueue ``database`` (or a fresh one) and return its ticket.
        Safe to call from multiple threads concurrently."""
        if database is None:
            database = self.engine.create_database()
        with self._lock:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._queries[ticket] = SubmittedQuery(ticket, database)
        return ticket

    def database(self, ticket: int) -> Database:
        return self._query(ticket).database

    def result(self, ticket: int) -> ExecutionResult:
        """The ticket's execution result.

        Raises :class:`~repro.errors.UnknownTicketError` for a ticket
        this session never issued, and
        :class:`~repro.errors.TicketNotRunError` for one still awaiting
        a drain — both :class:`~repro.errors.SessionError` subclasses.
        """
        result = self._query(ticket).result
        if result is None:
            raise TicketNotRunError(ticket)
        return result

    def _query(self, ticket: int) -> SubmittedQuery:
        with self._lock:
            query = self._queries.get(ticket)
        if query is None:
            raise UnknownTicketError(ticket)
        return query

    # ------------------------------------------------------------------

    def run_all(self) -> SessionReport:
        """Drain the queue: run every pending database to fix point.

        Databases run back-to-back on the shared device (or round-robin
        across the pool's devices) without resetting it, so the batch
        amortizes allocations; the per-query results still carry per-run
        profiles (computed from counter snapshots).  Already-evaluated
        databases with pending facts take the incremental path exactly as
        :meth:`LobsterEngine.run` would.
        """
        with self._run_lock:
            engine = self.engine
            devices = [lane.device for lane in self._interpreters]
            for device in devices:
                device.profile.reset()
            befores = [device.profile.snapshot() for device in devices]
            report = SessionReport(
                compile_seconds=engine.compile_seconds,
                program_from_cache=engine.cache_hit,
                pool_size=len(devices),
            )
            for query in self.pending:
                report.results.append(self._execute(query, self._lane(None)))
            report.device_profiles = [
                device.profile.since(before)
                for device, before in zip(devices, befores)
            ]
            report.profile = DeviceProfile.merge(report.device_profiles)
            return report

    def _lane(self, device_index: int | None) -> ApmInterpreter:
        """The warm interpreter a query runs on: the pool device at
        ``device_index`` (``None`` acquires one), or the engine device's."""
        if self.pool is not None:
            if device_index is None:
                device_index, _ = self.pool.acquire()
            elif not 0 <= device_index < len(self.pool):
                raise LobsterError(
                    f"device_index {device_index} out of range for a "
                    f"{len(self.pool)}-device pool"
                )
            return self._interpreters[device_index]
        if device_index not in (None, 0):
            raise LobsterError(
                "this session has no DevicePool; only "
                "device_index=None (or 0) is valid"
            )
        return self._interpreters[0]

    def run_batch(
        self,
        databases: list[Database],
        *,
        device_index: int | None = None,
        retain: bool = True,
        span_parent=None,
    ) -> list[ExecutionResult]:
        """The serving scheduler's single-batch step: run ``databases``
        back-to-back on **one** device, returning the per-query results
        in order.

        Unlike :meth:`run_all` this never touches other pending queries
        and never resets device profiles, so an online scheduler can
        interleave micro-batches from many sessions over one pool while
        each result still carries its own per-run counters (the
        per-query timing the serve clock charges).  ``device_index``
        pins the batch to that pool device (the scheduler picks it via
        least-loaded acquisition); ``None`` acquires one from the pool —
        or uses the engine's own device for a pool-less session.  The
        batch shares the device's warm interpreter, so requests after
        the first reuse the previous query's buffers.

        ``retain=True`` registers the batch in the session's queue
        (tickets, ``result()`` lookups).  The serving hot path passes
        ``retain=False``: the scheduler owns the results through its
        outcomes, and a long-lived session must not grow a record per
        served request.

        The batch enqueues under the drain lock, so a concurrent
        :meth:`run_all` can never pick these queries up and run them a
        second time; likewise, arguments are validated before anything
        is enqueued, so a failed call leaves no half-submitted queries
        behind.
        """
        if not databases:
            return []
        with self._run_lock:
            interpreter = self._lane(device_index)
            if retain:
                queries = [
                    self._query(self.submit(database))
                    for database in databases
                ]
            else:
                queries = [
                    SubmittedQuery(-1, database) for database in databases
                ]
            return [
                self._execute(query, interpreter, span_parent=span_parent)
                for query in queries
            ]

    def _execute(
        self,
        query: SubmittedQuery,
        interpreter: ApmInterpreter,
        span_parent=None,
    ) -> ExecutionResult:
        """Run one query on ``interpreter``, recording metrics if a
        registry is attached.  Caller holds the drain lock."""
        result = self.engine.run(
            query.database,
            reset_profile=False,
            _interpreter=interpreter,
            tracer=self.tracer,
            span_parent=span_parent,
        )
        query.result = result
        if self.metrics is not None:
            self.metrics.counter("session.queries").inc()
            if result.incremental:
                self.metrics.counter("session.incremental_runs").inc()
            if result.maintained:
                self.metrics.counter("session.maintained_runs").inc()
            if result.maintain_fallback is not None:
                self.metrics.counter("session.maintain_fallbacks").inc()
            self.metrics.histogram("session.service_s").observe(
                result.service_seconds
            )
        return result
