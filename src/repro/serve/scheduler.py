"""The online scheduler: micro-batching dispatch over a device pool.

The scheduler turns the repo's batch machinery into a *servable* system.
It runs a deterministic discrete-event loop on a **serve clock** of
simulated seconds: request arrivals come timestamped from the load
generator (open loop), service times come from the device cost model
(:attr:`~repro.runtime.engine.ExecutionResult.service_seconds`), and the
host's wall clock never enters the accounting — so latency
distributions are exactly reproducible for one seed.

Per event-loop turn:

1. **admission** — arrivals at or before ``now`` go through the
   :class:`~repro.serve.admission.AdmissionController`; rejects become
   explicit ``rejected`` outcomes, admits join their micro-batch group
   (same SLO class + same compiled program, the ProgramCache key).
2. **dispatch** — while a group is ready (full batch, or the batching
   window closed on its oldest request) and a device is free, the
   scheduler sheds deadline-expired requests, acquires the least-loaded
   free device from the :class:`~repro.dist.pool.DevicePool`, and runs
   the batch through that program's :class:`~repro.runtime.session.
   LobsterSession` single-batch step (warm per-device interpreters).  A
   batch of two or more cold requests under a semiring whose tags do not
   name input facts is *folded* into one batched fix point (§4.3): all
   its members finish together at ``start + S``, ``S`` the fold's
   modeled service time, and each is charged ``S / k``.  Any other
   batch (one request, warm or maintain runs, proof and gradient
   semirings) runs back to back and its completion times fan out
   cumulatively.  Either way the device is busy until the batch drains,
   and its busy time is the sum of its members' service charges.
3. **advance** — the clock jumps to the next arrival, group-ready time,
   or device-free time, whichever is first.

Every submitted request ends in exactly one outcome
(``completed`` / ``rejected`` / ``shed``); the accounting invariant
``submitted == completed + rejected + shed`` is checked at the end of
every :meth:`Scheduler.run`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from .admission import AdmissionController
from .metrics import Histogram, MetricsRegistry
from .queue import BatchGroup, RequestQueue
from .request import (
    COMPLETED,
    REJECTED,
    SHED,
    Outcome,
    Request,
    SLOClass,
    default_slo_classes,
)
from ..dist.pool import DevicePool
from ..errors import LobsterError
from ..obs import NULL_TRACER, Tracer
from ..runtime.session import LobsterSession

__all__ = ["Scheduler", "ServeReport"]


def seed_free_at(busy_until: list[float] | None, pool: DevicePool) -> list[float]:
    """Initial per-device free times on the serve clock: all zero, or a
    carried ``busy_until`` horizon from a preceding drain.  Shared by the
    request scheduler and the stream scheduler so the hand-the-horizons-
    back-and-forth protocol stays symmetric."""
    if busy_until is None:
        return [0.0] * len(pool)
    if len(busy_until) != len(pool):
        raise LobsterError(
            f"busy_until has {len(busy_until)} entries for a "
            f"{len(pool)}-device pool"
        )
    return [float(t) for t in busy_until]


@dataclass
class ServeReport:
    """Aggregate outcome of one :meth:`Scheduler.run` drain."""

    #: Terminal records in ticket order (exactly one per submission).
    #: These — and the counts/rates derived from them — cover *this*
    #: drain only.
    outcomes: list[Outcome]
    #: The scheduler's registry.  Lifetime-cumulative (Prometheus
    #: style): histograms and counters span every drain this scheduler
    #: has run, so on a reused scheduler ``latency_histogram``/``p99``
    #: aggregate across drains; per-drain numbers come from
    #: ``outcomes``.
    metrics: MetricsRegistry
    #: Serve-clock time at which the last device went idle.
    makespan_s: float
    pool_size: int
    classes: dict[str, SLOClass] = field(default_factory=dict)
    #: First arrival of this drain's stream — goodput is measured over
    #: the busy span ``makespan_s - stream_start_s``, so a stream whose
    #: timestamps start late (or a reused scheduler draining a
    #: continuing stream) is not diluted by the idle lead-in.
    stream_start_s: float = 0.0
    #: Serve-clock time each pool device is busy until after this drain
    #: — feed into the next ``run(busy_until=...)`` (or a
    #: StreamScheduler) to carry device occupancy across interleaved
    #: request/maintenance drains on one shared pool.
    busy_until: list[float] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def submitted(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return self._count(COMPLETED)

    @property
    def rejected(self) -> int:
        return self._count(REJECTED)

    @property
    def shed(self) -> int:
        return self._count(SHED)

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions not served (rejected + shed)."""
        if not self.outcomes:
            return 0.0
        return (self.rejected + self.shed) / self.submitted

    @property
    def goodput_rps(self) -> float:
        """Completed requests per simulated second of busy span (first
        arrival to last device going idle)."""
        span = self.makespan_s - self.stream_start_s
        if span <= 0:
            return 0.0
        return self.completed / span

    def latency_histogram(self, slo: str) -> Histogram:
        return self.metrics.histogram(f"serve.latency_s.{slo}")

    def p99_latency_s(self, slo: str) -> float:
        return self.latency_histogram(slo).p99

    def render(self) -> str:
        head = (
            f"served {self.completed}/{self.submitted} requests on "
            f"{self.pool_size} device(s) in {self.makespan_s * 1e3:.3f}ms "
            f"simulated (rejected {self.rejected}, shed {self.shed})"
        )
        return head + "\n" + self.metrics.render("serve metrics")


class Scheduler:
    """Clock-driven micro-batching scheduler over a device pool.

    ``submit`` is thread-safe (an intake list guarded by a lock);
    ``run`` drains the intake plus any directly passed requests through
    the event loop on the calling thread.  One scheduler owns its pool:
    per-program :class:`LobsterSession`\\ s share the pool's devices and
    warm interpreters across runs, so steady-state traffic never pays
    the modeled allocation latency.
    """

    def __init__(
        self,
        pool: DevicePool | None = None,
        *,
        n_devices: int = 1,
        classes: dict[str, SLOClass] | None = None,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        """``tracer`` (a :class:`~repro.obs.Tracer`) records span
        timelines on the serve clock for every sampled request —
        admission verdict, queue wait, micro-batch membership, and the
        engine-run tree down to kernels — exportable to Perfetto.  The
        tracer's ``sample_every`` picks which tickets are traced;
        batches with no sampled member run with tracing muted, so
        sampling bounds trace volume without touching the schedule."""
        self.pool = pool or DevicePool(n_devices, policy="least-loaded")
        self.tracer = tracer or NULL_TRACER
        #: Open request spans of the current drain, by ticket.
        self._request_spans: dict[int, object] = {}
        self.classes = dict(classes) if classes is not None else default_slo_classes()
        self.metrics = metrics or MetricsRegistry()
        self.admission = admission or AdmissionController(self.classes)
        #: Outcomes of the *latest* drain, by ticket (reset at the start
        #: of every :meth:`run` — a long-lived scheduler must not retain
        #: a record per served request; drain history belongs to the
        #: caller via the returned reports).
        self.outcomes: dict[int, Outcome] = {}
        self._queue: RequestQueue | None = None
        self._intake: list[Request] = []
        self._intake_lock = threading.Lock()
        self._next_ticket = 0
        self._sessions: dict[str, LobsterSession] = {}

    # ------------------------------------------------------------------
    # Intake

    def submit(self, request: Request) -> int:
        """Enqueue a request for the next :meth:`run`; returns its
        ticket.  Safe to call from many threads concurrently."""
        if request.slo not in self.classes:
            raise LobsterError(
                f"unknown SLO class {request.slo!r}; "
                f"known: {sorted(self.classes)}"
            )
        if request.ticket is not None:
            raise LobsterError(
                f"request already submitted (ticket {request.ticket}); "
                "build a fresh Request per submission"
            )
        with self._intake_lock:
            request.ticket = self._next_ticket
            self._next_ticket += 1
            self._intake.append(request)
            self.metrics.counter("serve.submitted").inc()
        return request.ticket

    def submit_many(self, requests: Iterable[Request]) -> list[int]:
        return [self.submit(request) for request in requests]

    @property
    def backpressure(self) -> float:
        """Live queue pressure in [0, 1] (only meaningful mid-run)."""
        if self._queue is None:
            return 0.0
        return self.admission.backpressure(self._queue)

    # ------------------------------------------------------------------
    # The event loop

    def run(
        self,
        requests: Iterable[Request] = (),
        *,
        busy_until: list[float] | None = None,
    ) -> ServeReport:
        """Drain ``requests`` plus everything submitted so far through
        the serve clock.

        ``busy_until`` seeds each pool device's initial free time on the
        serve clock (default: all free at 0) — this is how maintenance
        work from a :class:`~repro.serve.streaming.StreamScheduler` and
        request traffic share one pool: whoever ran last hands its
        devices' busy horizons to whoever runs next, so a device still
        finishing a maintain tick delays the micro-batch dispatched onto
        it.  The returned report's ``outcomes`` (and the counts derived
        from them) cover this drain only; its ``metrics`` registry is
        the scheduler's own, cumulative across drains."""
        # Validate before draining intake: a bad busy_until must not eat
        # the already-submitted requests (they stay queued for a retry).
        free_at = seed_free_at(busy_until, self.pool)
        for request in requests:
            self.submit(request)
        with self._intake_lock:
            arrivals = self._intake
            self._intake = []
        arrivals.sort(key=lambda r: (r.arrival_s, r.ticket))

        self.outcomes = {}  # this drain's records only (no unbounded growth)
        self._request_spans = {}
        queue = RequestQueue(self.classes)
        self._queue = queue
        stream_start = arrivals[0].arrival_s if arrivals else 0.0
        now = stream_start
        cursor = 0

        try:
            while True:
                # 1. Admit every arrival at or before the current clock.
                while cursor < len(arrivals) and arrivals[cursor].arrival_s <= now:
                    self._admit(arrivals[cursor], now, queue, free_at)
                    cursor += 1

                # 2. Dispatch while a group is ready and a pool device is
                # free.
                while True:
                    ready = queue.ready_groups(now)
                    if not ready:
                        break
                    free = [i for i, t in enumerate(free_at) if t <= now]
                    if not free:
                        break
                    self._dispatch(ready[0], now, queue, free_at, free)

                # 3. Advance the clock to the next event.
                candidates: list[float] = []
                if cursor < len(arrivals):
                    candidates.append(arrivals[cursor].arrival_s)
                if queue.total_depth:
                    ready_time = queue.next_ready_time()
                    if ready_time is not None and ready_time > now:
                        candidates.append(ready_time)
                    else:
                        # A group is ready but every device is busy: wake
                        # when a pool device next frees up.
                        candidates.append(min(t for t in free_at if t > now))
                if not candidates:
                    break
                now = min(candidates)
        except BaseException as error:
            # A failing request must not wedge the scheduler or lose its
            # neighbours: every request of this drain still without an
            # outcome is shed explicitly before the error surfaces.
            reason = f"aborted: drain failed ({type(error).__name__}: {error})"
            for request in arrivals:
                if request.ticket not in self.outcomes:
                    self._shed(request, now, reason)
            raise
        finally:
            self._queue = None

        makespan = max(free_at) if free_at else 0.0
        self._export_device_metrics()
        report = ServeReport(
            outcomes=sorted(self.outcomes.values(), key=lambda o: o.ticket),
            metrics=self.metrics,
            makespan_s=makespan,
            pool_size=len(self.pool),
            classes=dict(self.classes),
            stream_start_s=stream_start,
            busy_until=list(free_at),
        )
        # The no-lost-no-duplicated invariant, checked on every drain.
        if report.completed + report.rejected + report.shed != len(arrivals):
            raise LobsterError(
                f"serving accounting violated: {len(arrivals)} submitted but "
                f"{report.completed}+{report.rejected}+{report.shed} resolved"
            )
        return report

    # ------------------------------------------------------------------

    def _admit(
        self, request: Request, now: float, queue: RequestQueue, free_at: list[float]
    ) -> None:
        reason = self.admission.decide(
            request, now=now, queue=queue, free_at=free_at
        )
        tracer = self.tracer
        span = None
        if tracer.enabled and tracer.sampled(request.ticket):
            # One lane per sampled request: the span runs arrival to
            # terminal outcome, children account every waiting and
            # serving phase of the latency.
            span = tracer.start(
                "serve.request",
                t=request.arrival_s,
                track=f"request#{request.ticket}",
                ticket=request.ticket,
                slo=request.slo,
            )
            self._request_spans[request.ticket] = span
            tracer.event(
                "serve.admission",
                t=now,
                parent=span,
                verdict="rejected" if reason is not None else "admitted",
                reason=reason or "",
            )
        if reason is not None:
            outcome = Outcome(
                ticket=request.ticket,
                status=REJECTED,
                slo=request.slo,
                arrival_s=request.arrival_s,
                reason=reason,
                meta=request.meta,
            )
            self._record(outcome)
            if span is not None:
                span.attrs["status"] = REJECTED
                tracer.finish(span, now)
                del self._request_spans[request.ticket]
            return
        queue.push(request)
        self.metrics.counter("serve.admitted").inc()
        self.metrics.gauge(f"serve.queue_depth.{request.slo}").set(
            queue.depth(request.slo)
        )

    def _fill_batch(
        self, group: BatchGroup, now: float, queue: RequestQueue
    ) -> list[Request]:
        """Pop up to a batch from ``group``, shedding deadline-expired
        requests: under overload the head of a group is exactly where
        expired requests accumulate, and an undersized batch there would
        waste the coalescing."""
        slo_class = self.classes[group.slo]
        batch: list[Request] = []
        while group.requests and len(batch) < slo_class.max_batch_size:
            request = queue.pop_batch(group, 1)[0]
            if now > request.deadline_at(slo_class):
                expired_ms = (now - request.deadline_at(slo_class)) * 1e3
                self._shed(
                    request,
                    now,
                    f"deadline expired {expired_ms:.3f}ms before service "
                    "(queued past the SLO)",
                )
                continue
            batch.append(request)
        self.metrics.gauge(f"serve.queue_depth.{group.slo}").set(
            queue.depth(group.slo)
        )
        return batch

    def _shed(self, request: Request, now: float, reason: str) -> None:
        """Record an explicit ``shed`` outcome for ``request`` at ``now``
        and close its request span (all of its latency was waiting)."""
        outcome = Outcome(
            ticket=request.ticket,
            status=SHED,
            slo=request.slo,
            arrival_s=request.arrival_s,
            reason=reason,
            meta=request.meta,
        )
        self._record(outcome)
        span = self._request_spans.pop(request.ticket, None)
        if span is not None:
            wait = self.tracer.start("queue.wait", t=request.arrival_s, parent=span)
            self.tracer.finish(wait, now)
            span.attrs["status"] = SHED
            self.tracer.finish(span, now)

    def _dispatch(
        self,
        group: BatchGroup,
        now: float,
        queue: RequestQueue,
        free_at: list[float],
        free_devices: list[int],
    ) -> None:
        """Run one micro-batch of ``group`` and fan its outcomes out.

        The batch takes the least-loaded free device and holds it until
        the batch drains: after the one run of a folded batch, or after
        its members' runs back to back."""
        batch = self._fill_batch(group, now, queue)
        if not batch:
            return
        device_index, _ = self.pool.acquire(
            policy="least-loaded", eligible=free_devices
        )
        session = self._session_for(batch[0])
        databases = [request.database for request in batch]
        tracer = self.tracer
        batch_span = None
        if tracer.enabled and any(
            request.ticket in self._request_spans for request in batch
        ):
            # The batch occupies its device until it drains; engine-run
            # spans nest under it on the device's lane.  The
            # cursor is pinned to the dispatch time so those run spans
            # anchor exactly where the outcome fan-out puts them.
            batch_span = tracer.start(
                "serve.batch",
                t=now,
                track=f"device{device_index}",
                slo=group.slo,
                size=len(batch),
                device=device_index,
            )
            tracer.set_time(now)
            try:
                results = session.run_batch(
                    databases,
                    device_index=device_index,
                    retain=False,
                    span_parent=batch_span,
                )
            finally:
                tracer.finish(batch_span, tracer.now)
        else:
            # retain=False: outcomes own the results; the long-lived
            # session must not grow a bookkeeping record per request.
            # A batch with no sampled member runs muted, so an
            # engine-level tracer does not emit orphan run spans.
            with tracer.muted():
                results = session.run_batch(
                    databases, device_index=device_index, retain=False
                )
        start = now
        elapsed = 0.0
        for index, (request, result) in enumerate(zip(batch, results)):
            # A folded batch is one run: every member occupies the device
            # for all of it and finishes with it, charged an equal share.
            # Back to back, each run follows its predecessors.
            run_s = result.service_seconds
            service = run_s / result.fold_size
            if index % result.fold_size == 0:
                elapsed += run_s
            finish = start + elapsed
            outcome = Outcome(
                ticket=request.ticket,
                status=COMPLETED,
                slo=request.slo,
                arrival_s=request.arrival_s,
                start_s=start,
                finish_s=finish,
                service_s=service,
                device_index=device_index,
                batch_size=len(batch),
                result=result,
                meta=request.meta,
            )
            self._record(outcome)
            self.admission.estimator.observe(request.program_key, service)
            span = self._request_spans.pop(request.ticket, None)
            if span is not None:
                # Three children summing exactly to the latency: waiting
                # for dispatch, waiting for batch predecessors, serving.
                wait = tracer.start("queue.wait", t=request.arrival_s, parent=span)
                tracer.finish(wait, start)
                turn = tracer.start("batch.wait", t=start, parent=span)
                tracer.finish(turn, finish - run_s)
                execute = tracer.start(
                    "serve.execute",
                    t=finish - run_s,
                    parent=span,
                    batch_size=len(batch),
                    device=device_index,
                )
                if batch_span is not None:
                    execute.attrs["batch_span"] = batch_span.span_id
                tracer.finish(execute, finish)
                span.attrs["status"] = COMPLETED
                tracer.finish(span, finish)
        free_at[device_index] = start + elapsed
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch_size", lo=1.0, growth=1.25).observe(
            len(batch)
        )

    def _record(self, outcome: Outcome) -> None:
        if outcome.ticket in self.outcomes:
            raise LobsterError(
                f"duplicate outcome for ticket {outcome.ticket}"
            )
        self.outcomes[outcome.ticket] = outcome
        self.metrics.counter(f"serve.{outcome.status}.{outcome.slo}").inc()
        if outcome.status == COMPLETED:
            self.metrics.histogram(f"serve.latency_s.{outcome.slo}").observe(
                outcome.latency_s
            )
            self.metrics.histogram(f"serve.queue_wait_s.{outcome.slo}").observe(
                outcome.queue_wait_s
            )
            self.metrics.histogram("serve.service_s").observe(outcome.service_s)

    def _session_for(self, request: Request) -> LobsterSession:
        """One session (and set of warm per-device interpreters) per
        compatibility key (compiled program + max_iterations — see
        :attr:`Request.program_key`), shared by every request that
        coalesces on it.  The session runs every request through *its*
        engine, which the key makes sound."""
        key = request.program_key
        session = self._sessions.get(key)
        if session is None:
            session = LobsterSession(
                request.engine,
                pool=self.pool,
                metrics=self.metrics,
                tracer=self.tracer if self.tracer is not NULL_TRACER else None,
            )
            self._sessions[key] = session
        return session

    def _export_device_metrics(self) -> None:
        self.metrics.gauge("device.pool_size").set(len(self.pool))
        for index, device in enumerate(self.pool.devices):
            for name, seconds in device.profile.busy_breakdown().items():
                self.metrics.gauge(f"device.{index}.{name}").set(seconds)
            self.metrics.gauge(f"device.{index}.busy_seconds").set(
                device.profile.busy_seconds
            )
