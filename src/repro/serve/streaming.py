"""The maintenance tick path: materialized views on the serve clock.

A :class:`StreamScheduler` drives registered
(:class:`~repro.stream.view.MaterializedView`, window) pairs at fixed
tick periods of **simulated** serve-clock seconds, on the same
:class:`~repro.dist.pool.DevicePool` and
:class:`~repro.serve.metrics.MetricsRegistry` the request
:class:`~repro.serve.scheduler.Scheduler` uses.  Maintenance is real
work: each tick's run executes through a warm per-program
:class:`~repro.runtime.session.LobsterSession` step pinned to the chosen
pool device, and the device is busy (in simulated time) for the run's
modeled :attr:`~repro.runtime.engine.ExecutionResult.service_seconds` —
so co-located request traffic sees maintenance occupancy and vice versa
(hand the ``busy_until`` horizons back and forth between the two
schedulers' ``run`` calls).

Backpressure follows the admission layer's philosophy — overload causes
explicit, accounted-for degradation, never silent drift: when every
device is busy at a tick's scheduled time the tick starts late (the
``stream.tick_lag_s`` histogram records by how much), and once the lag
exceeds ``max_lag_ticks`` periods the scheduler *coalesces* — it merges
the backlog of due window deltas into one net delta
(:meth:`~repro.stream.window.TickDelta.merged_with`) and applies them in
a single maintain pass, counting the skipped passes in
``stream.ticks_coalesced``.  Results are unaffected (the net delta is
equivalent by construction); only the intermediate view deltas collapse.

Everything is counter accounting on a seeded stream, so a run's latency
histograms replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .scheduler import seed_free_at
from ..dist.pool import DevicePool
from ..errors import LobsterError
from ..obs import NULL_TRACER, Tracer
from ..runtime.session import LobsterSession
from ..stream.view import MaterializedView, ViewDelta
from ..stream.window import TickDelta, Window

if TYPE_CHECKING:  # circular-import guard (recovery imports stream)
    from ..recovery import RecoveryManager

__all__ = ["StreamScheduler", "StreamReport"]


@dataclass
class RegisteredStream:
    """One view + its feed on the tick clock."""

    name: str
    view: MaterializedView
    feed: Window
    period_s: float
    #: Serve-clock time of the next scheduled tick.
    next_due_s: float = 0.0
    ticks_applied: int = 0


@dataclass
class StreamReport:
    """Aggregate outcome of one :meth:`StreamScheduler.run` drain."""

    #: Every applied ViewDelta, in application order.
    deltas: list[ViewDelta]
    #: The scheduler's registry (cumulative across drains).
    metrics: MetricsRegistry
    #: Serve-clock time the last maintenance run finished.
    makespan_s: float
    #: Per-device busy horizons after this drain — feed into the next
    #: request-scheduler ``run(busy_until=...)`` (or back into this one).
    busy_until: list[float] = field(default_factory=list)
    #: Maintain passes executed / source ticks covered / passes saved by
    #: coalescing (``ticks == passes + coalesced``).
    passes: int = 0
    ticks: int = 0
    coalesced: int = 0

    @property
    def maintained_fraction(self) -> float:
        """Fraction of passes that maintained in place (vs fell back)."""
        if not self.deltas:
            return 0.0
        return sum(1 for delta in self.deltas if delta.maintained) / len(self.deltas)


class StreamScheduler:
    """Clock-driven maintenance ticks over a shared device pool."""

    def __init__(
        self,
        pool: DevicePool | None = None,
        *,
        n_devices: int = 1,
        metrics: MetricsRegistry | None = None,
        max_lag_ticks: float = 4.0,
        durability: "RecoveryManager | None" = None,
        tracer: Tracer | None = None,
    ):
        """Share ``pool`` and ``metrics`` with a request
        :class:`~repro.serve.scheduler.Scheduler` to co-locate
        maintenance and serving; ``max_lag_ticks`` is the backlog (in
        tick periods) past which due ticks coalesce into one pass.
        ``durability`` (a :class:`~repro.recovery.RecoveryManager`)
        routes every applied tick through the WAL + checkpoint path, so
        a restarted process resumes mid-stream via
        :func:`repro.recovery.recover`.  ``tracer`` (a
        :class:`~repro.obs.Tracer`, sharable with the request scheduler)
        records per-tick span timelines — the maintain run tree plus WAL
        append / checkpoint swap events when ``durability`` is set."""
        self.pool = pool or DevicePool(n_devices, policy="least-loaded")
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NULL_TRACER
        self.max_lag_ticks = max_lag_ticks
        self.durability = durability
        self.streams: list[RegisteredStream] = []
        self._sessions: dict[str, LobsterSession] = {}

    # ------------------------------------------------------------------

    def register(
        self,
        view: MaterializedView,
        feed: Window,
        period_s: float = 1e-3,
        name: str | None = None,
    ) -> RegisteredStream:
        """Schedule ``feed``'s deltas into ``view`` every ``period_s``
        simulated seconds."""
        if period_s <= 0:
            raise LobsterError("tick period must be > 0 simulated seconds")
        if view.metrics is None:
            # The view's per-tick instruments (maintain latency, changed
            # rows, fallbacks) land in the shared registry, next to the
            # request path's.
            view.metrics = self.metrics
        entry = RegisteredStream(
            name=name or view.name, view=view, feed=feed, period_s=period_s
        )
        if self.durability is not None and entry.name not in self.durability.streams:
            self.durability.register(entry.name, view, feed)
        self.streams.append(entry)
        self.metrics.gauge("stream.registered_views").set(len(self.streams))
        return entry

    def _session_for(self, view: MaterializedView) -> LobsterSession:
        """One warm session per execution-compatibility key
        (:attr:`LobsterEngine.program_key`), shared across views of the
        same program — and with the micro-batch groups of a request
        scheduler keyed the same way."""
        key = view.engine.program_key
        session = self._sessions.get(key)
        if session is None:
            session = LobsterSession(
                view.engine,
                pool=self.pool,
                metrics=self.metrics,
                tracer=self.tracer if self.tracer is not NULL_TRACER else None,
            )
            self._sessions[key] = session
        return session

    # ------------------------------------------------------------------

    def run(
        self,
        n_ticks: int,
        *,
        start_s: float = 0.0,
        busy_until: list[float] | None = None,
    ) -> StreamReport:
        """Advance every registered stream ``n_ticks`` source ticks on
        the serve clock, starting at ``start_s``; ``busy_until`` carries
        device occupancy in from a preceding request drain."""
        if not self.streams:
            raise LobsterError("no streams registered")
        free_at = seed_free_at(busy_until, self.pool)
        for entry in self.streams:
            entry.next_due_s = start_s
            entry.ticks_applied = 0  # per-run budget; feeds keep their state
        report = StreamReport(deltas=[], metrics=self.metrics, makespan_s=start_s)

        while True:
            due = [
                entry for entry in self.streams if entry.ticks_applied < n_ticks
            ]
            if not due:
                break
            entry = min(due, key=lambda e: (e.next_due_s, e.name))
            # The device frees earliest; the tick starts no earlier than
            # its schedule.
            device_index = min(range(len(free_at)), key=lambda i: (free_at[i], i))
            start = max(entry.next_due_s, free_at[device_index])
            lag = start - entry.next_due_s

            # Coalesce the backlog once lag exceeds the bound: every tick
            # already due at `start` merges into one net delta.
            delta = entry.feed.advance()
            applied = 1
            entry.next_due_s += entry.period_s
            if lag > self.max_lag_ticks * entry.period_s:
                while (
                    entry.ticks_applied + applied < n_ticks
                    and entry.next_due_s <= start
                ):
                    delta = delta.merged_with(entry.feed.advance())
                    applied += 1
                    entry.next_due_s += entry.period_s
            session = self._session_for(entry.view)
            tracer = self.tracer
            tick_span = None
            if tracer.enabled:
                tick_span = tracer.start(
                    "stream.tick",
                    t=start,
                    track=f"stream/{entry.name}",
                    stream=entry.name,
                    tick=entry.feed.next_tick,
                    ticks=applied,
                    device=device_index,
                    lag_s=round(lag, 9),
                )
                # Pin the cursor so the maintain run's span tree anchors
                # at this tick's start on the serve clock.
                tracer.set_time(start)
            runner = lambda db: session.run_batch(  # noqa: E731
                [db],
                device_index=device_index,
                retain=False,
                span_parent=tick_span,
            )[0]
            if self.durability is not None:
                if tick_span is not None:
                    self.durability.tracer = tracer
                    self.durability.trace_parent = tick_span
                try:
                    view_delta = self.durability.apply(
                        entry.name, delta, runner=runner
                    )
                finally:
                    if tick_span is not None:
                        self.durability.tracer = NULL_TRACER
                        self.durability.trace_parent = None
            else:
                view_delta = entry.view.apply(delta, runner=runner)
            finish = start + view_delta.service_seconds
            if tick_span is not None:
                tick_span.attrs["maintained"] = view_delta.maintained
                if view_delta.fallback is not None:
                    tick_span.attrs["fallback"] = view_delta.fallback
                tracer.finish(tick_span, finish)
            free_at[device_index] = finish
            entry.ticks_applied += applied

            report.deltas.append(view_delta)
            report.passes += 1
            report.ticks += applied
            report.coalesced += applied - 1
            report.makespan_s = max(report.makespan_s, finish)
            self.metrics.counter("stream.passes").inc()
            self.metrics.counter("stream.source_ticks").inc(applied)
            if applied > 1:
                self.metrics.counter("stream.ticks_coalesced").inc(applied - 1)
            self.metrics.histogram("stream.tick_lag_s").observe(lag)
            self.metrics.gauge("stream.live_rows").set(
                sum(e.feed.live_count for e in self.streams)
            )

        report.busy_until = list(free_at)
        self.metrics.gauge("stream.makespan_s").set(report.makespan_s)
        return report
