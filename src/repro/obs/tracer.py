"""Deterministic span tracing on the engine's simulated clocks.

Every timestamp a :class:`Span` carries is *modeled* time — the serve
clock's simulated seconds or a :class:`~repro.gpu.device.DeviceProfile`
busy-seconds delta mapped onto it.  Host wall time never enters, so two
runs with the same seed produce byte-identical traces (the same
discipline as the serving layer's latency histograms).

Span and trace IDs are splitmix64 over ``(seed, sequence)``, so IDs are
stable across runs and carry no object identity or allocation order.

The tracer is opt-in and cheap when off: :data:`NULL_TRACER` is a no-op
singleton whose ``enabled`` is always False, and every instrumentation
site guards on that single attribute before building a span.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """Scalar splitmix64 finalizer."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Span:
    """One timed (or instant) region on a track of the modeled timeline.

    Mutable until finished: instrumentation sites open a span at a known
    start time, attach attributes as facts become available (cache hit,
    iteration counts, fallback reasons), and close it at the modeled end
    time.  ``kind`` is "span", "instant" (zero-duration markers) or
    "kernel" (per-instruction spans under ``Tracer(kernels=True)``);
    ``track`` names the parallel resource the span occupies (a device or
    a request lane) for the exporter's thread lanes.
    """

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "track",
        "kind",
        "start_s",
        "end_s",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        trace_id: str,
        parent_id: str | None,
        track: str,
        start_s: float,
        kind: str = "span",
        attrs: dict | None = None,
    ):
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.track = track
        self.kind = kind
        self.start_s = start_s
        self.end_s: float | None = None
        self.attrs: dict = attrs or {}

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    def __repr__(self) -> str:
        end = f"{self.end_s:.9f}" if self.end_s is not None else "open"
        return (
            f"Span({self.name!r}, track={self.track!r}, "
            f"[{self.start_s:.9f}, {end}], id={self.span_id})"
        )


class Tracer:
    """Collects spans keyed to the modeled clock.

    ``now`` is the tracer's clock cursor in simulated seconds; the serve
    scheduler pins it to each micro-batch's dispatch time
    (:meth:`set_time`), and engine runs advance it by their modeled
    service seconds, so nested run/stratum/variant spans line up exactly
    with the scheduler's outcome timestamps.

    ``sample_every=N`` traces every N-th serve request (by ticket);
    untraced batches run under :meth:`muted`, which makes ``enabled``
    False for the duration so the whole instrumentation tree no-ops.

    ``kernels=True`` additionally emits one span per APM instruction —
    the finest (and chattiest) level; off by default.
    """

    def __init__(self, seed: int = 0, sample_every: int = 1, kernels: bool = False):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.seed = seed
        self.sample_every = sample_every
        self.kernels = kernels
        self.spans: list[Span] = []
        self.now = 0.0
        self._sequence = 0
        self._mute_depth = 0

    # -- state ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._mute_depth == 0

    def reset(self) -> None:
        """Drop collected spans and rewind the clock and ID sequence —
        after this, an identical workload replays an identical trace."""
        self.spans = []
        self.now = 0.0
        self._sequence = 0
        self._mute_depth = 0

    @contextmanager
    def muted(self):
        """Suppress span collection for a region (unsampled batches)."""
        self._mute_depth += 1
        try:
            yield
        finally:
            self._mute_depth -= 1

    def sampled(self, index: int) -> bool:
        """Whether the ``index``-th unit (a request ticket) is traced."""
        return index % self.sample_every == 0

    def set_time(self, t: float) -> None:
        """Pin the clock cursor to a known modeled timestamp."""
        self.now = t

    def device_clock(self, device):
        """A callable mapping ``device``'s busy-seconds *from now on*
        onto the modeled timeline, anchored at the current cursor.  Work
        charged to the device's profile after this call moves the
        returned clock forward by exactly the charged seconds."""
        anchor = self.now
        profile = device.profile
        base = profile.busy_seconds
        return lambda: anchor + (profile.busy_seconds - base)

    # -- span lifecycle ------------------------------------------------

    def _next_id(self) -> str:
        self._sequence += 1
        return f"{_mix64(_mix64(self.seed) ^ self._sequence):016x}"

    def start(
        self,
        name: str,
        *,
        t: float | None = None,
        parent: Span | None = None,
        track: str | None = None,
        kind: str = "span",
        **attrs,
    ) -> Span | None:
        """Open a span at modeled time ``t`` (default: the cursor).
        Returns None when muted — callers pass the result straight back
        into :meth:`finish`, which tolerates it."""
        if self._mute_depth:
            return None
        span_id = self._next_id()
        span = Span(
            name,
            span_id,
            parent.trace_id if parent is not None else span_id,
            parent.span_id if parent is not None else None,
            track if track is not None else (parent.track if parent is not None else "main"),
            self.now if t is None else t,
            kind=kind,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span | None, t: float | None = None) -> None:
        if span is None:
            return
        span.end_s = self.now if t is None else t

    def finish_open(self, root: Span, t: float) -> None:
        """Finish every still-open descendant of ``root`` at ``t`` — a
        failure unwinds past the sites that would have closed them."""
        inside = {root.span_id}
        for span in self.spans:  # creation order: parents precede children
            if span.parent_id in inside:
                inside.add(span.span_id)
                if span.end_s is None:
                    span.end_s = t

    def event(
        self,
        name: str,
        *,
        t: float | None = None,
        parent: Span | None = None,
        track: str | None = None,
        **attrs,
    ) -> Span | None:
        """A zero-duration instant (admission verdicts, WAL appends —
        markers with no modeled cost of their own)."""
        span = self.start(
            name, t=t, parent=parent, track=track, kind="instant", **attrs
        )
        if span is not None:
            span.end_s = span.start_s
        return span

    # -- reporting conveniences ---------------------------------------

    def profile(self, **kwargs) -> str:
        from .report import profile

        return profile(self.spans, **kwargs)

    def to_trace_events(self) -> dict:
        from .export import to_trace_events

        return to_trace_events(self.spans)

    def export_perfetto(self, path) -> dict:
        from .export import export_perfetto

        return export_perfetto(self.spans, path)


class NullTracer:
    """The disabled tracer: every operation is a no-op and ``enabled``
    is permanently False, so instrumentation sites cost one attribute
    read.  A single process-wide instance (:data:`NULL_TRACER`) stands
    in wherever no tracer was configured."""

    enabled = False
    kernels = False
    spans: list = []
    now = 0.0
    sample_every = 1

    def reset(self) -> None:
        pass

    @contextmanager
    def muted(self):
        yield

    def sampled(self, index: int) -> bool:
        return False

    def set_time(self, t: float) -> None:
        pass

    def device_clock(self, device):
        return lambda: 0.0

    def start(self, name, **kwargs):
        return None

    def finish(self, span, t=None) -> None:
        pass

    def event(self, name, **kwargs):
        return None


NULL_TRACER = NullTracer()
