"""obs — deterministic end-to-end tracing on the simulated clocks.

Span timelines from serve request down to APM kernel, with profile
reports and Chrome trace-event / Perfetto JSON export.  All timestamps
are modeled seconds (serve clock + :class:`~repro.gpu.device.DeviceProfile`
busy time), so traces replay bit-for-bit per seed.

Opt in per layer::

    tracer = Tracer()
    engine = LobsterEngine(source, tracing=tracer)       # engine runs
    scheduler = Scheduler(pool, tracer=tracer)           # serve path
    ...
    print(tracer.profile())
    tracer.export_perfetto("trace.json")                 # open in Perfetto
"""

from .export import (
    dumps_trace_events,
    export_perfetto,
    to_trace_events,
    validate_trace_events,
)
from .report import profile
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "dumps_trace_events",
    "export_perfetto",
    "profile",
    "to_trace_events",
    "validate_trace_events",
]
