"""The online serving front-end.

Where :class:`~repro.runtime.session.LobsterSession` drains an offline
batch over one device or a :class:`~repro.dist.DevicePool`, ``serve/``
adds the missing *online* layer: requests arrive over time, carry
latency objectives, and the system must decide what to run, coalesce,
or refuse.  Six pieces compose it:

* :mod:`~repro.serve.request` — :class:`Request`\\ s in
  :class:`SLOClass`\\ es (``interactive`` / ``batch``), each ending in
  exactly one :class:`Outcome` (completed / rejected / shed);
* :mod:`~repro.serve.queue` — per-(class, compiled-program) micro-batch
  groups with size and delay bounds;
* :mod:`~repro.serve.admission` — queue-depth and deadline-feasibility
  load shedding with explicit rejections and a backpressure signal;
* :mod:`~repro.serve.scheduler` — the clock-driven event loop
  dispatching micro-batches onto the least-loaded pool device through
  warm per-program sessions;
* :mod:`~repro.serve.loadgen` / :mod:`~repro.serve.metrics` — seeded
  Poisson/bursty open-loop arrivals, and the counter/gauge/histogram
  registry every layer reports into;
* :mod:`~repro.serve.streaming` — the maintenance tick path: registered
  :class:`~repro.stream.view.MaterializedView`\\ s run their window
  deltas on the serve clock, sharing devices and metrics with request
  traffic.

The whole stack runs on *simulated* time (arrivals from the load
generator, service from the device cost model), so a serving run's
latency distribution is deterministic and testable.
"""

from .admission import AdmissionController, ServiceEstimator
from .loadgen import LoadGenerator
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
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
from .scheduler import Scheduler, ServeReport
from .streaming import StreamReport, StreamScheduler

__all__ = [
    "COMPLETED",
    "REJECTED",
    "SHED",
    "AdmissionController",
    "BatchGroup",
    "Counter",
    "Gauge",
    "Histogram",
    "LoadGenerator",
    "MetricsRegistry",
    "Outcome",
    "Request",
    "RequestQueue",
    "SLOClass",
    "Scheduler",
    "ServeReport",
    "ServiceEstimator",
    "StreamReport",
    "StreamScheduler",
    "default_slo_classes",
]
