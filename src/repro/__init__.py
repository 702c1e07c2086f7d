"""repro — a reproduction of Lobster (ASPLOS 2026): a GPU-accelerated
framework for neurosymbolic programming.

Public API highlights:

* :class:`repro.LobsterEngine` — compile and run Datalog programs with a
  chosen provenance semiring on the virtual GPU device.
* :class:`repro.LobsterSession` — batch many independent databases
  through one compiled program on a shared device (the serving layer),
  optionally round-robined across a :class:`repro.DevicePool`.
* :mod:`repro.dist` — device pools: :class:`repro.DevicePool` spreads
  independent queries across several virtual devices (round-robin or
  least-loaded), the substrate sessions and the serving scheduler use.
* :mod:`repro.serve` — the online serving front-end: SLO-classed
  requests, admission control, micro-batching scheduler over a device
  pool, Poisson/bursty load generation, and the metrics registry.
* :mod:`repro.stream` — streaming incremental view maintenance:
  replayable sources, tumbling/sliding windows emitting retractions,
  :class:`repro.MaterializedView`\\ s kept continuously correct through
  the engine's DRed-style maintain path, live subscriptions, and the
  :class:`repro.StreamScheduler` tick path on the serve clock.
* :mod:`repro.recovery` — durability for streaming views: CRC-framed
  write-ahead log + atomically swapped checkpoints
  (:class:`repro.RecoveryManager`), verified crash recovery
  (:func:`repro.recover`), durable subscription cursors, and the
  database export/import interchange.
* :class:`repro.ProgramCache` / :func:`repro.default_cache` — the
  content-addressed compile-once cache behind every engine construction:
  one plan per program, ordered by the syntactic join heuristic.
* :mod:`repro.obs` — deterministic end-to-end tracing on the modeled
  clocks: span timelines from request to kernel
  (``LobsterEngine(tracing=True)``, ``Scheduler(tracer=...)``), profile
  reports, and Perfetto/Chrome
  trace-event export — two same-seed runs export byte-identical JSON.
* :mod:`repro.provenance` — the semiring library (discrete, probabilistic,
  differentiable).
* :mod:`repro.baselines` — Scallop/Soufflé/ProbLog/FVLog stand-ins.
* :mod:`repro.workloads` — the paper's nine benchmark tasks.
* :mod:`repro.nn` — a minimal autodiff substrate for end-to-end training.
"""

from .errors import (
    CheckpointMismatchError,
    CompileError,
    CorruptLogError,
    DeviceOutOfMemory,
    EvaluationTimeout,
    ExecutionError,
    LobsterError,
    ParseError,
    ResolutionError,
    RetractionUnsupportedError,
    SessionError,
    StaleViewError,
    StratificationError,
    TicketNotRunError,
    UnknownTicketError,
)
from .dist import DevicePool
from .gpu.device import DeviceProfile, VirtualDevice
from .runtime.cache import (
    CompiledProgram,
    OptimizationConfig,
    ProgramCache,
    default_cache,
)
from .recovery import (
    RecoveryInfo,
    RecoveryManager,
    export_database,
    import_database,
    recover,
)
from .obs import Span, Tracer, export_perfetto, profile
from .runtime.database import Database
from .runtime.engine import ExecutionResult, LobsterEngine
from .runtime.session import LobsterSession, SessionReport
from .serve import (
    AdmissionController,
    LoadGenerator,
    MetricsRegistry,
    Outcome,
    Request,
    Scheduler,
    ServeReport,
    SLOClass,
    StreamReport,
    StreamScheduler,
)
from .stream import (
    MaterializedView,
    RelationStream,
    SlidingWindow,
    Subscription,
    TickDelta,
    TumblingWindow,
    ViewDelta,
)

__version__ = "0.11.0"

__all__ = [
    "AdmissionController",
    "CheckpointMismatchError",
    "CompileError",
    "CompiledProgram",
    "CorruptLogError",
    "Database",
    "DeviceOutOfMemory",
    "DevicePool",
    "DeviceProfile",
    "LoadGenerator",
    "MetricsRegistry",
    "Outcome",
    "Request",
    "Scheduler",
    "ServeReport",
    "SLOClass",
    "EvaluationTimeout",
    "ExecutionError",
    "ExecutionResult",
    "LobsterEngine",
    "LobsterError",
    "LobsterSession",
    "MaterializedView",
    "OptimizationConfig",
    "ParseError",
    "ProgramCache",
    "RecoveryInfo",
    "RecoveryManager",
    "RelationStream",
    "ResolutionError",
    "RetractionUnsupportedError",
    "SessionError",
    "SessionReport",
    "SlidingWindow",
    "Span",
    "StaleViewError",
    "StratificationError",
    "StreamReport",
    "StreamScheduler",
    "Subscription",
    "TickDelta",
    "TicketNotRunError",
    "Tracer",
    "TumblingWindow",
    "UnknownTicketError",
    "ViewDelta",
    "VirtualDevice",
    "__version__",
    "default_cache",
    "export_database",
    "export_perfetto",
    "import_database",
    "profile",
    "recover",
]
