"""The Lobster engine facade — the library's main entry point.

Pipeline: Datalog source -> (parse, resolve, stratify) -> RAM -> APM ->
execution on the virtual device.  Existing Datalog-based neurosymbolic
programs run without modification; the reasoning mode is chosen by naming
a provenance semiring, exactly as in the paper.

Compilation happens **once per program**: the front-end artifact is served
from a content-addressed :class:`~repro.runtime.cache.ProgramCache`
(shared process-wide by default), so constructing many engines over the
same source — a serving fleet, a benchmark's per-sample loop — pays the
parse/lower/optimize cost a single time.  :class:`ExecutionResult` reports
the compile-vs-run split so steady-state throughput can be measured
separately from the one-time cost, SPEC-style.

Engines are also **incremental**: adding facts to an already-evaluated
database marks them as a delta, and the next :meth:`LobsterEngine.run`
seeds the semi-naive frontier from those deltas instead of recomputing
the full fix point.  Deltas are *signed*: :meth:`Database.retract_facts`
stages deletions, which the next run applies through a DRed-style
maintain pass (over-delete, head-restricted re-derive, delta-seeded
propagate).  Either way results match a cold evaluation.

Every run takes **one path** above the fix-point loop.
:meth:`LobsterEngine._resolve` picks the mode — ``cold``, ``incremental``
or ``maintain`` — from one requirement table (:data:`MODE_REQUIREMENTS`):
a mode whose required properties do not all hold falls back to a rebuild
and cold rerun, or raises if it was requested explicitly.
:meth:`LobsterEngine._execute` then runs the plan on one interpreter —
the caller's warm one (sessions, pools) or a fresh one on
``engine.device`` — with one attach/detach of tracer hooks and one
profile accounting.  Every run executes the engine's one compiled plan.

Example
-------
>>> engine = LobsterEngine('''
...     rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
... ''', provenance="unit")
>>> db = engine.create_database()
>>> _ = db.add_facts("edge", [(0, 1), (1, 2)])
>>> result = engine.run(db)
>>> sorted(db.result("path").rows())
[(0, 1), (0, 2), (1, 2)]
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .batching import prepend_sample, run_relations, sample_bounds
from .cache import (
    CompiledProgram,
    OptimizationConfig,
    ProgramCache,
    compile_source,
    default_cache,
)
from .database import Database
from .table import Table
from ..apm.compiler import ApmProgram
from ..apm.interpreter import DEFAULT_MAX_ITERATIONS, ApmInterpreter
from ..errors import LobsterError, ProvenanceError, RetractionUnsupportedError
from ..gpu.device import DeviceProfile, VirtualDevice
from ..obs import NULL_TRACER, Tracer
from ..provenance import registry
from ..provenance.base import Provenance

__all__ = [
    "ExecutionResult",
    "LobsterEngine",
    "OptimizationConfig",
]


@dataclass
class ExecutionResult:
    """Timing and profiling information for one engine run.

    The compile-vs-run split follows benchmarking practice (SPEC CPU2026):
    ``compile_seconds`` is the one-time front-end cost, everything else is
    steady state.
    """

    #: Host wall-clock seconds spent executing APM instructions for this
    #: run (measured, not modeled; excludes compilation).
    wall_seconds: float
    #: *Modeled* device-seconds of overhead for this run: host<->device
    #: transfer time from the device's bandwidth/latency model, plus
    #: simulated allocation latency on a device without buffer reuse.  These
    #: seconds are accounting from :class:`DeviceProfile` counters — they
    #: never elapse on the host clock.
    simulated_overhead_seconds: float
    #: Fix-point iterations executed across all strata in this run.
    iterations: int
    #: Device counters for this run (kernel launches, bytes moved, ...).
    profile: DeviceProfile
    #: One-time front-end cost paid by this engine's constructor; 0.0 when
    #: the compiled program was served from the program cache.
    compile_seconds: float = 0.0
    #: Whether the engine's program came from the cache (no recompilation).
    program_from_cache: bool = False
    #: Whether this run was delta-seeded (incremental) rather than a full
    #: fix-point computation.
    incremental: bool = False
    #: Whether this run was a DRed-style maintain pass (over-delete,
    #: re-derive, propagate) applying staged retractions in place.
    maintained: bool = False
    #: Why a run with staged retractions fell back to the checkpointed
    #: recompute (retractions applied to the fact log + cold rerun)
    #: instead of maintaining in place; None when no fallback happened.
    maintain_fallback: str | None = None
    #: How many databases this run evaluated: 1 for a run of its own
    #: database; k when :meth:`LobsterSession.run_batch` folded a
    #: micro-batch of k cold databases into one batched fix point
    #: (§4.3).  Every member's result then carries that one run's
    #: counters and wall time, and its share of the device time is
    #: ``service_seconds / fold_size``.
    fold_size: int = 1

    @property
    def total_seconds(self) -> float:
        """Steady-state cost: measured wall time + modeled overheads
        (compilation excluded — it amortizes across runs)."""
        return self.wall_seconds + self.simulated_overhead_seconds

    @property
    def service_seconds(self) -> float:
        """What this run costs on the serving clock: the modeled time
        the device was occupied by it
        (:attr:`~repro.gpu.device.DeviceProfile.busy_seconds` — kernels +
        transfers + allocation latency).

        This is the quantity the online scheduler charges per request —
        a device that just served a run is busy for ``service_seconds``
        of simulated time before the next micro-batch can start (a
        folded micro-batch's members all report the one run's seconds;
        each is charged ``service_seconds / fold_size``).  Being
        pure counter accounting from :class:`DeviceProfile`, it is
        deterministic for a given program and input, which is what makes
        serving latency distributions replayable.
        """
        return self.profile.busy_seconds

    def __repr__(self) -> str:  # compile-vs-run split at a glance
        compile_part = (
            "cached" if self.program_from_cache else f"{self.compile_seconds:.6f}s"
        )
        mode = ", incremental" if self.incremental else ""
        if self.maintained:
            mode += ", maintained"
        if self.fold_size > 1:
            mode += f", folded x{self.fold_size}"
        return (
            f"ExecutionResult(compile={compile_part}, "
            f"run={self.wall_seconds:.6f}s, "
            f"modeled_overhead={self.simulated_overhead_seconds:.6f}s, "
            f"iterations={self.iterations}{mode})"
        )


class Requirement(NamedTuple):
    """A property a run mode can require: its name, whether it holds for
    ``(engine, database)``, and the reason reported when it does not."""

    name: str
    holds: Callable[["LobsterEngine", Database], bool]
    reason: str


IDEMPOTENT = Requirement(
    "idempotent ⊕",
    lambda engine, database: database.provenance.idempotent_oplus,
    "provenance {provenance!r} has a non-idempotent ⊕ (re-derivation "
    "would double-count alternatives)",
)
NEGATION_FREE = Requirement(
    "negation-free",
    lambda engine, database: not engine.apm.has_negation,
    "program uses stratified negation (a delta can flip negated "
    "conclusions, which delta-seeding and over-delete/re-derive cannot express)",
)

#: The requirement table — the one place ⊕-idempotence and negation are
#: combined.  A run takes a mode only when every property
#: its row names holds; otherwise it falls back to ``cold`` and the first
#: missing property supplies the reason.  ``supports_incremental``,
#: ``supports_maintain`` and ``_resolve`` read it; docs/architecture.md renders it.
MODE_REQUIREMENTS: dict[str, tuple[Requirement, ...]] = {
    "cold": (),
    "incremental": (IDEMPOTENT, NEGATION_FREE),
    "maintain": (IDEMPOTENT, NEGATION_FREE),
}


class LobsterEngine:
    """Compile once, run against many databases."""

    def __init__(
        self,
        source: str,
        provenance: str | Provenance = "unit",
        device: VirtualDevice | None = None,
        optimizations: OptimizationConfig | None = None,
        batched: bool = False,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        cache: ProgramCache | None | bool = None,
        tracing: bool | Tracer = False,
        **provenance_kwargs,
    ):
        """``cache=None`` (default) uses the process-wide program cache;
        pass a :class:`ProgramCache` to scope reuse, or ``False`` to
        force a fresh compilation.

        ``tracing=True`` (or a :class:`~repro.obs.Tracer`) collects span
        timelines for every run on the modeled clocks — strata,
        iterations, variants — exportable via
        :meth:`~repro.obs.Tracer.export_perfetto`.  Tracing never
        charges the device, so traced results are bitwise identical to
        untraced ones.
        """
        self.source = source
        if tracing is True:
            tracing = Tracer()
        #: The engine's tracer (:data:`~repro.obs.NULL_TRACER` when off).
        self.tracer = tracing or NULL_TRACER
        self.batched = batched
        self.optimizations = optimizations or OptimizationConfig()
        self.max_iterations = max_iterations
        if isinstance(provenance, Provenance):
            if provenance_kwargs:
                raise ProvenanceError(
                    f"unexpected keyword(s) {sorted(provenance_kwargs)}: extra "
                    "keywords configure a semiring named by string, and "
                    "provenance= is already an instance"
                )
            template = copy.deepcopy(provenance)
            self._provenance_factory = lambda: copy.deepcopy(template)
            self.provenance_name = provenance.name
            self._provenance_kwargs = {}
        else:
            self.provenance_name = provenance
            self._provenance_kwargs = provenance_kwargs
            self._provenance_factory = lambda: registry.create(
                provenance, **provenance_kwargs
            )
        probe = self._provenance_factory()
        if not probe.supports_device:
            raise LobsterError(
                f"provenance {probe.name!r} has no device implementation "
                "(the paper's §3.5 limitation); use the Scallop baseline"
            )

        if cache is None or cache is True:
            cache = default_cache()
        #: Where this program's artifacts come from (False: compiled
        #: fresh every time) — the batched twin is fetched there too.
        self._cache = cache
        compiled, cache_hit = self._compile(batched)
        self.compiled: CompiledProgram = compiled
        self.cache_hit = cache_hit
        #: Front-end seconds paid by *this* construction (0.0 on a hit).
        self.compile_seconds = 0.0 if cache_hit else compiled.compile_seconds
        self.resolved = compiled.resolved
        self.ram = compiled.ram
        self.apm: ApmProgram = compiled.apm
        self._batch_fact_rows = compiled.batch_fact_rows
        self.device = device or VirtualDevice()
        #: Serializes session drains over this engine's device — held
        #: by every LobsterSession.run_all targeting this engine, so two
        #: sessions sharing one engine cannot interleave on its device.
        self._drain_lock = threading.Lock()
        #: The batched twin (:meth:`_batched_twin`): None until first
        #: asked for, False when this program has none.
        self._twin: LobsterEngine | None | bool = None

    def _compile(self, batched: bool) -> tuple[CompiledProgram, bool]:
        """``(artifact, cache_hit)`` for this program, plain or batched."""
        if self._cache is False:
            artifact = compile_source(
                self.source, self.provenance_name, self.optimizations, batched
            )
            return artifact, False
        return self._cache.get_or_compile(
            self.source, self.provenance_name, self.optimizations, batched
        )

    def _batched_twin(self) -> "LobsterEngine | None":
        """This program's sample-id rewrite (§4.3) as an engine sharing
        this one's device, semiring, flags and iteration cap — what
        :meth:`LobsterSession.run_batch` runs a folded micro-batch on.

        Compiled once, through the program cache, on first use.  None
        when the rewrite does not compile, or types a relation the run
        opens differently from this program (a relation typed only by
        its inline facts); that verdict is cached too, so such a
        program is tried once and then always runs back to back."""
        if self._twin is None:
            try:
                compiled, cache_hit = self._compile(batched=True)
            except LobsterError:
                self._twin = False
                return None
            sample, plain = compiled.resolved.schemas, self.resolved.schemas
            if any(
                sample.get(name, ())[1:] != plain[name]
                for name in run_relations(self.apm)
            ):
                self._twin = False
                return None
            twin = copy.copy(self)
            twin.batched, twin._twin = True, False
            twin.compiled, twin.cache_hit = compiled, cache_hit
            twin.compile_seconds = 0.0 if cache_hit else compiled.compile_seconds
            twin.resolved, twin.ram, twin.apm = compiled.resolved, compiled.ram, compiled.apm
            twin._batch_fact_rows = compiled.batch_fact_rows
            self._twin = twin
        return self._twin or None

    # ------------------------------------------------------------------

    @property
    def program_key(self) -> str:
        """The execution-compatibility key: work items coalesce onto one
        warm session iff they share the compiled program (the
        ProgramCache identity — source, provenance, optimization flags)
        *and* the same ``max_iterations``, the one engine setting that
        changes execution semantics without changing the artifact.  Used
        by the serving scheduler's micro-batch groups and the stream
        scheduler's per-program sessions."""
        return f"{self.compiled.key}:{self.max_iterations}"

    def create_database(self) -> Database:
        """A fresh database with this program's schemas and a fresh
        provenance instance (tags reference per-run input facts)."""
        database = Database(dict(self.resolved.schemas), self._provenance_factory())
        for predicate, rows in self.resolved.facts.items():
            if self.batched:
                continue  # fact blocks replicated per sample in add_batch
            database.add_facts(predicate, rows)
        return database

    def add_batch_facts(
        self,
        database: Database,
        name: str,
        sample_id: int,
        rows: list[tuple],
        probs=None,
        exclusive: bool = False,
    ) -> np.ndarray:
        """Register facts for one sample of a batched run."""
        if not self.batched:
            raise LobsterError("engine was not constructed with batched=True")
        return database.add_facts(
            name, prepend_sample(rows, sample_id), probs, exclusive
        )

    def replicate_fact_blocks(self, database: Database, n_samples: int) -> None:
        """Copy the program's inline fact blocks into every sample."""
        for predicate, rows in self._batch_fact_rows.items():
            for sample_id in range(n_samples):
                database.add_facts(predicate, prepend_sample(rows, sample_id))

    # ------------------------------------------------------------------

    def _missing(self, mode: str, database: Database) -> str | None:
        """Why ``mode`` is unsound for ``database`` on this engine: the
        first :data:`MODE_REQUIREMENTS` property missing, or None."""
        for requirement in MODE_REQUIREMENTS[mode]:
            if not requirement.holds(self, database):
                return requirement.reason.format(provenance=database.provenance.name)
        return None

    def supports_incremental(self, database: Database) -> bool:
        """Whether a delta-seeded re-run of ``database`` is sound (the
        ``incremental`` row of :data:`MODE_REQUIREMENTS` holds)."""
        return self._missing("incremental", database) is None

    def supports_maintain(self, database: Database) -> tuple[bool, str | None]:
        """Whether a DRed-style maintain pass of ``database`` is sound:
        ``(ok, reason)``, ``reason`` naming the first missing property of
        the ``maintain`` row of :data:`MODE_REQUIREMENTS`."""
        reason = self._missing("maintain", database)
        return reason is None, reason

    def run(
        self,
        database: Database,
        *,
        incremental: bool | None = None,
        maintain: bool | None = None,
        reset_profile: bool = True,
        _interpreter: ApmInterpreter | None = None,
        tracer: Tracer | None = None,
        span_parent=None,
    ) -> ExecutionResult:
        """Execute the program to fix point against ``database``.

        On a database that has already been evaluated and has received
        facts since (:meth:`Database.add_facts` marks them as a delta),
        the run is *warm*: when ``incremental`` is None the engine picks
        delta-seeded evaluation if :meth:`supports_incremental` allows,
        otherwise it transparently rebuilds and reruns from scratch —
        either way the results match a cold evaluation of all facts.

        A database with staged retractions (:meth:`Database.retract_facts`)
        takes the *maintain* path: when ``maintain`` is None the engine
        runs a DRed-style maintain pass if :meth:`supports_maintain`
        allows, otherwise it falls back to the checkpointed recompute
        (retractions applied to the fact log, then a cold rerun), with
        the reason recorded on :attr:`ExecutionResult.maintain_fallback`.
        ``maintain=True`` demands the in-place pass and raises
        :class:`~repro.errors.RetractionUnsupportedError` when it cannot
        be taken; ``maintain=False`` forces the fallback.  Either way the
        results match a cold evaluation of the surviving facts.

        ``reset_profile=False`` accumulates device counters instead of
        zeroing them (used by sessions sharing one device); the returned
        profile still covers only this run.

        ``tracer`` overrides the engine's own (the serve scheduler
        passes its serve-clock tracer so run spans nest under the
        micro-batch span supplied as ``span_parent``); the run span is
        anchored at the tracer's clock cursor and advances it by the
        run's modeled service seconds.
        """
        run_tracer = tracer if tracer is not None else self.tracer
        # Resolved before the span opens: a refused request never ran.
        mode, fallback = self._resolve(database, incremental, maintain)
        interpreter = _interpreter or self._make_interpreter(self.device)
        run_span = None
        if run_tracer.enabled:
            run_span = run_tracer.start(
                "engine.run",
                parent=span_parent,
                plan=self.compiled.key[:12],
                cache_hit=self.cache_hit,
                provenance=self.provenance_name,
            )
        result = self._execute(
            self.compiled.apm,
            database,
            mode,
            interpreter,
            reset_profile=reset_profile,
            tracer=run_tracer,
            run_span=run_span,
        )
        result.maintain_fallback = fallback
        if run_span is not None:
            run_span.attrs.update(
                iterations=result.iterations,
                incremental=result.incremental,
                maintained=result.maintained,
            )
            if result.maintain_fallback is not None:
                run_span.attrs["maintain_fallback"] = result.maintain_fallback
            end = run_span.start_s + result.service_seconds
            run_tracer.finish(run_span, end)
            # Advance the modeled cursor: the next run on this tracer
            # starts where this one's device occupancy ended.
            run_tracer.set_time(end)
        return result

    def _resolve(
        self, database: Database, incremental: bool | None, maintain: bool | None
    ) -> tuple[str, str | None]:
        """Decide this run's mode from :data:`MODE_REQUIREMENTS`:
        ``(mode, fallback)`` with mode one of ``cold`` / ``incremental``
        / ``maintain`` and ``fallback`` the reason staged retractions
        took the checkpointed recompute instead of the in-place pass.
        Applies the rebuild a fallback needs; an explicit request the
        table calls unsound raises instead of falling back."""
        fallback: str | None = None
        if database.has_pending_retractions:
            reason = self._missing("maintain", database)
            eligible = reason is None
            if not database.evaluated:
                # Nothing derived yet: the retraction only edits the
                # staged input facts, and the first run is cold anyway.
                eligible, reason = False, None
            if maintain is False:
                eligible, reason = False, "maintain=False requested"
            if eligible:
                return "maintain", None
            if maintain:
                raise RetractionUnsupportedError(
                    reason or "database has never been evaluated"
                )
            fallback = reason
            database.rebuild()  # discards retracted instances first
        elif maintain:
            raise RetractionUnsupportedError(
                "no retractions are staged; maintain=True only applies to "
                "a database with pending retract_facts deltas"
            )
        if database.evaluated and (database.has_pending_facts or incremental):
            reason = self._missing("incremental", database)
            if incremental and reason is not None:
                raise LobsterError(
                    f"incremental evaluation is unsound here: {reason}; "
                    "let the engine fall back by omitting incremental=True"
                )
            if incremental or (incremental is None and reason is None):
                database.begin_delta_tracking()
                return "incremental", None
            database.rebuild()
        return "cold", fallback

    def _make_interpreter(
        self, device: VirtualDevice, warm: bool = False
    ) -> ApmInterpreter:
        """An interpreter on ``device`` under this engine's optimization
        flags and the device's allocator setting.  ``warm`` (sessions)
        keeps allocation sites across runs, so on a reusing device queries
        after the first reuse the previous one's buffers."""
        return ApmInterpreter(
            device,
            enable_static_reuse=self.optimizations.static_indices,
            max_iterations=self.max_iterations,
            retain_allocation_sites=warm,
        )

    def _execute(
        self,
        apm: ApmProgram,
        database: Database,
        mode: str,
        interpreter: ApmInterpreter,
        *,
        reset_profile: bool,
        tracer,
        run_span,
    ) -> ExecutionResult:
        """Run ``apm`` in the resolved ``mode`` on ``interpreter`` and
        account the run: the profile delta and the :class:`ExecutionResult`."""
        profile = interpreter.device.profile
        if reset_profile:
            profile.reset()
        before = profile.snapshot()
        iterations_before = interpreter.iterations_run
        if run_span is not None:
            # Interior spans (strata, iterations, variants) timestamp
            # themselves off the device busy clock, anchored at the run
            # span's start.
            interpreter.tracer = tracer
            interpreter.trace_parent = run_span
            interpreter.trace_clock = tracer.device_clock(interpreter.device)
        start = time.perf_counter()
        try:
            if mode == "maintain":
                interpreter.maintain(apm, database)
            else:
                interpreter.run(apm, database, incremental=mode == "incremental")
        except BaseException as error:
            if run_span is not None:
                # A failed run closes whatever it left open, and its own
                # span, at the device clock.
                end = interpreter.trace_clock()
                tracer.finish_open(run_span, end)
                run_span.attrs["error"] = type(error).__name__
                tracer.finish(run_span, end)
                tracer.set_time(end)
            raise
        finally:
            interpreter.tracer = NULL_TRACER
            interpreter.trace_clock = interpreter.trace_parent = None
        wall = time.perf_counter() - start
        database.evaluated = True
        # The result always carries its own per-run counter copy — the
        # live device profile is reset by the next run on this engine.
        profile = profile.since(before)
        overhead = profile.transfer_seconds + (
            0.0 if interpreter.reuse_buffers else profile.alloc_seconds
        )
        return ExecutionResult(
            wall,
            overhead,
            interpreter.iterations_run - iterations_before,
            profile,
            compile_seconds=self.compile_seconds,
            program_from_cache=self.cache_hit,
            incremental=mode == "incremental",
            maintained=mode == "maintain",
        )

    # ------------------------------------------------------------------

    def export_database(self, database: Database, path) -> None:
        """Write ``database``'s full state to ``path`` in the durability
        subsystem's checkpoint format (CRC-framed, atomically swapped) —
        a compact interchange another process imports with
        :meth:`import_database`."""
        from ..recovery import export_database  # lazy: recovery sits above

        export_database(path, database)

    def import_database(self, path) -> Database:
        """Load a database exported by :meth:`export_database` onto this
        engine's semiring (a fresh provenance instance is set up on the
        restored input facts).  Raises
        :class:`~repro.errors.CheckpointMismatchError` if the export was
        written under a different provenance, and
        :class:`~repro.errors.CorruptLogError` if the file fails CRC
        framing."""
        from ..recovery import import_database  # lazy: recovery sits above

        return import_database(path, self)

    # ------------------------------------------------------------------

    def query(self, database: Database, name: str) -> list[tuple]:
        return database.result(name).rows()

    def query_probs(self, database: Database, name: str) -> dict[tuple, float]:
        rows, probs = database.result_probs(name)
        return dict(zip(rows, np.asarray(probs, dtype=np.float64).tolist()))

    def query_by_sample(self, database: Database, name: str) -> dict[int, dict[tuple, float]]:
        """Disaggregate a batched result into per-sample databases."""
        if not self.batched:
            raise LobsterError("engine was not constructed with batched=True")
        table = database.result(name)
        probs = database.provenance.prob(table.tags).tolist()
        samples = table.columns[0]
        # ``full`` sorts sample-first: each sample's rows are one run.
        firsts = np.ones(len(samples), dtype=bool)
        firsts[1:] = samples[1:] != samples[:-1]
        ids = samples[firsts]
        bounds = sample_bounds(samples, ids)
        out: dict[int, dict[tuple, float]] = {}
        for sample, lo, hi in zip(ids.tolist(), bounds[:-1], bounds[1:]):
            rows = Table([c[lo:hi] for c in table.columns[1:]], table.tags[lo:hi], hi - lo)
            out[sample] = dict(zip(rows.rows(), probs[lo:hi]))
        return out

    def backward(
        self, database: Database, name: str, grad_out: dict[tuple, float]
    ) -> np.ndarray:
        """Back-propagate loss gradients on a relation's fact probabilities
        to the input facts; returns d(loss)/d(input_probs)."""
        provenance = database.provenance
        if not provenance.is_differentiable:
            raise LobsterError(f"provenance {provenance.name!r} is not differentiable")
        table = database.result(name)
        rows = table.rows()
        grads = np.array([grad_out.get(row, 0.0) for row in rows], dtype=np.float64)
        grad_in = np.zeros(database.n_input_facts, dtype=np.float64)
        provenance.backward(table.tags, grads, grad_in)
        return grad_in
