"""APM execution (Algorithm 1).

Executes a compiled :class:`~repro.apm.compiler.ApmProgram` against a
:class:`~repro.runtime.database.Database` on a
:class:`~repro.gpu.device.VirtualDevice`.

Each stratum runs to a least fix point: per iteration the interpreter
executes every rule variant's straight-line instruction list, accumulates
delta tables, and advances each relation (the Appendix A "Stratum" rule's
sort/unique⟨⊕⟩/merge sequence, executed by
:meth:`~repro.runtime.relation.StoredRelation.advance` on the same device
kernels).  Iteration stops when the frontier — new facts plus facts whose
tags improved — is empty.

The interpreter also drives the paper's runtime optimizations:

* buffer accounting and reuse (§4.1) — fresh allocations after the first
  iteration at a known allocation site are counted as reused and skip the
  simulated allocation latency;
* static hash-index reuse (§4.2) — ``Build`` instructions with a
  ``static_key`` consult the device's static-register cache;
* stratum offload scheduling (§5.3) — host<->device transfers are charged
  according to the plan from :mod:`repro.apm.schedule`.
"""

from __future__ import annotations

import numpy as np

from . import instructions as I
from .compiler import ApmProgram, CompiledStratum, Variant
from .schedule import cached_plan
from ..errors import DeviceOutOfMemory, ExecutionError
from ..gpu import bytecode
from ..obs import NULL_TRACER
from ..gpu.device import ALLOC_LATENCY_S, VirtualDevice
from ..gpu.hash_table import HashIndex
from ..runtime.database import Database
from ..runtime.relation import RowLocator
from ..runtime.table import Table

DEFAULT_MAX_ITERATIONS = 100_000


def scans_of_variant(variant: Variant) -> list[str]:
    """Predicates of a variant's Load instructions, in order.  For an
    unoptimized variant this is the RAM ``scans_of`` order, which is
    what aligns ``rederive_filters``' scan indices with Load positions."""
    return [
        instruction.predicate
        for instruction in variant.instructions
        if isinstance(instruction, I.Load)
    ]


class ApmInterpreter:
    """Executes APM programs on the virtual device."""

    def __init__(
        self,
        device: VirtualDevice,
        enable_static_reuse: bool = True,
        enable_buffer_reuse: bool = True,
        enable_stratum_scheduling: bool = True,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        retain_allocation_sites: bool = False,
    ):
        self.device = device
        self.enable_static_reuse = enable_static_reuse
        self.enable_buffer_reuse = enable_buffer_reuse
        self.enable_stratum_scheduling = enable_stratum_scheduling
        self.max_iterations = max_iterations
        #: Keep allocation sites warm across run() calls — a session
        #: batching several databases through one program reuses the
        #: previous database's buffers at the same sites, so only the
        #: first database pays the simulated allocation latency.  Sites
        #: are registers, unique program-wide, so retention is safe.
        self.retain_allocation_sites = retain_allocation_sites
        self.iterations_run = 0
        self._seen_sites: set[str] = set()
        self._retained_bytes = 0
        #: Tracing attachments (set by the engine around a run): the
        #: tracer, a clock mapping this device's busy seconds onto the
        #: modeled timeline, and the span new spans nest under.  The
        #: defaults make every instrumentation site a single falsy
        #: attribute read.
        self.tracer = NULL_TRACER
        self.trace_clock = None
        self.trace_parent = None

    # ------------------------------------------------------------------

    def run(
        self, program: ApmProgram, database: Database, incremental: bool = False
    ) -> None:
        """Execute ``program`` to fix point against ``database``.

        ``incremental=True`` runs the delta-seeded warm path: instead of
        marking every fact recent and replaying EDB rules, iteration 1 of
        each stratum executes the compiler's delta variants over the rows
        changed since :meth:`Database.begin_delta_tracking`, and the
        frontier grows only from their consequences.  Callers are
        responsible for eligibility (idempotent ⊕, no negation).
        """
        database.finalize()
        transfers = cached_plan(program, self.enable_stratum_scheduling)
        for index, stratum in enumerate(program.strata):
            span = self._start_stratum_span(index, stratum)
            self._charge_transfers(transfers.get(index, ()), database, to_device=True)
            self._begin_stratum()
            self._run_stratum(stratum, database, program, incremental)
            self._charge_transfers(transfers.get(index, ()), database, to_device=False)
            self._finish_stratum_span(span)

    def maintain(self, program: ApmProgram, database: Database) -> None:
        """DRed-style maintenance: keep ``database``'s fix point correct
        under staged retractions (plus any pending insertions).

        Three phases, each reusing the normal execution machinery:

        1. **over-delete** — propagate dooms from the retracted rows
           through every rule (the compiled DELTA/RECENT variants with
           the frontier masks repurposed as doom frontiers), against the
           *pre-retraction* state, to a fix point: anything with at least
           one derivation touching a doomed row is doomed;
        2. **remove + re-stage** — doomed rows leave their relations;
           surviving input-fact instances whose rows were doomed are
           re-staged (:meth:`Database.apply_retractions`), and pending
           insertions fold in through the usual finalize;
        3. **re-derive + propagate** — per touched stratum, in order:
           first the head-restricted re-derivation step recovers removed
           rows still derivable from all-untouched survivors (each rule
           whose head relation lost rows executes over leaf scans
           semijoin-filtered by the removed rows' column projections,
           outputs post-filtered to exactly the removed set), then the
           stratum's semi-naive loop runs *delta-seeded* from everything
           that changed since the pass began — restaged inputs, pending
           insertions, and the re-derived rows.  Surviving rows are
           exactly correct already (any derivation through a doomed row
           would have doomed them), so nothing else needs revisiting,
           and untouched strata are skipped outright.

        Callers are responsible for eligibility (idempotent ⊕, no
        negation): non-idempotent ⊕ would double-count re-derived
        alternatives, and a retraction can *add* conclusions under
        negation, which over-delete/re-derive cannot express.
        """
        seeds = database.retraction_seeds()
        opened = None
        if self.tracer.enabled and self.trace_parent is not None:
            span = self.tracer.start(
                "maintain.over_delete",
                t=self.trace_clock(),
                parent=self.trace_parent,
            )
            opened = (span, self.trace_parent)
            self.trace_parent = span
        doomed = self._over_delete(program, database, seeds)
        self._finish_stratum_span(opened)
        affected = set(seeds)
        affected.update(name for name, mask in doomed.items() if mask.any())
        database.begin_delta_tracking()
        removed = database.apply_retractions(doomed)
        database.finalize()
        for name, rel in database.relations.items():
            if rel.n_changed():
                affected.add(name)
        transfers = cached_plan(program, self.enable_stratum_scheduling)
        for index, stratum in enumerate(program.strata):
            touched = affected & (
                self._stratum_reads(stratum) | set(stratum.predicates)
            )
            if not touched:
                continue
            span = self._start_stratum_span(index, stratum)
            self._charge_transfers(transfers.get(index, ()), database, to_device=True)
            self._begin_stratum()
            rederive_opened = None
            if self.tracer.enabled and self.trace_parent is not None:
                rederive_span = self.tracer.start(
                    "maintain.rederive",
                    t=self.trace_clock(),
                    parent=self.trace_parent,
                )
                rederive_opened = (rederive_span, self.trace_parent)
                self.trace_parent = rederive_span
            self._rederive(stratum, database, program, removed)
            self._finish_stratum_span(rederive_opened)
            self._run_stratum(stratum, database, program, incremental=True)
            self._charge_transfers(transfers.get(index, ()), database, to_device=False)
            self._finish_stratum_span(span)
            for predicate in stratum.predicates:
                if database.relation(predicate).n_changed():
                    affected.add(predicate)

    def _rederive(
        self,
        stratum: CompiledStratum,
        database: Database,
        program: ApmProgram,
        removed: dict[str, Table],
    ) -> None:
        """The DRed re-derive step: recover removed rows that are still
        one-step derivable from the surviving (post-removal) state.

        The delta-seeded loop that follows only fires rule instances
        touching a changed row, so it would miss a removed fact whose
        surviving derivation uses exclusively untouched facts — this
        step finds exactly those.  Each rule with removed head rows
        executes its all-FULL variant with every leaf scan pre-filtered
        by a per-column semijoin against the removed rows' projections
        (sound: an instance producing a removed head must draw the
        head-mapped columns from those value sets), and the outputs are
        post-filtered to exactly the removed rows.  Deeper re-derivations
        chain through the semi-naive tail as the recovered rows enter
        the frontier.
        """
        provenance = database.provenance
        deltas: dict[str, list[Table]] = {p: [] for p in stratum.predicates}
        locators: dict[str, RowLocator] = {}
        any_rederived = False
        for rule in stratum.rules:
            removed_head = removed.get(rule.target)
            if (
                removed_head is None
                or removed_head.n_rows == 0
                or rule.rederive_variant is None
            ):
                continue
            locator = locators.get(rule.target)
            if locator is None:
                locator = locators[rule.target] = RowLocator(removed_head)
            load_tables: list[Table | None] = []
            for scan_index, scan in enumerate(scans_of_variant(rule.rederive_variant)):
                mapped = rule.rederive_filters.get(scan_index)
                if not mapped:
                    load_tables.append(None)
                    continue
                table = database.relation(scan).snapshot(I.FULL)
                keep = np.ones(table.n_rows, dtype=bool)
                for scan_col, head_col in mapped:
                    keep &= np.isin(
                        table.columns[scan_col],
                        removed_head.columns[head_col],
                    )
                filtered = table.take(np.flatnonzero(keep))
                # The semijoin is a real kernel: charge its output.
                self.device.record_kernel(filtered.n_rows)
                load_tables.append(filtered)
            before = deltas[rule.target]
            staged: dict[str, list[Table]] = {rule.target: []}
            self._execute_variant(
                rule.rederive_variant, database, staged, iteration=1,
                load_tables=load_tables,
            )
            for table in staged[rule.target]:
                hit = locator.contains(table.columns, n_query=table.n_rows)
                if hit.any():
                    before.append(table.take(np.flatnonzero(hit)))
                    any_rederived = True
        # Builds over semijoin-filtered tables must never serve later
        # iterations as "static" indices — they are data-dependent.
        self.device.clear_statics()
        if not any_rederived:
            return
        for predicate in stratum.predicates:
            tables = deltas[predicate]
            if not tables:
                continue
            delta = Table.concat(tables, program.schemas[predicate], provenance)
            # advance() marks recovered rows recent/changed, so the
            # delta-seeded loop picks them up as frontier.
            database.relation(predicate).advance(delta)

    @staticmethod
    def _stratum_reads(stratum: CompiledStratum) -> set[str]:
        """Every predicate any of the stratum's variants loads."""
        return {
            instruction.predicate
            for rule in stratum.rules
            for variant in rule.variants + rule.delta_variants
            for instruction in variant.instructions
            if isinstance(instruction, I.Load)
        }

    def _over_delete(
        self,
        program: ApmProgram,
        database: Database,
        seeds: dict[str, list[tuple]],
    ) -> dict[str, np.ndarray]:
        """Doom propagation: boolean masks (over each relation's ``full``
        rows) of everything with a derivation through a retracted row.

        Runs against the pre-retraction state — nothing is removed here,
        so side atoms scan the original relations (the classic DRed
        over-approximation) and per-relation row locators stay valid for
        the whole pass.  Only variants whose frontier predicate gained
        doomed rows execute, so a quiescent iteration costs nothing."""
        provenance = database.provenance
        doomed: dict[str, np.ndarray] = {}
        newly: dict[str, np.ndarray] = {}
        locators: dict[str, object] = {}

        def locator(name: str):
            found = locators.get(name)
            if found is None:
                found = locators[name] = database.relation(name).locator()
            return found

        for name, rows in seeds.items():
            rel = database.relation(name)
            if rel.full.n_rows == 0 or not rows:
                continue
            columns = [
                np.array([row[j] for row in rows], dtype=dt)
                for j, dt in enumerate(rel.dtypes)
            ]
            mask = locator(name).member_mask(columns)
            if mask.any():
                doomed[name] = mask.copy()
                newly[name] = mask

        self._begin_stratum()
        all_preds = [p for stratum in program.strata for p in stratum.predicates]
        iteration = 0
        previous_frontier: set[str] = set()
        while newly:
            iteration += 1
            self.iterations_run += 1
            if iteration > self.max_iterations:
                raise ExecutionError(
                    f"over-delete exceeded {self.max_iterations} iterations "
                    "without saturating"
                )
            # Expose the doom frontier through the semi-naive masks: the
            # compiled DELTA/RECENT variants then enumerate exactly the
            # rule instances touching a newly doomed row.  Only last
            # iteration's frontier relations need re-zeroing — variants
            # are executed only when their frontier relation is in
            # ``newly``, so other relations' masks are never read here
            # (and everything is reset once the loop ends).
            for name in previous_frontier - set(newly):
                rel = database.relation(name)
                rel.recent_mask = np.zeros(rel.full.n_rows, dtype=bool)
                rel.changed_mask = rel.recent_mask
            for name, frontier in newly.items():
                rel = database.relation(name)
                rel.recent_mask = frontier
                rel.changed_mask = frontier
            previous_frontier = set(newly)
            deltas: dict[str, list[Table]] = {p: [] for p in all_preds}
            for stratum in program.strata:
                for rule in stratum.rules:
                    for variant in rule.delta_variants:
                        if self._frontier_live(variant, newly):
                            # iteration + 1 > 1 keeps static hash indices
                            # warm: FULL relations never change mid-pass.
                            self._execute_variant(
                                variant, database, deltas, iteration + 1
                            )
                    if rule.edb_only:
                        continue
                    for variant in rule.variants:
                        if self._frontier_live(variant, newly):
                            self._execute_variant(
                                variant, database, deltas, iteration + 1
                            )
            newly = {}
            for predicate, tables in deltas.items():
                if not tables:
                    continue
                rel = database.relation(predicate)
                if rel.full.n_rows == 0:
                    continue
                table = Table.concat(
                    tables, program.schemas[predicate], provenance
                )
                if table.n_rows == 0:
                    continue
                hit = locator(predicate).member_mask(table.columns)
                prior = doomed.setdefault(
                    predicate, np.zeros(rel.full.n_rows, dtype=bool)
                )
                fresh = hit & ~prior
                if fresh.any():
                    prior |= fresh
                    newly[predicate] = fresh
        # Leave no stale frontier behind for the re-derive phase.
        for rel in database.relations.values():
            rel.clear_recent()
            rel.changed_mask = np.zeros(rel.full.n_rows, dtype=bool)
        return doomed

    @staticmethod
    def _frontier_live(variant: Variant, newly: dict[str, np.ndarray]) -> bool:
        if variant.frontier is None:
            return False
        frontier = newly.get(variant.frontier[0])
        return frontier is not None and bool(frontier.any())

    def _start_stratum_span(self, index: int, stratum: CompiledStratum):
        """Open a stratum span on the attached trace clock and make it
        the parent for the spans the stratum's execution opens; returns
        the previous parent for :meth:`_finish_stratum_span`."""
        if not self.tracer.enabled or self.trace_parent is None:
            return None
        span = self.tracer.start(
            "stratum",
            t=self.trace_clock(),
            parent=self.trace_parent,
            index=index,
            predicates=",".join(stratum.predicates),
            recursive=stratum.recursive,
        )
        previous, self.trace_parent = self.trace_parent, span
        return span, previous

    def _finish_stratum_span(self, opened) -> None:
        if opened is None:
            return
        span, previous = opened
        self.tracer.finish(span, self.trace_clock())
        self.trace_parent = previous

    def _begin_stratum(self) -> None:
        """The per-stratum reset protocol (run, maintain and over-delete
        all start strata through it): static hash indices are
        data-dependent (always reset); allocation sites persist across
        strata only under retention; retained-temporary accounting — the
        no-buffer-reuse failure mode — is per-stratum.
        """
        self.device.clear_statics()
        if not self.retain_allocation_sites:
            self._seen_sites.clear()
        # Without buffer reuse (§4.1), temporaries released across
        # iterations fragment the arena and their footprint accumulates —
        # the failure mode GDLog's over-allocate-and-reuse fix addresses.
        # With reuse, an iteration's temporaries recycle into the next.
        self._retained_bytes = 0

    def _charge_transfers(self, spec, database: Database, to_device: bool) -> None:
        if not spec:
            return
        relations = spec[0] if to_device else spec[1]
        for name in relations:
            if name in database.relations:
                nbytes = database.relations[name].nbytes()
                self.device.record_transfer(nbytes, to_device)

    # ------------------------------------------------------------------

    def _run_stratum(
        self,
        stratum: CompiledStratum,
        database: Database,
        program: ApmProgram,
        incremental: bool = False,
    ) -> None:
        provenance = database.provenance
        for predicate in stratum.predicates:
            relation = database.relation(predicate)
            if incremental:
                # Seed the frontier with only the rows changed this pass
                # (e.g. EDB facts folded directly into an IDB predicate).
                relation.seed_recent_from_changes()
            else:
                relation.mark_all_recent()

        iteration = 0
        while True:
            iteration += 1
            self.iterations_run += 1
            opened = None
            if self.tracer.enabled and self.trace_parent is not None:
                span = self.tracer.start(
                    "iteration",
                    t=self.trace_clock(),
                    parent=self.trace_parent,
                    n=iteration,
                )
                opened = (span, self.trace_parent)
                self.trace_parent = span
            deltas: dict[str, list[Table]] = {p: [] for p in stratum.predicates}
            for rule in stratum.rules:
                if incremental and iteration == 1:
                    # Δ(A ⋈ B) over non-recursive atoms: each delta
                    # variant scans one atom's changed rows against the
                    # others' full partitions.  Recursive atoms are
                    # handled by the normal RECENT variants below.
                    for variant in rule.delta_variants:
                        self._execute_variant(variant, database, deltas, iteration)
                if rule.edb_only and (incremental or iteration > 1):
                    # An incremental pass never replays flat rules in
                    # full — their prior output is already stored.
                    continue
                for variant in rule.variants:
                    self._execute_variant(variant, database, deltas, iteration)

            frontier = 0
            for predicate in stratum.predicates:
                dtypes = program.schemas[predicate]
                delta = Table.concat(deltas[predicate], dtypes, provenance)
                frontier += database.relation(predicate).advance(delta)

            if opened is not None:
                opened[0].attrs["frontier"] = frontier
                self._finish_stratum_span(opened)
            if not stratum.recursive or frontier == 0:
                break
            if iteration >= self.max_iterations:
                raise ExecutionError(
                    f"stratum over {stratum.predicates} exceeded "
                    f"{self.max_iterations} iterations without saturating"
                )

    # ------------------------------------------------------------------

    def _execute_variant(
        self,
        variant: Variant,
        database: Database,
        deltas: dict[str, list[Table]],
        iteration: int,
        load_tables: list[Table | None] | None = None,
    ) -> None:
        """``load_tables``, when given, substitutes the k-th Load
        instruction's table (None entries fall through to the database
        partition) — the DRed re-derive step uses this to execute a
        rule over semijoin-filtered leaf scans.  Entries are consumed in
        Load order, which for an unoptimized variant is the RAM
        ``scans_of`` order."""
        tracer = self.tracer
        tracing = tracer.enabled and self.trace_parent is not None
        variant_span = None
        if tracing:
            variant_span = tracer.start(
                "variant",
                t=self.trace_clock(),
                parent=self.trace_parent,
                rule=variant.rule_key or "",
            )
        kernel_trace = tracing and tracer.kernels
        registers: dict[str, np.ndarray] = {}
        provenance = database.provenance
        profile = self.device.profile
        load_index = 0

        def put(name: str, array: np.ndarray, charge: bool = True) -> None:
            registers[name] = array
            if not charge:
                return
            # Charged registers are kernel outputs: tick the modeled
            # compute clock (launch overhead + per-row cost, §5.3-style
            # accounting) alongside the allocation counters.
            self.device.record_kernel(len(array))
            profile.allocation_count += 1
            if self.enable_buffer_reuse and name in self._seen_sites:
                profile.reused_allocations += 1
            else:
                profile.bytes_allocated += array.nbytes
                profile.alloc_seconds += ALLOC_LATENCY_S
            self._seen_sites.add(name)
            self._check_capacity(database, registers)

        for instruction in variant.instructions:
            profile.record_instruction(type(instruction).__name__)
            if kernel_trace:
                kernel_start_s = self.trace_clock()

            if isinstance(instruction, I.Load):
                table = None
                if load_tables is not None and load_index < len(load_tables):
                    table = load_tables[load_index]
                load_index += 1
                if table is None:
                    table = database.relation(instruction.predicate).snapshot(
                        instruction.partition
                    )
                for reg, column in zip(instruction.dst.cols, table.columns):
                    put(reg, column, charge=False)
                put(instruction.dst.tags, table.tags, charge=False)

            elif isinstance(instruction, I.EvalProject):
                src = instruction.src
                n = len(registers[src.tags])
                source_cols = [registers[c] for c in src.cols]
                for j, program in enumerate(instruction.programs):
                    dtype = instruction.dst.dtypes[j]
                    if isinstance(program, int):
                        column = source_cols[program]
                        if column.dtype != dtype:
                            column = column.astype(dtype)
                        put(instruction.dst.cols[j], column)
                    else:
                        value = bytecode.execute(program, source_cols, n)
                        put(instruction.dst.cols[j], np.asarray(value).astype(dtype))
                put(instruction.dst.tags, registers[src.tags], charge=False)

            elif isinstance(instruction, I.EvalFilter):
                src = instruction.src
                n = len(registers[src.tags])
                source_cols = [registers[c] for c in src.cols]
                mask = bytecode.execute(instruction.program, source_cols, n)
                keep = np.flatnonzero(mask.astype(bool))
                for dst, col in zip(instruction.dst.cols, source_cols):
                    put(dst, col[keep])
                put(instruction.dst.tags, registers[src.tags][keep])

            elif isinstance(instruction, I.Build):
                index = None
                if instruction.static_key and self.enable_static_reuse and iteration > 1:
                    index = self.device.get_static(instruction.static_key)
                if index is None:
                    columns = [registers[c] for c in instruction.src.cols]
                    index = HashIndex(columns, instruction.width)
                    profile.bytes_allocated += index.nbytes
                    if instruction.static_key and self.enable_static_reuse:
                        self.device.set_static(instruction.static_key, index)
                else:
                    profile.reused_allocations += 1
                registers[instruction.dst] = index  # type: ignore[assignment]

            elif isinstance(instruction, I.Probe):
                index = registers[instruction.index]
                probe_cols = [registers[c] for c in instruction.probe.cols[: instruction.width]]
                probe_ids, build_ids, _counts = index.probe(probe_cols)
                put(instruction.dst_build, build_ids)
                put(instruction.dst_probe, probe_ids)

            elif isinstance(instruction, I.AntiProbe):
                index = registers[instruction.index]
                probe_cols = [registers[c] for c in instruction.probe.cols[: instruction.width]]
                counts = index.count(probe_cols)
                put(instruction.dst, np.flatnonzero(counts == 0))

            elif isinstance(instruction, I.Gather):
                idx = registers[instruction.index]
                for dst, src in zip(instruction.dst_cols, instruction.src_cols):
                    put(dst, registers[src][idx])

            elif isinstance(instruction, I.GatherTags):
                left = registers[instruction.left_tags][registers[instruction.left_index]]
                right = registers[instruction.right_tags][registers[instruction.right_index]]
                put(instruction.dst, provenance.otimes(left, right))

            elif isinstance(instruction, I.CopyTags):
                put(instruction.dst, registers[instruction.src], charge=False)

            elif isinstance(instruction, I.CrossIndices):
                n_left = len(registers[instruction.left_tags])
                n_right = len(registers[instruction.right_tags])
                put(instruction.dst_left, np.repeat(np.arange(n_left, dtype=np.int64), n_right))
                put(instruction.dst_right, np.tile(np.arange(n_right, dtype=np.int64), n_left))

            elif isinstance(instruction, I.PassIfEmpty):
                guard_empty = len(registers[instruction.guard_tags]) == 0
                src = instruction.src
                if guard_empty:
                    for dst, col in zip(instruction.dst.cols, src.cols):
                        put(dst, registers[col], charge=False)
                    put(instruction.dst.tags, registers[src.tags], charge=False)
                else:
                    for dst, dtype in zip(instruction.dst.cols, instruction.dst.dtypes):
                        put(dst, np.empty(0, dtype=dtype), charge=False)
                    put(
                        instruction.dst.tags,
                        np.empty(0, dtype=provenance.tag_dtype()),
                        charge=False,
                    )

            elif isinstance(instruction, I.StoreDelta):
                src = instruction.src
                tags = registers[src.tags]
                columns = [registers[c] for c in src.cols]
                # Drop absorbing-zero facts eagerly — they can never
                # contribute to the fix point.
                dead = provenance.is_absorbing_zero(tags)
                if dead.any():
                    keep = np.flatnonzero(~dead)
                    columns = [c[keep] for c in columns]
                    tags = tags[keep]
                table = Table(columns, tags, len(tags))
                if table.n_rows:
                    deltas[instruction.predicate].append(table)

            else:
                raise ExecutionError(f"unknown APM instruction {instruction!r}")

            if kernel_trace:
                span = tracer.start(
                    type(instruction).__name__,
                    t=kernel_start_s,
                    parent=variant_span,
                    kind="kernel",
                )
                tracer.finish(span, self.trace_clock())

        if variant_span is not None:
            tracer.finish(variant_span, self.trace_clock())
        if not self.enable_buffer_reuse:
            self._retained_bytes += sum(
                value.nbytes
                for value in registers.values()
                if isinstance(value, np.ndarray)
            )

    # ------------------------------------------------------------------

    def _check_capacity(self, database: Database, registers: dict) -> None:
        if self.device.capacity_bytes is None:
            return
        register_bytes = sum(
            value.nbytes for value in registers.values() if isinstance(value, np.ndarray)
        )
        live = register_bytes + database.total_bytes() + self._retained_bytes
        self.device.profile.peak_arena_bytes = max(
            self.device.profile.peak_arena_bytes, live
        )
        if live > self.device.capacity_bytes:
            raise DeviceOutOfMemory(
                f"live bytes {live} exceed device capacity "
                f"{self.device.capacity_bytes}"
            )
