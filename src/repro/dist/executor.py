"""Sharded semi-naive execution across a pool of virtual devices.

One compiled :class:`~repro.apm.compiler.ApmProgram` runs on ``N``
:class:`~repro.gpu.device.VirtualDevice`\\ s under a *partitioned
frontier, replicated closure* scheme — the distributed semi-naive
evaluation used by parallel Datalog engines with broadcast join sides:

* every relation's rows are hash-assigned to exactly one **owner** shard
  (:mod:`repro.dist.partition`);
* each fix-point iteration, every shard executes the stratum's rule
  variants with its ``recent`` frontier restricted to the rows it owns —
  so the probe side of every recursive join, and hence the per-shard
  modeled kernel time, shrinks roughly 1/N;
* the per-shard deltas are **shuffled** to their owner shards
  (:mod:`repro.dist.exchange`), where duplicate derivations from
  different shards are ⊕-combined once (``sort``/``unique⟨⊕⟩``);
* the owners' merged deltas are **all-gathered** so every shard advances
  an identical replica of the closure, keeping build sides local.

Because each shard applies the *same* global deduplicated delta through
the same :meth:`~repro.runtime.relation.StoredRelation.advance` kernels,
shard state never diverges, and the final result matches a single-device
run row-for-row — and tag-for-tag for every commutative ⊕ (all shipped
semirings; floating-point ``addmultprob`` sums may reassociate).

Flat (non-recursive) rules scan only replicated ``full`` partitions, so
running them everywhere would derive each row N times; they are instead
round-robined across shards by rule index.

Negation is not sharded: stratified negation is only sound against
complete relations, and the engine falls back to single-device execution
for such programs rather than approximating (mirroring PR 1's
incremental fallback contract).
"""

from __future__ import annotations

import numpy as np

from .exchange import ExchangeOperator
from .partition import HashPartitioner, ShardMap
from ..apm.compiler import ApmProgram, CompiledStratum
from ..apm.interpreter import DEFAULT_MAX_ITERATIONS, ApmInterpreter
from ..apm.schedule import cached_plan
from ..errors import ExecutionError, LobsterError, RetractionUnsupportedError
from ..gpu.device import VirtualDevice
from ..provenance.base import Provenance
from ..runtime.database import Database
from ..runtime.relation import StoredRelation, dedup_table
from ..runtime.table import Table
from ..stats.feedback import PlanFeedback


class ShardView:
    """One shard's view of the database: replicated relation storage with
    shard-local frontier masks.  Duck-types the small surface of
    :class:`~repro.runtime.database.Database` the interpreter touches."""

    def __init__(self, schemas: dict, provenance: Provenance):
        self.schemas = schemas
        self.provenance = provenance
        self.relations: dict[str, StoredRelation] = {}

    def relation(self, name: str) -> StoredRelation:
        rel = self.relations.get(name)
        if rel is None:
            rel = StoredRelation(name, self.schemas[name], self.provenance)
            self.relations[name] = rel
        return rel

    def total_bytes(self) -> int:
        return sum(rel.nbytes() for rel in self.relations.values())


class ShardedExecutor:
    """Executes APM programs across a pool of shard devices."""

    def __init__(
        self,
        devices: list[VirtualDevice],
        enable_static_reuse: bool = True,
        enable_buffer_reuse: bool = True,
        enable_stratum_scheduling: bool = True,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        shard_map: ShardMap | None = None,
    ):
        if len(devices) < 1:
            raise ValueError("ShardedExecutor needs at least one device")
        if shard_map is not None and shard_map.n_shards != len(devices):
            raise ValueError(
                f"shard map covers {shard_map.n_shards} shards but "
                f"{len(devices)} devices were supplied"
            )
        self.devices = devices
        self.partitioner = shard_map or HashPartitioner(len(devices))
        self.exchange = ExchangeOperator(self.partitioner, devices)
        self.enable_static_reuse = enable_static_reuse
        self.enable_buffer_reuse = enable_buffer_reuse
        self.enable_stratum_scheduling = enable_stratum_scheduling
        self.max_iterations = max_iterations
        self.interpreters = [self._make_interpreter(device) for device in devices]
        self.iterations_run = 0
        self.reshards_applied = 0
        #: Optional mid-fixpoint reshard probe: called as
        #: ``hook(executor, stratum, iteration)`` at the top of every
        #: fix-point iteration; returning a :class:`ShardMap` re-homes
        #: the in-flight frontier onto the new shard set via
        #: :meth:`apply_reshard`, returning None continues as-is.
        self.reshard_hook = None
        self._views: list[ShardView] = []
        self._shard_feedbacks: list[PlanFeedback] | None = None

    def _make_interpreter(self, device: VirtualDevice) -> ApmInterpreter:
        return ApmInterpreter(
            device,
            enable_static_reuse=self.enable_static_reuse,
            enable_buffer_reuse=self.enable_buffer_reuse,
            enable_stratum_scheduling=self.enable_stratum_scheduling,
            max_iterations=self.max_iterations,
        )

    @property
    def n_shards(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------

    def run(
        self, program: ApmProgram, database: Database, feedback=None
    ) -> None:
        """Execute ``program`` to fix point against ``database``.

        The database's relations are replaced by the (identical-on-all-
        shards) sharded result, so downstream queries, probabilities, and
        gradients read it exactly as after a single-device run.

        ``feedback`` (a :class:`~repro.stats.PlanFeedback`) receives the
        per-shard derived-row counts from the exchange loop plus each
        interpreter's per-rule output cardinalities — the sharded half of
        the adaptive planner's estimate-vs-observation loop.
        """
        if program.has_negation:
            raise LobsterError(
                "sharded execution does not support negation (owner-merge "
                "over partial frontiers cannot retract); run single-device"
            )
        if database.has_pending_retractions:
            # The engine applies retractions before dispatching here (the
            # documented fallback: retractions edit the fact log, then the
            # query reruns cold across the shards — doom frontiers are
            # never routed through the exchange path).
            raise RetractionUnsupportedError(
                "sharded execution received staged retractions; apply them "
                "via Database.rebuild() (LobsterEngine.run does this) first"
            )
        database.finalize()
        self._views = self._make_views(program, database)
        transfers = cached_plan(program, self.enable_stratum_scheduling)
        # Each shard records into a private feedback: a shard's largest
        # firing is ~1/N of the rule's global output, so comparing it
        # against the whole-program estimates would inflate drift ~Nx
        # and trigger spurious re-planning.  Per-shard actuals are
        # summed into the caller's feedback after the run.
        self._shard_feedbacks = (
            [PlanFeedback() for _ in self.interpreters]
            if feedback is not None
            else None
        )
        for interpreter, local in zip(
            self.interpreters, self._shard_feedbacks or [None] * self.n_shards
        ):
            interpreter.feedback = local
        try:
            for index, stratum in enumerate(program.strata):
                # Per-shard stratum spans (no-ops unless the engine
                # attached tracers): each shard's lane shows its own
                # stratum timeline on its own busy clock.  A mid-stratum
                # reshard may swap the interpreter list, so the spans are
                # finished against the set that opened them.
                openers = list(self.interpreters)
                opened_spans = [
                    interpreter._start_stratum_span(index, stratum)
                    for interpreter in openers
                ]
                for shard in range(self.n_shards):
                    self.interpreters[shard]._charge_transfers(
                        transfers.get(index, ()), self._views[shard], to_device=True
                    )
                    self.interpreters[shard].begin_stratum()
                self._run_stratum(stratum, program, feedback)
                for shard in range(self.n_shards):
                    self.interpreters[shard]._charge_transfers(
                        transfers.get(index, ()), self._views[shard], to_device=False
                    )
                for interpreter, opened in zip(openers, opened_spans):
                    interpreter._finish_stratum_span(opened)
        finally:
            for interpreter in self.interpreters:
                interpreter.feedback = None
        if feedback is not None and self._shard_feedbacks is not None:
            # Sum the shards' per-rule peaks (the per-shard maxima may
            # come from different iterations, so this upper-bounds the
            # true global peak firing — the right bias for a drift
            # signal that must not under-report).
            shard_feedbacks = self._shard_feedbacks
            keys = {key for local in shard_feedbacks for key in local.rule_actuals}
            for key in keys:
                feedback.record_rule(
                    key,
                    sum(local.rule_actuals.get(key, 0) for local in shard_feedbacks),
                )
            for local in shard_feedbacks:
                for name, rows in local.instruction_rows.items():
                    feedback.record_instruction(name, rows)
        # Shard 0's replica is the authoritative result (all identical).
        for name, rel in self._views[0].relations.items():
            database.relations[name] = rel

    # ------------------------------------------------------------------

    def _make_views(self, program: ApmProgram, database: Database) -> list[ShardView]:
        """Per-shard views sharing the master's (immutable) EDB tables.

        Sharing the initial ``full`` tables is safe: ``advance`` never
        mutates a table in place — it always builds fresh arrays.
        """
        views = []
        for _ in range(self.n_shards):
            view = ShardView(database.schemas, database.provenance)
            views.append(view)
        for name, rel in database.relations.items():
            for index, view in enumerate(views):
                clone = StoredRelation(name, rel.dtypes, database.provenance)
                clone.full = rel.full
                # Preserve the mask state (stratum seeding overwrites it
                # for the predicates it touches): relations no stratum
                # derives — plain EDB inputs — must come out of a sharded
                # run exactly as a single-device run leaves them.
                clone.recent_mask = rel.recent_mask.copy()
                clone.changed_mask = rel.changed_mask.copy()
                if index == 0:
                    # Shard 0's replica becomes the database's relation
                    # after the run, so it inherits (moves, not copies —
                    # exactly one owner) the master's incremental stats:
                    # its advances keep them current, and an adaptive
                    # engine's next stats_catalog() call stays O(1)
                    # instead of re-summarizing every relation.
                    clone._stats = rel._stats
                    rel._stats = None
                view.relations[name] = clone
        return views

    def apply_reshard(self, shard_map: ShardMap, stratum=None) -> None:
        """Re-home the in-flight run onto a new :class:`ShardMap`,
        growing or shrinking the device pool to match.

        Replication makes this cheap and exact: every shard holds an
        identical copy of ``full`` and ``changed`` state (each applied
        the same global deltas), and only the ``recent`` frontier is
        partitioned.  Re-homing therefore unions the per-shard frontier
        masks back into the global frontier and re-partitions it under
        the new map; no closure rows move at all.  (The *modeled* cost of
        re-homing — sizing a shard's replica onto a fresh device — is
        priced and charged by the serve-layer planner, which decides
        whether a reshard pays for itself before ever calling this.)

        Growth keeps the existing devices (busy clocks and arenas carry
        over) and appends fresh ones cloned from the first device's cost
        parameters; shrink drops the suffix.  The executor's ``devices``
        list is resized in place, so an engine that handed its
        ``shard_devices`` list over observes the change.
        """
        if not self._views:
            raise LobsterError(
                "apply_reshard needs an in-flight run (no shard views); "
                "to change the map between runs build a new executor"
            )
        old_views = self._views
        old_n = self.n_shards
        n = shard_map.n_shards
        if n > old_n:
            for _ in range(old_n, n):
                device = self.devices[0].clone()
                self.devices.append(device)
                interpreter = self._make_interpreter(device)
                if self._shard_feedbacks is not None:
                    local = PlanFeedback()
                    self._shard_feedbacks.append(local)
                    interpreter.feedback = local
                self.interpreters.append(interpreter)
        elif n < old_n:
            for interpreter in self.interpreters[n:]:
                interpreter.feedback = None
            del self.devices[n:]
            del self.interpreters[n:]
        self.partitioner = shard_map
        self.exchange = ExchangeOperator(shard_map, self.devices)
        stratum_predicates = (
            set(stratum.predicates) if stratum is not None else set()
        )
        provenance = old_views[0].provenance
        new_views = [
            ShardView(old_views[0].schemas, provenance) for _ in range(n)
        ]
        for name, rel in old_views[0].relations.items():
            # Union the frontier across the old shard set (a partition
            # for in-stratum predicates, identical replicas otherwise —
            # either way the union is the global mask).
            union_recent = rel.recent_mask.copy()
            union_changed = rel.changed_mask.copy()
            for view in old_views[1:]:
                other = view.relations.get(name)
                if other is not None:
                    union_recent |= other.recent_mask
                    union_changed |= other.changed_mask
            owners = (
                shard_map.owners(rel.full, name)
                if name in stratum_predicates
                else None
            )
            for index, view in enumerate(new_views):
                clone = StoredRelation(name, rel.dtypes, provenance)
                clone.full = rel.full
                clone.changed_mask = union_changed.copy()
                if owners is None:
                    clone.recent_mask = union_recent.copy()
                else:
                    clone.recent_mask = union_recent & (owners == index)
                if index == 0:
                    clone._stats = rel._stats
                    rel._stats = None
                view.relations[name] = clone
        self._views = new_views
        self.reshards_applied += 1

    def _exchange_snapshot(self) -> list[tuple[float, int]] | None:
        """Per-device (exchange_seconds, exchange_bytes) before a
        collective, or None when no shard is tracing."""
        if not any(
            interpreter.tracer.enabled and interpreter.trace_parent is not None
            for interpreter in self.interpreters
        ):
            return None
        return [
            (device.profile.exchange_seconds, device.profile.exchange_bytes)
            for device in self.devices
        ]

    def _trace_exchange(
        self,
        name: str,
        predicate: str,
        iteration: int,
        before: list[tuple[float, int]] | None,
    ) -> None:
        """Spans for a collective's per-device cost: the exchange model
        charged each sending device's busy clock during the call, so the
        span is the [end - charged, end] window on that shard's lane."""
        if before is None:
            return
        for shard, interpreter in enumerate(self.interpreters):
            if not (
                interpreter.tracer.enabled and interpreter.trace_parent is not None
            ):
                continue
            profile = self.devices[shard].profile
            charged_s = profile.exchange_seconds - before[shard][0]
            if charged_s <= 0.0:
                continue
            end_s = interpreter.trace_clock()
            span = interpreter.tracer.start(
                name,
                t=end_s - charged_s,
                parent=interpreter.trace_parent,
                predicate=predicate,
                n=iteration,
                bytes=profile.exchange_bytes - before[shard][1],
            )
            interpreter.tracer.finish(span, end_s)

    def _run_stratum(
        self,
        stratum: CompiledStratum,
        program: ApmProgram,
        feedback=None,
    ) -> None:
        views = self._views
        n = self.n_shards
        provenance = views[0].provenance
        # Seed: full frontier, partitioned by ownership.
        for predicate in stratum.predicates:
            owners = self.partitioner.owners(
                views[0].relation(predicate).full, predicate
            )
            for shard in range(n):
                rel = views[shard].relation(predicate)
                rel.mark_all_recent()
                rel.recent_mask &= owners == shard

        iteration = 0
        while True:
            iteration += 1
            self.iterations_run += 1
            if self.reshard_hook is not None:
                new_map = self.reshard_hook(self, stratum, iteration)
                if new_map is not None:
                    self.apply_reshard(new_map, stratum)
                    views = self._views
            n = self.n_shards
            shard_deltas: list[dict[str, list[Table]]] = []
            for shard in range(n):
                interpreter = self.interpreters[shard]
                opened = None
                if interpreter.tracer.enabled and interpreter.trace_parent is not None:
                    span = interpreter.tracer.start(
                        "iteration",
                        t=interpreter.trace_clock(),
                        parent=interpreter.trace_parent,
                        n=iteration,
                    )
                    opened = (span, interpreter.trace_parent)
                    interpreter.trace_parent = span
                deltas: dict[str, list[Table]] = {p: [] for p in stratum.predicates}
                for rule_index, rule in enumerate(stratum.rules):
                    if rule.edb_only:
                        # Flat rules scan replicated FULL partitions only;
                        # run each on one shard (round-robin) or every
                        # shard would derive its output N times.
                        if iteration > 1 or rule_index % n != shard:
                            continue
                    for variant in rule.variants:
                        interpreter._execute_variant(
                            variant, views[shard], deltas, iteration
                        )
                interpreter._finish_stratum_span(opened)
                shard_deltas.append(deltas)

            frontier = 0
            for predicate in stratum.predicates:
                dtypes = program.schemas[predicate]
                local = [
                    Table.concat(deltas[predicate], dtypes, provenance)
                    for deltas in shard_deltas
                ]
                if feedback is not None:
                    for shard, table in enumerate(local):
                        if table.n_rows:
                            feedback.record_shard(shard, table.n_rows)
                # Route every derived row to its owner; ⊕-merge there.
                before = self._exchange_snapshot()
                owned = self.exchange.shuffle(
                    local, dtypes, provenance, predicate=predicate
                )
                self._trace_exchange(
                    "exchange.shuffle", predicate, iteration, before
                )
                merged = [dedup_table(table, provenance) for table in owned]
                # Owners broadcast their merged partitions; every shard
                # folds the identical global delta into its replica.
                before = self._exchange_snapshot()
                global_delta = self.exchange.all_gather(merged, dtypes, provenance)
                self._trace_exchange(
                    "exchange.all_gather", predicate, iteration, before
                )
                advanced = 0
                for shard in range(n):
                    advanced = views[shard].relation(predicate).advance(global_delta)
                frontier += advanced
                if not stratum.recursive:
                    continue  # frontier unused: the loop breaks below
                # Re-partition the new frontier by ownership.  Only the
                # frontier rows are hashed (identical on every replica),
                # not the whole growing closure — total hashing work per
                # stratum stays proportional to rows derived, not
                # O(closure x iterations).
                rel0 = views[0].relation(predicate)
                frontier_rows = np.flatnonzero(rel0.recent_mask)
                owners = self.partitioner.owners(
                    rel0.full.take(frontier_rows), predicate
                )
                for shard in range(n):
                    rel = views[shard].relation(predicate)
                    mask = np.zeros(rel.full.n_rows, dtype=bool)
                    mask[frontier_rows[owners == shard]] = True
                    rel.recent_mask = mask

            if not stratum.recursive or frontier == 0:
                break
            if iteration >= self.max_iterations:
                raise ExecutionError(
                    f"stratum over {stratum.predicates} exceeded "
                    f"{self.max_iterations} iterations without saturating"
                )
