"""The probe table: where the traced run puts its spans.

One row per callable at a layer boundary: ``Probe(layer, span name,
dotted entry point[, metric[, counts]])``.  Layers are the ``src/repro``
packages.  ``metric`` names the inclusive-seconds metric the span feeds
(nested spans of one metric count once); ``counts`` reads exact counters
off the call's arguments and result at the same boundary.  The tracer
(:mod:`spans`) wraps these callables from outside; a row whose entry
point no longer resolves is counted in ``trace.unresolved_probes`` and
skipped.

What is *not* probed is charged to the caller's layer — most visibly the
inline numpy gathers in ``ApmInterpreter._execute_variant``, which are
``apm`` self time.  Probes are kept off callables where a span would
cost more than the call: per-element recursions (``codec._encode_into``)
and microsecond helpers on the per-instruction path
(``Provenance.is_absorbing_zero``, ``Table.concat``).
"""

from __future__ import annotations

from spans import Probe


def _ram_ops(program) -> int:
    """Operator nodes in a RAM program's expression trees."""

    def walk(expr) -> int:
        children = [
            getattr(expr, name)
            for name in ("source", "left", "right")
            if hasattr(expr, name)
        ]
        children += list(getattr(expr, "items", ()))
        return 1 + sum(walk(child) for child in children)

    return sum(walk(rule.expr) for stratum in program.strata for rule in stratum.rules)


def _run_counts(args, result) -> dict:
    engine, database = args[0], args[1]
    derived = {p for stratum in engine.apm.strata for p in stratum.predicates}
    return {
        "apm.iterations": result.iterations,
        "gpu.kernel_launches": result.profile.kernel_launches,
        "gpu.modeled_busy_s": result.profile.busy_seconds,
        "runtime.run_wall_s": result.wall_seconds,
        "runtime.derived_rows": sum(
            relation.n_facts()
            for name, relation in database.relations.items()
            if name in derived
        ),
    }


PROBES = [
    # -- datalog: source text -> resolved, stratified rules ----------------
    Probe("datalog", "parse", "repro.datalog.parser.parse", "datalog.parse_s"),
    Probe(
        "datalog", "resolve", "repro.datalog.resolver.resolve", "datalog.resolve_s",
        lambda args, resolved: {"datalog.rules": len(resolved.rules)},
    ),
    # -- ram: rules -> planned relational algebra ---------------------------
    Probe(
        "ram", "plan", "repro.ram.compile_datalog.compile_program", "ram.plan_s",
        lambda args, program: {"ram.ops": _ram_ops(program)},
    ),
    # -- apm: lowering, optimization, interpretation ------------------------
    Probe(
        "apm", "lower", "repro.apm.compiler.compile_ram", "apm.lower_s",
        lambda args, program: {"apm.instructions_lowered": program.instruction_count()},
    ),
    Probe(
        "apm", "optimize", "repro.apm.optimizer.optimize", "apm.optimize_s",
        lambda args, program: {"apm.instructions": program.instruction_count()},
    ),
    Probe("apm", "interp", "repro.apm.interpreter.ApmInterpreter.run", "apm.interp_s"),
    Probe(
        "apm", "maintain", "repro.apm.interpreter.ApmInterpreter.maintain",
        "apm.maintain_s",
    ),
    # -- gpu: the device kernels --------------------------------------------
    Probe("gpu", "pack_rows", "repro.gpu.kernels.pack_rows", "gpu.sort_s"),
    Probe("gpu", "lex_rank", "repro.gpu.kernels.lex_rank", "gpu.sort_s"),
    Probe("gpu", "sort_rows", "repro.gpu.kernels.sort_rows", "gpu.sort_s"),
    Probe("gpu", "unique_rows", "repro.gpu.kernels.unique_rows", "gpu.sort_s"),
    Probe("gpu", "merge_sorted", "repro.gpu.kernels.merge_sorted", "gpu.sort_s"),
    Probe("gpu", "group_boundaries", "repro.gpu.kernels.row_group_boundaries"),
    Probe("gpu", "segment_argmax", "repro.gpu.kernels.segment_argmax"),
    Probe("gpu", "segment_max", "repro.gpu.kernels.segment_reduce_max"),
    Probe("gpu", "segment_sum", "repro.gpu.kernels.segment_reduce_sum"),
    Probe("gpu", "index_build", "repro.gpu.hash_table.HashIndex.__init__", "gpu.join_s"),
    Probe("gpu", "index_probe", "repro.gpu.hash_table.HashIndex.probe", "gpu.join_s"),
    Probe("gpu", "index_count", "repro.gpu.hash_table.HashIndex.count", "gpu.join_s"),
    Probe("gpu", "bytecode", "repro.gpu.bytecode.execute"),
    # -- provenance: tag algebra (every semiring overriding the method) -----
    Probe(
        "provenance", "otimes", "repro.provenance.base.Provenance.otimes",
        "provenance.combine_s",
    ),
    Probe(
        "provenance", "oplus_reduce", "repro.provenance.base.Provenance.oplus_reduce",
        "provenance.combine_s",
    ),
    Probe(
        "provenance", "merge_existing", "repro.provenance.base.Provenance.merge_existing",
        "provenance.combine_s",
    ),
    Probe(
        "provenance", "backward", "repro.provenance.base.Provenance.backward",
        "provenance.backward_s",
    ),
    Probe("provenance", "setup", "repro.provenance.base.Provenance.setup"),
    Probe("provenance", "input_tags", "repro.provenance.base.Provenance.input_tags"),
    Probe("provenance", "prob", "repro.provenance.base.Provenance.prob"),
    Probe("provenance", "create", "repro.provenance.registry.create"),
    # -- runtime: engine facade, database, stored relations ------------------
    Probe("runtime", "engine_init", "repro.runtime.engine.LobsterEngine.__init__"),
    Probe(
        "runtime", "cache_lookup", "repro.runtime.cache.ProgramCache.get_or_compile", None,
        lambda args, found: {
            "runtime.cache_hits": int(found[1]), "runtime.cache_misses": int(not found[1]),
        },
    ),
    Probe(
        "runtime", "create_database",
        "repro.runtime.engine.LobsterEngine.create_database", "runtime.load_s",
    ),
    Probe("runtime", "add_facts", "repro.runtime.database.Database.add_facts", "runtime.load_s"),
    Probe(
        "runtime", "retract_facts", "repro.runtime.database.Database.retract_facts",
        "runtime.load_s",
    ),
    Probe("runtime", "finalize", "repro.runtime.database.Database.finalize", "runtime.load_s"),
    Probe(
        "runtime", "run", "repro.runtime.engine.LobsterEngine.run", "runtime.run_s",
        _run_counts,
    ),
    Probe("runtime", "run_batch", "repro.runtime.session.LobsterSession.run_batch"),
    Probe(
        "runtime", "advance", "repro.runtime.relation.StoredRelation.advance",
        "runtime.merge_s",
        lambda args, frontier: {
            "runtime.merge_rows_in": args[1].n_rows,
            "runtime.merge_rows_new": frontier,
        },
    ),
    Probe("runtime", "dedup", "repro.runtime.relation.dedup_table", "runtime.dedup_s"),
    Probe("runtime", "snapshot", "repro.runtime.relation.StoredRelation.snapshot"),
    Probe("runtime", "locate", "repro.runtime.relation.RowLocator.member_mask"),
    Probe(
        "runtime", "apply_retractions",
        "repro.runtime.database.Database.apply_retractions",
    ),
    Probe("runtime", "result", "repro.runtime.database.Database.result", "runtime.read_s"),
    Probe(
        "runtime", "result_probs", "repro.runtime.database.Database.result_probs",
        "runtime.read_s",
    ),
    Probe(
        "runtime", "query_probs", "repro.runtime.engine.LobsterEngine.query_probs",
        "runtime.read_s",
    ),
    Probe("runtime", "rows", "repro.runtime.table.Table.rows", "runtime.read_s"),
    Probe("runtime", "backward", "repro.runtime.engine.LobsterEngine.backward"),
    Probe("runtime", "state_dict", "repro.runtime.database.Database.state_dict"),
    Probe("runtime", "from_state", "repro.runtime.database.Database.from_state"),
    # -- serve / dist: the online front-end -----------------------------------
    Probe("serve", "scheduler_init", "repro.serve.scheduler.Scheduler.__init__"),
    Probe("serve", "drain", "repro.serve.scheduler.Scheduler.run", "serve.drain_s"),
    Probe("serve", "admit", "repro.serve.admission.AdmissionController.decide"),
    Probe("dist", "pool_init", "repro.dist.pool.DevicePool.__init__"),
    Probe("dist", "acquire", "repro.dist.pool.DevicePool.acquire"),
    # -- stream: windows, views, subscriptions --------------------------------
    Probe("stream", "window", "repro.stream.window.Window.advance", "stream.window_s"),
    Probe("stream", "apply", "repro.stream.view.MaterializedView.apply", "stream.apply_s"),
    Probe("stream", "poll", "repro.stream.subscription.Subscription.poll"),
    Probe("stream", "view_state", "repro.stream.view.MaterializedView.state_dict"),
    Probe("stream", "view_restore", "repro.stream.view.MaterializedView.restore_state"),
    Probe("stream", "window_state", "repro.stream.window.Window.state_dict"),
    Probe("stream", "window_restore", "repro.stream.window.Window.load_state"),
    # -- recovery: WAL, codec, checkpoints, recover() -------------------------
    Probe("recovery", "tick", "repro.recovery.manager.RecoveryManager.apply"),
    Probe(
        "recovery", "wal_append", "repro.recovery.wal.WriteAheadLog.append",
        "recovery.wal_s",
        lambda args, nbytes: {"recovery.wal_bytes": nbytes},
    ),
    Probe("recovery", "encode", "repro.recovery.codec.encode", "recovery.encode_s"),
    Probe("recovery", "decode", "repro.recovery.codec.decode", "recovery.decode_s"),
    Probe(
        "recovery", "checkpoint", "repro.recovery.manager.RecoveryManager.checkpoint",
        "recovery.checkpoint_s",
    ),
    Probe(
        "recovery", "append_fsync", "repro.recovery.storage.LocalStorage.append",
        "recovery.fsync_s",
        lambda args, _: {"recovery.fsyncs": 1},
    ),
    Probe(
        "recovery", "atomic_write", "repro.recovery.storage.LocalStorage.write_atomic",
        "recovery.fsync_s",
        lambda args, _: {"recovery.fsyncs": 1, "recovery.checkpoint_bytes": len(args[2])},
    ),
    Probe("recovery", "recover", "repro.recovery.manager.recover", "recovery.recover_s"),
    Probe(
        "recovery", "load", "repro.recovery.checkpoint.CheckpointStore.latest",
        "recovery.load_s",
    ),
    Probe("recovery", "wal_read", "repro.recovery.wal.WriteAheadLog.read_from"),
    Probe("recovery", "register", "repro.recovery.manager.RecoveryManager.register"),
]
