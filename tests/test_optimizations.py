"""The §4/§5.3 optimizations: semantics preserved, profiles differ.

An ablation arm is an :class:`OptimizationConfig` plus the device's
``reuse_buffers`` allocator setting (§4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DeviceOutOfMemory, LobsterEngine, OptimizationConfig, VirtualDevice
from repro.apm import instructions as I
from repro.apm.compiler import compile_ram
from repro.apm.optimizer import optimize
from repro.apm.schedule import plan_transfers
from repro.datalog import compile_source
from repro.ram import compile_program
from tests.conftest import TC_PROGRAM, random_digraph

MULTI_STRATUM = """
rel tc(x, y) :- e(x, y) or (tc(x, z) and e(z, y)).
rel pair(x, y) :- tc(x, y), tc(y, x).
rel flagged(x) :- pair(x, y), mark(y).
query flagged
"""


def run_with(edges, config: OptimizationConfig, reuse_buffers: bool = True):
    engine = LobsterEngine(
        TC_PROGRAM,
        provenance="unit",
        device=VirtualDevice(reuse_buffers=reuse_buffers),
        optimizations=config,
    )
    db = engine.create_database()
    db.add_facts("edge", edges)
    result = engine.run(db)
    return engine, db, result


class TestAblationSemantics:
    @pytest.mark.parametrize(
        "config",
        [
            (OptimizationConfig(), True),
            (OptimizationConfig.none(), False),
            (OptimizationConfig(), False),
            (OptimizationConfig(static_indices=False), True),
            (OptimizationConfig.none(), True),
        ],
    )
    def test_results_identical_under_all_configs(self, config, rng):
        edges = random_digraph(rng, 30, 80)
        _, db_opt, _ = run_with(edges, OptimizationConfig())
        _, db, _ = run_with(edges, *config)
        assert set(db.result("path").rows()) == set(db_opt.result("path").rows())


class TestStaticIndices:
    def test_static_key_assigned_to_edb_side(self, rng):
        engine = LobsterEngine(TC_PROGRAM, provenance="unit")
        builds = [
            instr
            for stratum in engine.apm.strata
            for rule in stratum.rules
            for variant in rule.variants
            for instr in variant.instructions
            if isinstance(instr, I.Build)
        ]
        assert any(b.static_key for b in builds)

    def test_reuse_reduces_build_work(self, rng):
        edges = random_digraph(rng, 40, 120)
        _, _, with_static = run_with(edges, OptimizationConfig())
        _, _, without = run_with(edges, OptimizationConfig(static_indices=False))
        assert (
            with_static.profile.reused_allocations
            > without.profile.reused_allocations
        )


class TestBufferReuse:
    def test_alloc_overhead_counted_when_disabled(self, rng):
        """The device's ``reuse_buffers=False`` is the one switch: the
        engine on it (static indices off too, so no index is reused
        either) reuses nothing and charges every allocation's modeled
        latency in ``simulated_overhead_seconds``."""
        edges = random_digraph(rng, 30, 90)
        _, _, result = run_with(
            edges, OptimizationConfig(static_indices=False), reuse_buffers=False
        )
        profile = result.profile
        assert profile.reused_allocations == 0
        assert profile.alloc_seconds > 0
        assert result.simulated_overhead_seconds == pytest.approx(
            profile.transfer_seconds + profile.alloc_seconds
        )
        _, _, reused = run_with(edges, OptimizationConfig())
        assert reused.profile.reused_allocations > 0
        assert reused.simulated_overhead_seconds == reused.profile.transfer_seconds

    def test_retained_temporaries_run_out_of_memory_first(self, rng):
        """Without reuse an iteration's temporaries stay charged until the
        stratum ends, so a budget the reusing engine fits in is exceeded."""
        edges = random_digraph(rng, 40, 160)

        def run_on(device):
            engine = LobsterEngine(TC_PROGRAM, device=device)
            db = engine.create_database()
            db.add_facts("edge", edges)
            return engine.run(db)

        budget = run_on(VirtualDevice(capacity_bytes=10**9)).profile.peak_arena_bytes
        run_on(VirtualDevice(capacity_bytes=budget))
        with pytest.raises(DeviceOutOfMemory):
            run_on(VirtualDevice(capacity_bytes=budget, reuse_buffers=False))


class TestStratumScheduling:
    def test_optimized_plan_fewer_transfers(self):
        """One device window: bus crossings at two strata boundaries at
        most, fewer than the program has strata."""
        engine = LobsterEngine(MULTI_STRATUM, provenance="unit")
        plan = plan_transfers(engine.apm)
        assert len(plan) <= 2 < len(engine.apm.strata)


class TestApmPasses:
    def test_dce_removes_instructions(self):
        engine = LobsterEngine(MULTI_STRATUM, provenance="unit")
        unoptimized = compile_ram(compile_program(compile_source(MULTI_STRATUM)))
        assert engine.apm.instruction_count() <= unoptimized.instruction_count()

    def test_optimize_idempotent(self):
        engine = LobsterEngine(TC_PROGRAM, provenance="unit")
        count = engine.apm.instruction_count()
        optimize(engine.apm)
        assert engine.apm.instruction_count() == count


class TestDeviceOom:
    def test_capacity_exceeded_raises(self, rng):
        edges = random_digraph(rng, 60, 400)
        device = VirtualDevice(capacity_bytes=50_000)
        engine = LobsterEngine(TC_PROGRAM, provenance="unit", device=device)
        db = engine.create_database()
        db.add_facts("edge", edges)
        with pytest.raises(DeviceOutOfMemory):
            engine.run(db)

    def test_large_capacity_fits(self, rng):
        edges = random_digraph(rng, 20, 40)
        device = VirtualDevice(capacity_bytes=200_000_000)
        engine = LobsterEngine(TC_PROGRAM, provenance="unit", device=device)
        db = engine.create_database()
        db.add_facts("edge", edges)
        engine.run(db)
        assert db.result("path").n_rows > 0

    def test_peak_arena_tracked(self, rng):
        edges = random_digraph(rng, 20, 40)
        device = VirtualDevice(capacity_bytes=200_000_000)
        engine = LobsterEngine(TC_PROGRAM, provenance="unit", device=device)
        db = engine.create_database()
        db.add_facts("edge", edges)
        result = engine.run(db)
        assert result.profile.peak_arena_bytes > 0
