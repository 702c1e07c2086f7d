"""APM compiler, instruction, and scheduler structure tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LobsterEngine
from repro.apm import instructions as I
from repro.apm.compiler import compile_ram
from repro.apm.schedule import plan_transfers, stratum_inputs, stratum_outputs
from repro.datalog import compile_source
from repro.ram import compile_program
from repro.workloads import clutrr, hwf, pacman, pathfinder, rna, static_analysis

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."


def compile_tc():
    return compile_ram(compile_program(compile_source(TC)))


class TestCompilerStructure:
    def test_semi_naive_variants(self):
        apm = compile_tc()
        stratum = apm.strata[0]
        base_rule, recursive_rule = stratum.rules
        assert base_rule.edb_only and len(base_rule.variants) == 1
        assert not recursive_rule.edb_only
        # One variant per recursive atom; TC's recursive rule has one.
        assert len(recursive_rule.variants) == 1
        loads = [
            instr
            for instr in recursive_rule.variants[0].instructions
            if isinstance(instr, I.Load)
        ]
        partitions = sorted(load.partition for load in loads)
        assert partitions == ["full", "recent"]

    def test_every_variant_ends_in_store(self):
        apm = compile_tc()
        for stratum in apm.strata:
            for rule in stratum.rules:
                for variant in rule.variants:
                    assert isinstance(variant.instructions[-1], I.StoreDelta)
                    assert variant.instructions[-1].predicate == rule.target

    def test_ssa_registers_never_rewritten(self):
        apm = compile_tc()
        from repro.apm.optimizer import _writes

        for stratum in apm.strata:
            for rule in stratum.rules:
                for variant in rule.variants:
                    written: set[str] = set()
                    for instr in variant.instructions:
                        for reg in _writes(instr):
                            assert reg not in written, reg
                            written.add(reg)

    def test_static_key_on_edb_build_side(self):
        apm = compile_tc()
        recursive = apm.strata[0].rules[1]
        builds = [
            instr
            for instr in recursive.variants[0].instructions
            if isinstance(instr, I.Build)
        ]
        assert len(builds) == 1
        assert builds[0].static_key is not None  # built over the EDB edge

    def test_no_static_key_for_recursive_build(self):
        # Both join inputs recursive -> no side is iteration-invariant.
        apm = compile_ram(
            compile_program(
                compile_source("rel p(x, y) :- e(x, y). rel p(x, z) :- p(x, y), p(y, z).")
            )
        )
        recursive = apm.strata[0].rules[1]
        for variant in recursive.variants:
            for instr in variant.instructions:
                if isinstance(instr, I.Build):
                    assert instr.static_key is None

    def test_score_counts_recursive_joins(self):
        apm = compile_tc()
        assert apm.strata[0].score == 1

    def test_instruction_count(self):
        apm = compile_tc()
        assert apm.instruction_count() > 5


class TestSchedule:
    SRC = """
    rel tc(x, y) :- e(x, y) or (tc(x, z) and e(z, y)).
    rel mutual(x, y) :- tc(x, y), tc(y, x).
    rel labelled(x) :- mutual(x, y), tag(y).
    query labelled
    """

    def test_inputs_outputs(self):
        apm = compile_ram(compile_program(compile_source(self.SRC)))
        assert "e" in stratum_inputs(apm, 0)
        assert stratum_outputs(apm, 0) == {"tc"}

    def test_plan_crosses_only_at_window_edges(self):
        """The §5.3 window: inputs ship in at its first stratum, outputs
        out at its last, and no relation crosses twice in one direction."""
        sources = [self.SRC] + [
            workload.PROGRAM
            for workload in (clutrr, hwf, pacman, pathfinder, rna, static_analysis)
        ]
        for source in sources:
            apm = compile_ram(compile_program(compile_source(source)))
            plan = plan_transfers(apm)
            start, end = min(plan), max(plan)
            hottest = max(apm.strata, key=lambda stratum: stratum.score)
            assert len(plan) <= 2
            assert start <= apm.strata.index(hottest) <= end
            assert not plan[start][1] or start == end
            assert not plan[end][0] or start == end
            for direction in (0, 1):
                shipped = [name for spec in plan.values() for name in spec[direction]]
                assert len(shipped) == len(set(shipped)), (source, direction)

    def test_optimized_plan_single_window(self):
        apm = compile_ram(compile_program(compile_source(self.SRC)))
        plan = plan_transfers(apm)
        ins = [spec[0] for spec in plan.values() if spec[0]]
        outs = [spec[1] for spec in plan.values() if spec[1]]
        assert len(ins) == 1 and len(outs) >= 1

    def test_empty_program(self):
        apm = compile_ram(compile_program(compile_source("rel p(x) :- q(x).")))
        assert plan_transfers(apm)


class TestInterpreterInstructionLevel:
    def test_profile_counts_instructions(self):
        engine = LobsterEngine(TC, provenance="unit")
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        result = engine.run(db)
        counts = result.profile.instruction_counts
        assert counts.get("Load", 0) > 0
        assert counts.get("Probe", 0) > 0
        assert counts.get("StoreDelta", 0) > 0

    def test_max_iterations_guard(self):
        from repro.errors import ExecutionError

        engine = LobsterEngine(
            "rel count(x + 1) :- count(x), limit(y), x < y.",
            provenance="unit",
            max_iterations=5,
        )
        db = engine.create_database()
        db.add_facts("count", [(0,)])
        db.add_facts("limit", [(1000,)])
        with pytest.raises(ExecutionError, match="exceeded"):
            engine.run(db)

    def test_counting_to_fixpoint(self):
        engine = LobsterEngine(
            "rel count(x + 1) :- count(x), limit(y), x < y.", provenance="unit"
        )
        db = engine.create_database()
        db.add_facts("count", [(0,)])
        db.add_facts("limit", [(10,)])
        engine.run(db)
        assert sorted(db.result("count").rows()) == [(i,) for i in range(11)]
