"""Focused APM optimizer pass tests (DCE and projection fusion)."""

from __future__ import annotations

import numpy as np

from repro import LobsterEngine
from repro.apm import instructions as I
from repro.apm.compiler import compile_ram
from repro.apm.optimizer import _eliminate_dead, _fuse_projections, optimize
from repro.datalog import compile_source
from repro.ram import compile_program


def variants_of(apm):
    for stratum in apm.strata:
        for rule in stratum.rules:
            yield from rule.variants


class TestProjectionFusion:
    def test_chained_permutations_collapse(self):
        # b(y, x) :- a(x, y) then c(x) :- b(_, x): the planner emits
        # permutation projections that fusion can merge.
        source = """
        rel b(y, x) :- a(x, y).
        rel c(x, y, z) :- b(x, w), d(w, y), e(y, z).
        """
        unopt = compile_ram(compile_program(compile_source(source)))
        before = unopt.instruction_count()
        optimize(unopt)
        after = unopt.instruction_count()
        assert after <= before

    def test_fusion_preserves_semantics(self):
        source = """
        rel swapped(y, x) :- a(x, y).
        rel back(x, y) :- swapped(y, x).
        """
        engine = LobsterEngine(source, provenance="unit")
        db = engine.create_database()
        db.add_facts("a", [(1, 2), (3, 4)])
        engine.run(db)
        assert sorted(db.result("back").rows()) == [(1, 2), (3, 4)]


class TestDeadCodeElimination:
    def test_transitively_dead_chain_removed(self):
        """A chain of instructions feeding nothing is removed entirely."""
        engine = LobsterEngine("rel p(x) :- q(x, y).", provenance="unit")
        variant = next(variants_of(engine.apm))
        # Every remaining instruction's outputs must be (transitively)
        # consumed by the StoreDelta.
        live = set()
        from repro.apm.optimizer import _reads, _writes

        for instruction in reversed(variant.instructions):
            writes = _writes(instruction)
            assert isinstance(instruction, I.StoreDelta) or not writes or (
                writes & live
            ), f"dead instruction survived: {instruction}"
            live |= _reads(instruction)

    def test_store_is_never_removed(self):
        engine = LobsterEngine("rel p(x) :- q(x).", provenance="unit")
        for variant in variants_of(engine.apm):
            assert any(
                isinstance(instruction, I.StoreDelta)
                for instruction in variant.instructions
            )

    def test_eliminate_dead_is_pure_on_live_code(self):
        engine = LobsterEngine(
            "rel tc(x, y) :- e(x, y) or (tc(x, z) and e(z, y)).", provenance="unit"
        )
        for variant in variants_of(engine.apm):
            again = _eliminate_dead(list(variant.instructions))
            assert again == list(variant.instructions)


class TestBatchingWithNegation:
    def test_negation_respects_sample_boundaries(self):
        """A fact negated in one sample must not suppress another's."""
        source = """
        rel ok(x) :- node(x), not bad(x).
        """
        engine = LobsterEngine(source, provenance="unit", batched=True)
        db = engine.create_database()
        engine.add_batch_facts(db, "node", 0, [(1,), (2,)])
        engine.add_batch_facts(db, "node", 1, [(1,), (2,)])
        engine.add_batch_facts(db, "bad", 0, [(1,)])  # only sample 0
        engine.run(db)
        by_sample = engine.query_by_sample(db, "ok")
        assert set(by_sample[0]) == {(2,)}
        assert set(by_sample[1]) == {(1,), (2,)}

    def test_arity_zero_head_batched(self):
        source = "rel found() :- e(x, y), x != y."
        engine = LobsterEngine(source, provenance="unit", batched=True)
        db = engine.create_database()
        engine.add_batch_facts(db, "e", 0, [(1, 1)])
        engine.add_batch_facts(db, "e", 1, [(1, 2)])
        engine.run(db)
        by_sample = engine.query_by_sample(db, "found")
        assert 0 not in by_sample
        assert set(by_sample[1]) == {()}
