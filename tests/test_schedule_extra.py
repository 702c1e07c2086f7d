"""Extra coverage: negation across engines, schedule windows, misc edges."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LobsterEngine
from repro.baselines import ScallopInterpreter, SouffleEngine
from repro.runtime.engine import OptimizationConfig

UNREACHABLE = """
rel reach(x) :- start(x) or (reach(y) and e(y, x)).
rel unreached(x) :- node(x), not reach(x).
query unreached
"""


class TestNegationEquivalence:
    def setup_facts(self):
        rng = np.random.default_rng(5)
        edges = sorted(
            {(int(a), int(b)) for a, b in rng.integers(0, 15, size=(40, 2)) if a != b}
        )
        nodes = [(n,) for n in range(15)]
        return edges, nodes

    def test_three_engines_agree_on_negation(self):
        edges, nodes = self.setup_facts()

        lobster = LobsterEngine(UNREACHABLE, provenance="unit")
        db = lobster.create_database()
        db.add_facts("start", [(0,)])
        db.add_facts("e", edges)
        db.add_facts("node", nodes)
        lobster.run(db)
        lobster_rows = set(db.result("unreached").rows())

        scallop = ScallopInterpreter(UNREACHABLE, provenance="unit")
        sdb = scallop.create_database()
        sdb.add_facts("start", [(0,)])
        sdb.add_facts("e", edges)
        sdb.add_facts("node", nodes)
        scallop.run(sdb)
        assert set(sdb.rows("unreached")) == lobster_rows

        souffle = SouffleEngine(UNREACHABLE)
        udb = souffle.create_database()
        udb.setdefault("start", set()).add((0,))
        udb.setdefault("e", set()).update(edges)
        udb.setdefault("node", set()).update(nodes)
        souffle.run(udb)
        assert udb["unreached"] == lobster_rows

    def test_negation_under_every_optimization_config(self):
        edges, nodes = self.setup_facts()
        reference = None
        for config in (OptimizationConfig(), OptimizationConfig.none()):
            engine = LobsterEngine(UNREACHABLE, provenance="unit", optimizations=config)
            db = engine.create_database()
            db.add_facts("start", [(0,)])
            db.add_facts("e", edges)
            db.add_facts("node", nodes)
            engine.run(db)
            rows = set(db.result("unreached").rows())
            if reference is None:
                reference = rows
            assert rows == reference


class TestBatchedProofs:
    def test_proof_tags_compose_with_batching(self):
        """A proof-carrying semiring keeps each sample's proofs apart under
        batched evaluation."""
        engine = LobsterEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            provenance="diff-top-1-proofs",
            proof_capacity=16,
            batched=True,
        )
        db = engine.create_database()
        engine.add_batch_facts(db, "edge", 0, [(0, 1), (1, 2)], probs=[0.9, 0.8])
        engine.add_batch_facts(
            db, "edge", 1, [(0, 2), (0, 1), (1, 2)], probs=[0.3, 0.5, 0.5]
        )
        engine.run(db)
        by_sample = engine.query_by_sample(db, "path")
        assert by_sample[0][(0, 2)] == pytest.approx(0.72)
        # Sample 1 keeps its best single proof of path(0, 2): the direct
        # edge at 0.3 beats 0.5 * 0.5 through node 1.
        assert by_sample[1][(0, 2)] == pytest.approx(0.3)


class TestStringWorkflows:
    def test_symbols_shared_between_program_and_runtime(self):
        engine = LobsterEngine(
            'rel relation = {("parent", 0, 1), ("parent", 1, 2)}\n'
            'rel grandparent(x, z) :- relation("parent", x, y), relation("parent", y, z).'
        )
        db = engine.create_database()
        engine.run(db)
        assert db.result("grandparent").rows() == [(0, 2)]
