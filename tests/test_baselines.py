"""Baseline engine behaviour tests (beyond the cross-engine equivalence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LobsterEngine
from repro.baselines import (
    ExactProofsProvenance,
    FVLogEngine,
    ProbLogEngine,
    ScallopInterpreter,
    SouffleEngine,
)
from repro.baselines.problog import _wmc
from repro.errors import EvaluationTimeout, LobsterError

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."


class TestScallopInterpreter:
    def test_negation(self):
        engine = ScallopInterpreter(
            "rel ok(x) :- node(x), not bad(x).", provenance="unit"
        )
        db = engine.create_database()
        db.add_facts("node", [(1,), (2,)])
        db.add_facts("bad", [(2,)])
        engine.run(db)
        assert set(db.rows("ok")) == {(1,)}

    def test_zero_probability_fact_is_absent_under_negation(self):
        """A fact whose tag is the absorbing zero is not stored, by either
        engine, so a negated atom over it holds."""
        source = (
            "type e1(i64)\ntype e2(i64)\n"
            "rel r(a + 1) :- e1(a), e1(a), e1(b), ~e2(a).\n"
        )
        scallop = ScallopInterpreter(source, provenance="minmaxprob")
        engine = LobsterEngine(source, provenance="minmaxprob")
        databases = []
        for runner in (scallop, engine):
            db = runner.create_database()
            db.add_facts("e1", [(0,)], probs=[0.25])
            db.add_facts("e2", [(0,)], probs=[0.0])
            runner.run(db)
            databases.append(db)
        scallop_db, engine_db = databases
        assert scallop_db.prob("r", (1,)) == 0.25
        assert engine.query_probs(engine_db, "r") == {(1,): 0.25}

    def test_comparisons_and_arithmetic(self):
        engine = ScallopInterpreter(
            "rel double(x + x) :- v(x), x >= 2.", provenance="unit"
        )
        db = engine.create_database()
        db.add_facts("v", [(1,), (2,), (3,)])
        engine.run(db)
        assert set(db.rows("double")) == {(4,), (6,)}

    def test_timeout_raises(self):
        engine = ScallopInterpreter(TC, provenance="unit", timeout_seconds=0.0)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        with pytest.raises(EvaluationTimeout):
            engine.run(db)

    def test_topk_proofs_tracked(self):
        engine = ScallopInterpreter(TC, provenance="top-k-proofs", k=3)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (0, 2)], probs=[0.5, 0.5, 0.3])
        engine.run(db)
        tag = db.rows("path")[(0, 2)]
        assert len(tag) == 2  # direct edge + two-hop proof

    def test_fact_blocks_loaded(self):
        engine = ScallopInterpreter("rel e = {(1, 2)}\nrel p(x, y) :- e(x, y).")
        db = engine.create_database()
        engine.run(db)
        assert set(db.rows("p")) == {(1, 2)}


class TestSouffleEngine:
    def test_indexed_join_correct(self, rng):
        from tests.conftest import brute_force_closure, random_digraph

        edges = random_digraph(rng, 20, 50)
        engine = SouffleEngine(TC)
        db = engine.create_database()
        db.setdefault("edge", set()).update(edges)
        engine.run(db)
        assert db["path"] == brute_force_closure(edges)

    def test_timeout(self):
        engine = SouffleEngine(TC, timeout_seconds=0.0)
        db = engine.create_database()
        db.setdefault("edge", set()).update([(0, 1)])
        with pytest.raises(EvaluationTimeout):
            engine.run(db)

    def test_negation(self):
        engine = SouffleEngine("rel ok(x) :- node(x), not bad(x).")
        db = engine.create_database()
        db.setdefault("node", set()).update([(1,), (2,)])
        db.setdefault("bad", set()).update([(2,)])
        engine.run(db)
        assert db["ok"] == {(1,)}


class TestProbLog:
    def test_wmc_simple_disjunction(self):
        probs = np.array([0.5, 0.5])
        groups = np.array([-1, -1])
        proofs = [frozenset([0]), frozenset([1])]
        assert _wmc(proofs, probs, groups) == pytest.approx(0.75)

    def test_wmc_exclusion_groups(self):
        probs = np.array([0.6, 0.4])
        groups = np.array([0, 0])  # mutually exclusive outcomes
        proofs = [frozenset([0]), frozenset([1])]
        assert _wmc(proofs, probs, groups) == pytest.approx(1.0)

    def test_wmc_empty_proof_is_certain(self):
        assert _wmc([frozenset()], np.zeros(0), np.zeros(0)) == 1.0

    def test_exact_provenance_subsumption(self):
        provenance = ExactProofsProvenance()
        provenance.setup(np.array([0.5, 0.5]))
        a = provenance.scalar_input(0)
        ab = provenance.scalar_otimes(a, provenance.scalar_input(1))
        merged = provenance.scalar_oplus(a, ab)
        # {0} subsumes {0,1}: the superset proof is redundant.
        assert merged == (frozenset([0]),)

    def test_query_prob_missing_row(self):
        engine = ProbLogEngine(TC, timeout_seconds=10)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)], probs=[0.5])
        engine.run(db)
        assert engine.query_prob(db, "path", (5, 6)) == 0.0


class TestFVLog:
    def test_discrete_only(self):
        engine = FVLogEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        engine.run(db)
        assert db.result("path").rows() == [(0, 1)]

    def test_no_optimizations(self):
        engine = FVLogEngine(TC)
        assert not engine.device.reuse_buffers
        assert not engine.optimizations.static_indices
        db = engine.create_database()
        db.add_facts("edge", [(i, i + 1) for i in range(10)])
        assert engine.run(db).profile.reused_allocations == 0
