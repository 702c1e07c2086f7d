"""Retraction support and the DRed-style maintain path.

The acceptance bar (ISSUE 4's bitwise-fidelity criterion): after every
tick of a seeded mixed insert/retract stream, the maintained database
must equal a cold from-scratch run of the same surviving facts — rows,
tags (observed through probabilities), and gradients — across unit,
minmaxprob, and top-1-proofs semirings on TC and CSPA.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LobsterEngine,
    RetractionUnsupportedError,
)
from repro.workloads.analytics import CSPA

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."

edge_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=14,
    unique=True,
)


def cold_tc(edges, provenance="unit", probs=None):
    engine = LobsterEngine(TC, provenance=provenance)
    db = engine.create_database()
    db.add_facts("edge", edges, probs=probs)
    engine.run(db)
    return engine, db


def assert_probs_match(warm, cold, tol=1e-9):
    assert set(warm) == set(cold), sorted(set(warm) ^ set(cold))
    for row, prob in warm.items():
        assert prob == pytest.approx(cold[row], abs=tol), row


class TestRetractFacts:
    def test_retract_matches_cold_unit(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (2, 3), (0, 3)])
        engine.run(db)
        assert db.retract_facts("edge", [(0, 1)]) == 1
        result = engine.run(db)
        assert result.maintained and result.maintain_fallback is None
        _, cold_db = cold_tc([(1, 2), (2, 3), (0, 3)])
        assert sorted(db.result("path").rows()) == sorted(
            cold_db.result("path").rows()
        )

    def test_retract_pending_insert_never_existed(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        db.retract_facts("edge", [(0, 1)])
        engine.run(db)
        assert db.result("path").n_rows == 0

    def test_retract_nonexistent_row_is_noop(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        engine.run(db)
        assert db.retract_facts("edge", [(5, 6)]) == 0
        result = engine.run(db)
        assert not result.maintained  # nothing staged, plain rerun
        assert sorted(db.result("path").rows()) == [(0, 1)]

    def test_retract_weakens_minmaxprob_tag(self):
        # The surviving route's weaker probability must win after the
        # strong route's edge is retracted (tag-level correctness).
        engine = LobsterEngine(TC, provenance="minmaxprob")
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (0, 2)], probs=[0.9, 0.9, 0.5])
        engine.run(db)
        assert engine.query_probs(db, "path")[(0, 2)] == pytest.approx(0.9)
        db.retract_facts("edge", [(0, 1)])
        result = engine.run(db)
        assert result.maintained
        assert engine.query_probs(db, "path")[(0, 2)] == pytest.approx(0.5)

    def test_retract_everything_empties_view(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        engine.run(db)
        db.retract_facts("edge", [(0, 1), (1, 2)])
        result = engine.run(db)
        assert result.maintained
        assert db.result("path").n_rows == 0
        assert db.result("edge").n_rows == 0

    def test_fact_ids_stay_stable_across_retraction(self):
        engine = LobsterEngine(TC, provenance="minmaxprob")
        db = engine.create_database()
        ids1 = db.add_facts("edge", [(0, 1)], probs=[0.5])
        engine.run(db)
        db.retract_facts("edge", [(0, 1)])
        engine.run(db)
        ids2 = db.add_facts("edge", [(1, 2)], probs=[0.7])
        engine.run(db)
        assert ids1.tolist() == [0] and ids2.tolist() == [1]
        assert db.provenance.input_probs.tolist() == [0.5, 0.7]


class TestMaintainFidelity:
    @given(edge_lists, edge_lists, edge_lists)
    @settings(max_examples=20, deadline=None)
    def test_unit_mixed_stream_matches_cold(self, base, retracts, inserts):
        retracts = [e for e in retracts if e in set(base)]
        inserts = [e for e in inserts if e not in set(base)]
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", base)
        engine.run(db)
        db.retract_facts("edge", retracts)
        db.add_facts("edge", inserts)
        engine.run(db)
        survivors = [e for e in base if e not in set(retracts)] + inserts
        _, cold_db = cold_tc(survivors)
        assert sorted(db.result("path").rows()) == sorted(
            cold_db.result("path").rows()
        )

    @given(edge_lists, edge_lists, st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_minmaxprob_mixed_stream_matches_cold(self, base, retracts, seed):
        retracts = [e for e in retracts if e in set(base)]
        rng = np.random.default_rng(seed)
        probs = {e: float(p) for e, p in zip(base, rng.uniform(0.05, 1.0, len(base)))}
        engine = LobsterEngine(TC, provenance="minmaxprob")
        db = engine.create_database()
        db.add_facts("edge", base, probs=[probs[e] for e in base])
        engine.run(db)
        db.retract_facts("edge", retracts)
        warm = engine.run(db)
        assert warm.maintained == bool(retracts)
        survivors = [e for e in base if e not in set(retracts)]
        cold_engine, cold_db = cold_tc(
            survivors, "minmaxprob", [probs[e] for e in survivors]
        )
        assert_probs_match(
            engine.query_probs(db, "path"), cold_engine.query_probs(cold_db, "path")
        )

    def test_every_tick_of_seeded_stream_matches_cold(self):
        # 25 ticks of mixed churn, checked against cold after EVERY tick.
        rng = np.random.default_rng(11)
        engine = LobsterEngine(TC, provenance="minmaxprob")
        db = engine.create_database()
        live: dict[tuple, float] = {}
        for tick in range(25):
            inserts = []
            for _ in range(int(rng.integers(1, 4))):
                row = (int(rng.integers(0, 9)), int(rng.integers(0, 9)))
                if row[0] != row[1] and row not in live:
                    live[row] = float(rng.uniform(0.1, 1.0))
                    inserts.append(row)
            if inserts:
                db.add_facts("edge", inserts, probs=[live[r] for r in inserts])
            if live and tick % 2:
                pool = sorted(live)
                picks = rng.choice(len(pool), size=min(2, len(pool)), replace=False)
                victims = [pool[int(i)] for i in picks]
                db.retract_facts("edge", victims)
                for victim in victims:
                    del live[victim]
            engine.run(db)
            rows = sorted(live)
            cold_engine, cold_db = cold_tc(
                rows, "minmaxprob", [live[r] for r in rows]
            )
            assert_probs_match(
                engine.query_probs(db, "path"),
                cold_engine.query_probs(cold_db, "path"),
            )

    def test_top1_proofs_matches_cold(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
        probs = [0.9, 0.8, 0.5, 0.7, 0.6]
        engine = LobsterEngine(TC, provenance="prob-top-1-proofs")
        db = engine.create_database()
        db.add_facts("edge", edges, probs=probs)
        engine.run(db)
        db.retract_facts("edge", [(0, 1)])
        result = engine.run(db)
        assert result.maintained
        survivors = [(e, p) for e, p in zip(edges, probs) if e != (0, 1)]
        cold_engine, cold_db = cold_tc(
            [e for e, _ in survivors],
            "prob-top-1-proofs",
            [p for _, p in survivors],
        )
        assert_probs_match(
            engine.query_probs(db, "path"), cold_engine.query_probs(cold_db, "path")
        )

    def test_cspa_churn_matches_cold(self):
        rng = np.random.default_rng(7)
        assign = sorted(
            {
                (int(a), int(b))
                for a, b in zip(rng.integers(0, 20, 50), rng.integers(0, 20, 50))
                if a != b
            }
        )
        deref = sorted(
            {
                (int(a), int(b))
                for a, b in zip(rng.integers(0, 20, 25), rng.integers(0, 20, 25))
                if a != b
            }
        )
        probs = {r: float(rng.uniform(0.2, 1.0)) for r in assign}

        def cold(rows):
            engine = LobsterEngine(CSPA, provenance="minmaxprob")
            db = engine.create_database()
            db.add_facts("assign", rows, probs=[probs[r] for r in rows])
            db.add_facts("dereference", deref)
            engine.run(db)
            return engine, db

        engine = LobsterEngine(CSPA, provenance="minmaxprob")
        db = engine.create_database()
        db.add_facts("assign", assign, probs=[probs[r] for r in assign])
        db.add_facts("dereference", deref)
        engine.run(db)
        live = list(assign)
        for tick in range(4):
            victims = live[tick::5][:3]
            db.retract_facts("assign", victims)
            live = [r for r in live if r not in set(victims)]
            result = engine.run(db)
            assert result.maintained, result.maintain_fallback
            cold_engine, cold_db = cold(live)
            for relation in ("value_flow", "memory_alias", "value_alias"):
                assert_probs_match(
                    engine.query_probs(db, relation),
                    cold_engine.query_probs(cold_db, relation),
                )

    def test_multi_stratum_retraction_propagates_downstream(self):
        source = """
        rel tc(x, y) :- edge(x, y) or (tc(x, z) and edge(z, y)).
        rel in_cycle(x) :- tc(x, x).
        rel cycle_pair(x, y) :- in_cycle(x), in_cycle(y), tc(x, y).
        """
        engine = LobsterEngine(source)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (2, 0), (3, 3)])
        engine.run(db)
        assert sorted(db.result("in_cycle").rows()) == [(0,), (1,), (2,), (3,)]
        db.retract_facts("edge", [(2, 0)])  # breaks the 3-cycle
        result = engine.run(db)
        assert result.maintained
        assert sorted(db.result("in_cycle").rows()) == [(3,)]
        assert sorted(db.result("cycle_pair").rows()) == [(3, 3)]

    def test_gradients_after_maintain_match_cold(self):
        engine = LobsterEngine(TC, provenance="diff-minmaxprob")
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (0, 2)], probs=[0.9, 0.4, 0.7])
        engine.run(db)
        db.retract_facts("edge", [(0, 2)])
        result = engine.run(db)
        assert result.maintained
        grad_warm = engine.backward(db, "path", {(0, 2): 1.0})
        cold_engine, cold_db = cold_tc(
            [(0, 1), (1, 2)], "diff-minmaxprob", [0.9, 0.4]
        )
        grad_cold = cold_engine.backward(cold_db, "path", {(0, 2): 1.0})
        # Warm keeps the retracted fact's id slot; map by position.
        np.testing.assert_allclose(grad_warm[:2], grad_cold)
        assert grad_warm[2] == 0.0  # the retracted fact gets no gradient

    def test_maintain_is_cheaper_than_cold_on_long_chains(self):
        # The performance rationale: maintaining a small retraction must
        # not replay the whole iteration ladder a cold run climbs.
        chain = [(i, i + 1) for i in range(40)]
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", chain)
        cold = engine.run(db)
        db.retract_facts("edge", [(39, 40)])  # clip the chain's tail
        warm = engine.run(db)
        assert warm.maintained
        assert warm.iterations < cold.iterations / 2


class TestMaintainFallbacks:
    def test_negation_falls_back_and_stays_correct(self):
        source = """
        rel reach(x) :- start(x) or (reach(y) and e(y, x)).
        rel unreached(x) :- node(x), not reach(x).
        """
        engine = LobsterEngine(source)
        db = engine.create_database()
        db.add_facts("start", [(0,)])
        db.add_facts("e", [(0, 1), (1, 2)])
        db.add_facts("node", [(0,), (1,), (2,)])
        engine.run(db)
        assert db.result("unreached").n_rows == 0
        db.retract_facts("e", [(1, 2)])
        result = engine.run(db)
        assert not result.maintained
        assert "negation" in result.maintain_fallback
        # Retraction ADDED a negated conclusion — exactly what DRed
        # cannot express and the fallback must.
        assert sorted(db.result("unreached").rows()) == [(2,)]

    def test_non_idempotent_oplus_falls_back(self):
        engine = LobsterEngine("rel q(x) :- a(x) or b(x).", provenance="addmultprob")
        db = engine.create_database()
        db.add_facts("a", [(1,)], probs=[0.3])
        db.add_facts("b", [(1,)], probs=[0.4])
        engine.run(db)
        db.retract_facts("b", [(1,)])
        result = engine.run(db)
        assert not result.maintained
        assert "idempotent" in result.maintain_fallback
        assert engine.query_probs(db, "q")[(1,)] == pytest.approx(0.3)

    def test_explicit_maintain_on_unsupported_program_raises(self):
        engine = LobsterEngine(
            "rel ok(x) :- v(x), not bad(x).", provenance="unit"
        )
        db = engine.create_database()
        db.add_facts("v", [(1,)])
        db.add_facts("bad", [(2,)])
        engine.run(db)
        db.retract_facts("bad", [(2,)])
        with pytest.raises(RetractionUnsupportedError, match="negation"):
            engine.run(db, maintain=True)

    def test_explicit_maintain_without_retractions_raises(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        engine.run(db)
        with pytest.raises(RetractionUnsupportedError, match="no retractions"):
            engine.run(db, maintain=True)

    def test_maintain_false_forces_checkpointed_recompute(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        engine.run(db)
        db.retract_facts("edge", [(1, 2)])
        result = engine.run(db, maintain=False)
        assert not result.maintained
        assert "maintain=False" in result.maintain_fallback
        assert sorted(db.result("path").rows()) == [(0, 1)]

    def test_retraction_before_first_run_is_cold(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        db.finalize()
        db.retract_facts("edge", [(1, 2)])
        result = engine.run(db)
        assert not result.maintained
        assert sorted(db.result("path").rows()) == [(0, 1)]
