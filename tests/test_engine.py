"""End-to-end engine tests: language features through the full pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LobsterEngine, LobsterError
from tests.conftest import brute_force_closure, random_digraph, run_tc


class TestTransitiveClosure:
    def test_small_cycle(self):
        _, db = run_tc([(0, 1), (1, 2), (2, 0)])
        assert len(db.result("path").rows()) == 9  # complete closure

    def test_matches_brute_force(self, rng):
        edges = random_digraph(rng, 25, 60)
        _, db = run_tc(edges)
        assert set(db.result("path").rows()) == brute_force_closure(edges)

    def test_empty_edb(self):
        _, db = run_tc([])
        assert db.result("path").n_rows == 0

    def test_self_loop(self):
        _, db = run_tc([(3, 3)])
        assert db.result("path").rows() == [(3, 3)]


class TestLanguageFeatures:
    def test_arity_zero_head(self):
        engine = LobsterEngine("rel found() :- e(x, y), x != y.")
        db = engine.create_database()
        db.add_facts("e", [(1, 1), (2, 3)])
        engine.run(db)
        assert db.result("found").n_rows == 1

    def test_arity_zero_false(self):
        engine = LobsterEngine("rel found() :- e(x, y), x != y.")
        db = engine.create_database()
        db.add_facts("e", [(1, 1)])
        engine.run(db)
        assert db.result("found").n_rows == 0

    def test_constants_in_body(self):
        engine = LobsterEngine("rel from_zero(y) :- e(0, y).")
        db = engine.create_database()
        db.add_facts("e", [(0, 5), (1, 6), (0, 7)])
        engine.run(db)
        assert sorted(db.result("from_zero").rows()) == [(5,), (7,)]

    def test_repeated_variable_in_atom(self):
        engine = LobsterEngine("rel loop(x) :- e(x, x).")
        db = engine.create_database()
        db.add_facts("e", [(1, 1), (1, 2), (3, 3)])
        engine.run(db)
        assert sorted(db.result("loop").rows()) == [(1,), (3,)]

    def test_wildcards(self):
        engine = LobsterEngine("rel src(x) :- e(x, _).")
        db = engine.create_database()
        db.add_facts("e", [(1, 2), (1, 3), (4, 5)])
        engine.run(db)
        assert sorted(db.result("src").rows()) == [(1,), (4,)]

    def test_head_arithmetic(self):
        engine = LobsterEngine("rel double(x + x) :- v(x).")
        db = engine.create_database()
        db.add_facts("v", [(2,), (5,)])
        engine.run(db)
        assert sorted(db.result("double").rows()) == [(4,), (10,)]

    def test_float_arithmetic(self):
        engine = LobsterEngine("rel ratio(x / y) :- pair(x, y).")
        db = engine.create_database()
        db.add_facts("pair", [(1, 2), (3, 4)])
        engine.run(db)
        values = sorted(r[0] for r in db.result("ratio").rows())
        assert values == pytest.approx([0.5, 0.75])

    def test_comparisons(self):
        engine = LobsterEngine("rel big(x) :- v(x), x >= 10.")
        db = engine.create_database()
        db.add_facts("v", [(5,), (10,), (15,)])
        engine.run(db)
        assert sorted(db.result("big").rows()) == [(10,), (15,)]

    def test_cross_product(self):
        engine = LobsterEngine("rel pair(x, y) :- a(x), b(y).")
        db = engine.create_database()
        db.add_facts("a", [(1,), (2,)])
        db.add_facts("b", [(10,), (20,)])
        engine.run(db)
        assert len(db.result("pair").rows()) == 4

    def test_stratified_negation(self):
        engine = LobsterEngine(
            """
            rel reach(x) :- start(x) or (reach(y) and e(y, x)).
            rel unreached(x) :- node(x), not reach(x).
            """
        )
        db = engine.create_database()
        db.add_facts("start", [(0,)])
        db.add_facts("e", [(0, 1), (2, 3)])
        db.add_facts("node", [(0,), (1,), (2,), (3,)])
        engine.run(db)
        assert sorted(db.result("unreached").rows()) == [(2,), (3,)]

    def test_negation_zero_shared_vars(self):
        engine = LobsterEngine("rel ok(x) :- v(x), not disabled().")
        db = engine.create_database()
        db.add_facts("v", [(1,)])
        db.add_facts("disabled", [()])
        engine.run(db)
        assert db.result("ok").n_rows == 0

    def test_fact_blocks(self):
        engine = LobsterEngine(
            "rel edge = {(0, 1), (1, 2)}\n"
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."
        )
        db = engine.create_database()
        engine.run(db)
        assert set(db.result("path").rows()) == {(0, 1), (1, 2), (0, 2)}

    def test_string_constants(self):
        engine = LobsterEngine(
            'rel parent = {("alice", "bob"), ("bob", "carol")}\n'
            "rel grandparent(x, z) :- parent(x, y), parent(y, z)."
        )
        db = engine.create_database()
        engine.run(db)
        symbols = engine.resolved.symbols
        rows = db.result("grandparent").rows()
        decoded = [(symbols.lookup(a), symbols.lookup(b)) for a, b in rows]
        assert decoded == [("alice", "carol")]

    def test_multi_stratum_pipeline(self):
        engine = LobsterEngine(
            """
            rel tc(x, y) :- e(x, y) or (tc(x, z) and e(z, y)).
            rel in_cycle(x) :- tc(x, x).
            rel cycle_pair(x, y) :- in_cycle(x), in_cycle(y), tc(x, y).
            """
        )
        db = engine.create_database()
        db.add_facts("e", [(0, 1), (1, 0), (1, 2)])
        engine.run(db)
        assert sorted(db.result("in_cycle").rows()) == [(0,), (1,)]

    def test_mutual_recursion(self):
        engine = LobsterEngine(
            """
            rel even(x) :- zero(x).
            rel even(y) :- odd(x), succ(x, y).
            rel odd(y) :- even(x), succ(x, y).
            """
        )
        db = engine.create_database()
        db.add_facts("zero", [(0,)])
        db.add_facts("succ", [(i, i + 1) for i in range(6)])
        engine.run(db)
        assert sorted(db.result("even").rows()) == [(0,), (2,), (4,), (6,)]
        assert sorted(db.result("odd").rows()) == [(1,), (3,), (5,)]


class TestProbabilisticSemantics:
    def test_minmax_path_prob(self):
        engine = LobsterEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            provenance="minmaxprob",
        )
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)], probs=[0.9, 0.4])
        engine.run(db)
        probs = engine.query_probs(db, "path")
        assert probs[(0, 2)] == pytest.approx(0.4)  # weakest link

    def test_minmax_best_alternative(self):
        engine = LobsterEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            provenance="minmaxprob",
        )
        db = engine.create_database()
        # Two routes 0->3: via 1 (min 0.5) and via 2 (min 0.8).
        db.add_facts(
            "edge",
            [(0, 1), (1, 3), (0, 2), (2, 3)],
            probs=[0.5, 0.9, 0.8, 0.85],
        )
        engine.run(db)
        assert engine.query_probs(db, "path")[(0, 3)] == pytest.approx(0.8)

    def test_top1_proof_probability(self):
        engine = LobsterEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            provenance="prob-top-1-proofs",
            proof_capacity=16,
        )
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)], probs=[0.9, 0.4])
        engine.run(db)
        assert engine.query_probs(db, "path")[(0, 2)] == pytest.approx(0.36)

    def test_tag_saturation_terminates(self):
        # Cyclic graph with minmaxprob: tags improve then saturate.
        engine = LobsterEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            provenance="minmaxprob",
        )
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 0)], probs=[0.9, 0.8])
        result = engine.run(db)
        assert result.iterations < 20
        probs = engine.query_probs(db, "path")
        assert probs[(0, 0)] == pytest.approx(0.8)

    def test_backward_requires_differentiable(self):
        engine = LobsterEngine("rel p(x) :- q(x).", provenance="minmaxprob")
        db = engine.create_database()
        db.add_facts("q", [(1,)], probs=[0.5])
        engine.run(db)
        with pytest.raises(LobsterError, match="not differentiable"):
            engine.backward(db, "p", {(1,): 1.0})


class TestEngineApi:
    def test_topk_rejected_on_device(self):
        with pytest.raises(LobsterError, match="no device implementation"):
            LobsterEngine("rel p(x) :- q(x).", provenance="top-k-proofs")

    def test_run_returns_profile(self):
        engine, db = run_tc([(0, 1), (1, 2)])
        result = engine.run(engine.create_database())
        assert result.wall_seconds >= 0
        assert result.profile.kernel_launches >= 0

    def test_query_probs_discrete_all_one(self):
        engine, db = run_tc([(0, 1)])
        assert engine.query_probs(db, "path") == {(0, 1): 1.0}

    def test_reusable_engine_fresh_databases(self):
        engine = LobsterEngine("rel p(x) :- q(x).")
        db1 = engine.create_database()
        db1.add_facts("q", [(1,)])
        engine.run(db1)
        db2 = engine.create_database()
        db2.add_facts("q", [(2,)])
        engine.run(db2)
        assert db1.result("p").rows() == [(1,)]
        assert db2.result("p").rows() == [(2,)]


class TestConstructorErrorsAreTyped:
    """LobsterEngine forwards unknown keywords to the semiring, so a
    misspelt engine option and an unknown semiring both used to surface
    as bare TypeError / KeyError; both are LobsterErrors now."""

    SOURCE = "rel p(x) :- q(x)."

    def test_misspelt_engine_keyword(self):
        from repro.errors import ProvenanceError

        with pytest.raises(ProvenanceError, match="jitt") as raised:
            LobsterEngine(self.SOURCE, jitt=True)
        assert "'unit'" in str(raised.value)

    def test_unknown_semiring_keyword_names_the_accepted_ones(self):
        from repro.errors import ProvenanceError

        with pytest.raises(ProvenanceError, match="it accepts: proof_capacity"):
            LobsterEngine(self.SOURCE, provenance="prob-top-1-proofs", kk=3)

    def test_keywords_with_a_provenance_instance(self):
        from repro.errors import ProvenanceError
        from repro.provenance.unit import UnitProvenance

        with pytest.raises(ProvenanceError, match="jitt"):
            LobsterEngine(self.SOURCE, provenance=UnitProvenance(), jitt=True)

    def test_unknown_semiring_name(self):
        from repro.errors import ProvenanceError

        with pytest.raises(ProvenanceError, match="known: .*minmaxprob") as raised:
            LobsterEngine(self.SOURCE, provenance="nope")
        assert isinstance(raised.value, LobsterError)
        assert isinstance(raised.value, KeyError)  # what lookups raised before
        assert str(raised.value).startswith("unknown provenance 'nope'")

    def test_type_error_inside_a_semiring_constructor_is_not_masked(self):
        from repro.provenance import registry

        def broken(k=1):
            raise TypeError("from inside")

        registry.register("broken-for-test", broken)
        try:
            with pytest.raises(TypeError, match="from inside"):
                registry.create("broken-for-test", k=2)
        finally:
            del registry._REGISTRY["broken-for-test"]
