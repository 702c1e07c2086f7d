"""End-to-end gradient checks: engine.backward vs finite differences.

Stronger than the per-semiring unit tests — these differentiate *through
the whole pipeline* (parser, planner, APM, fix-point, tag saturation) on
recursive programs, comparing against numeric differentiation of the
engine's own forward pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LobsterEngine

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."


def forward_prob(engine, edges, probs, row):
    db = engine.create_database()
    db.add_facts("edge", edges, probs=list(probs))
    engine.run(db)
    return engine.query_probs(db, "path").get(row, 0.0), db


def engine_gradient(engine, edges, probs, row):
    _, db = forward_prob(engine, edges, probs, row)
    return engine.backward(db, "path", {row: 1.0})


def numeric_gradient(engine, edges, probs, row, eps=1e-6):
    grad = np.zeros(len(probs))
    base, _ = forward_prob(engine, edges, probs, row)
    for index in range(len(probs)):
        perturbed = np.array(probs, dtype=float)
        perturbed[index] += eps
        up, _ = forward_prob(engine, edges, perturbed, row)
        grad[index] = (up - base) / eps
    return grad


class TestDiffTop1EndToEnd:
    def make_engine(self):
        return LobsterEngine(TC, provenance="diff-top-1-proofs", proof_capacity=16)

    def test_chain(self):
        engine = self.make_engine()
        edges = [(0, 1), (1, 2), (2, 3)]
        probs = [0.9, 0.8, 0.7]
        analytic = engine_gradient(engine, edges, probs, (0, 3))
        numeric = numeric_gradient(engine, edges, probs, (0, 3))
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_diamond_gradient_follows_best_proof(self):
        engine = self.make_engine()
        # Route via 1 has probability 0.72, via 2 only 0.30: the top-1
        # gradient is zero on the losing route's edges.
        edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
        probs = [0.9, 0.8, 0.5, 0.6]
        analytic = engine_gradient(engine, edges, probs, (0, 3))
        numeric = numeric_gradient(engine, edges, probs, (0, 3))
        assert np.allclose(analytic, numeric, atol=1e-4)
        assert analytic[2] == 0.0 and analytic[3] == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1]),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_gradcheck(self, edges, seed):
        # Probabilities are kept apart so the +eps perturbation cannot
        # flip which proof is the top-1 (the function is piecewise
        # differentiable; we test inside a piece).
        rng = np.random.default_rng(seed)
        probs = rng.choice(np.linspace(0.15, 0.85, 40), size=len(edges), replace=False)
        engine = self.make_engine()
        db = engine.create_database()
        db.add_facts("edge", edges, probs=list(probs))
        engine.run(db)
        derived = engine.query_probs(db, "path")
        if not derived:
            return
        row = sorted(derived)[0]
        analytic = engine_gradient(engine, edges, probs, row)
        numeric = numeric_gradient(engine, edges, probs, row)
        assert np.allclose(analytic, numeric, atol=1e-3)


class TestDiffMinMaxEndToEnd:
    def test_witness_gradient(self):
        engine = LobsterEngine(TC, provenance="diff-minmaxprob")
        edges = [(0, 1), (1, 2)]
        probs = [0.9, 0.4]
        analytic = engine_gradient(engine, edges, probs, (0, 2))
        numeric = numeric_gradient(engine, edges, probs, (0, 2))
        # min(0.9, 0.4): all gradient on the weakest link.
        assert np.allclose(analytic, [0.0, 1.0])
        assert np.allclose(analytic, numeric, atol=1e-4)

