"""ExecutionResult observability fields across execution paths.

Every trace attribute the obs/ layer exports originates in the fields
under test here — ``maintained``, ``maintain_fallback``, ``replanned``,
``incremental``, ``feedback`` — so each execution path (cold, warm
incremental, maintained, adaptive)
must report them consistently: flags that exclude each other
never co-assert, and a fallback reason is present exactly when the flag
says the fast path was not taken.
"""

from __future__ import annotations

import numpy as np

from repro import LobsterEngine, ProgramCache

from _helpers import TC_PROGRAM, random_digraph

EDGES = random_digraph(np.random.default_rng(11), 30, 80)


def run_fresh(engine, edges=EDGES, probs=None, n_runs=1):
    """Run ``n_runs`` fresh databases; return the last result."""
    result = None
    for _ in range(n_runs):
        db = engine.create_database()
        db.add_facts("edge", edges, probs)
        result = engine.run(db)
    return result


def assert_flags_consistent(result):
    """The cross-field invariants every path must satisfy."""
    # A maintain fallback reason exists only when the run did NOT
    # maintain in place.
    if result.maintained:
        assert result.maintain_fallback is None
    if result.maintain_fallback is not None:
        assert not result.maintained


class TestColdPath:
    def test_cold_run_reports_quiescent_defaults(self):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        result = run_fresh(engine)
        assert_flags_consistent(result)
        assert result.incremental is False
        assert result.maintained is False
        assert result.maintain_fallback is None
        assert result.replanned is False
        assert result.feedback is None  # non-adaptive: no collection
        assert result.iterations > 0


class TestWarmPaths:
    def test_incremental_run_flags_incremental(self):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        db = engine.create_database()
        db.add_facts("edge", EDGES[:40])
        engine.run(db)
        db.add_facts("edge", EDGES[40:])
        warm = engine.run(db)
        assert_flags_consistent(warm)
        assert warm.incremental
        assert warm.maintained is False

    def test_maintain_run_flags_maintained_without_fallback(self):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (2, 3), (0, 3)])
        engine.run(db)
        db.retract_facts("edge", [(0, 1)])
        result = engine.run(db)
        assert_flags_consistent(result)
        assert result.maintained
        assert result.maintain_fallback is None


class TestAdaptivePath:
    def test_replanned_and_feedback_populate_together(self):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache(), adaptive=True)
        first = run_fresh(engine)
        assert_flags_consistent(first)
        assert first.replanned  # compile-time plan -> stats-bucket plan
        assert first.feedback is not None
        assert first.feedback.stats_bucket is not None
        assert first.feedback.rule_estimates
        second = run_fresh(engine)
        assert_flags_consistent(second)
        assert second.replanned is False  # same shape: plan reused
