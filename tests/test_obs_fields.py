"""ExecutionResult observability fields across execution paths.

Every trace attribute the obs/ layer exports originates in the fields
under test here — ``maintained``, ``maintain_fallback`` and
``incremental`` — so each execution path (cold, warm incremental,
maintained) must report them consistently: flags that exclude each other
never co-assert, and a fallback reason is present exactly when the flag
says the fast path was not taken.
"""

from __future__ import annotations

import numpy as np

from repro import LobsterEngine, ProgramCache

from _helpers import TC_PROGRAM, random_digraph

EDGES = random_digraph(np.random.default_rng(11), 30, 80)


def run_fresh(engine):
    """Run one fresh database over ``EDGES``."""
    db = engine.create_database()
    db.add_facts("edge", EDGES)
    return engine.run(db)


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
