"""Memoization contract of apm/schedule.cached_plan.

The transfer plan is computed once per compiled program and served by
identity afterwards; distinct compiled programs — even of identical
source — must never share or clobber each other's plans.
"""

from __future__ import annotations

from repro import LobsterEngine
from repro.apm.schedule import cached_plan, plan_transfers
from repro.runtime.cache import OptimizationConfig, compile_source

SOURCE = """
rel base(x, y) :- edge(x, y).
rel path(x, y) :- base(x, y) or (path(x, z) and base(z, y)).
rel reach(x) :- path(s, x), start(s).
query reach
"""


def _compile():
    return compile_source(SOURCE, "unit", OptimizationConfig(), False)


class TestCachedPlanMemoization:
    def test_hit_returns_the_identical_object(self):
        apm = _compile().apm
        first = cached_plan(apm)
        assert cached_plan(apm) is first  # memo hit, not a rebuild

    def test_memoized_plan_matches_a_fresh_computation(self):
        apm = _compile().apm
        assert cached_plan(apm) == plan_transfers(apm)

    def test_independence_across_compiled_programs(self):
        """Two independently compiled artifacts of the *same* source get
        their own plan entries (keying is program identity, not content)."""
        apm_a = _compile().apm
        apm_b = _compile().apm
        assert apm_a is not apm_b
        plan_a = cached_plan(apm_a)
        plan_b = cached_plan(apm_b)
        assert plan_a is not plan_b  # separate memo entries
        assert plan_a == plan_b  # ... with equal content
        # Neither lookup invalidated the other's entry.
        assert cached_plan(apm_a) is plan_a
        assert cached_plan(apm_b) is plan_b

    def test_engines_sharing_a_cached_program_share_the_plan(self):
        engine_a = LobsterEngine(SOURCE, provenance="unit")
        engine_b = LobsterEngine(SOURCE, provenance="unit")
        assert engine_a.apm is engine_b.apm  # program cache shares the APM
        assert cached_plan(engine_a.apm) is cached_plan(engine_b.apm)
