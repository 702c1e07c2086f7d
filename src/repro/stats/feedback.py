"""Plan feedback: estimated vs. observed cardinalities for one run.

The interpreter fills a :class:`PlanFeedback` while it executes — per-rule
output cardinalities (the largest single firing, which on a cold run is
the full-join firing the planner estimated), per-instruction-class output
row totals and final relation sizes.  The engine pairs the actuals with
the compiled plan's estimates and exposes :meth:`PlanFeedback.max_drift`:
the worst estimated/observed ratio across rules.

Drift past the engine's threshold means the plan was chosen from
statistics that no longer describe the data.  The adaptive loop then
*invalidates* the cached artifact for that stats bucket
(:meth:`~repro.runtime.cache.ProgramCache.invalidate`), so the next run —
whose catalog now includes the observed intermediate cardinalities —
re-plans instead of reusing the stale join order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PlanFeedback"]


@dataclass
class PlanFeedback:
    """Observed cardinalities of one execution, keyed like the plan."""

    #: Bucket key of the catalog the executed plan was costed under
    #: (None: the zero-stats fallback plan).
    stats_bucket: str | None = None
    #: Planner estimate per rule (``s<i>r<j>`` keys): rows one full
    #: evaluation of the rule body produces.
    rule_estimates: dict[str, float] = field(default_factory=dict)
    #: Largest observed single-firing output per rule, same keys.
    rule_actuals: dict[str, int] = field(default_factory=dict)
    #: Total output rows per instruction class (Probe = join matches,
    #: EvalFilter = selection survivors, StoreDelta = rule outputs).
    instruction_rows: dict[str, int] = field(default_factory=dict)
    #: Final row count per relation after the run.
    relation_rows: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording (interpreter side)

    def record_rule(self, rule_key: str, n_rows: int) -> None:
        prior = self.rule_actuals.get(rule_key)
        if prior is None or n_rows > prior:
            # A zero must register too: an estimated-large rule whose
            # every firing is empty is the *worst* misestimate, and
            # max_drift clamps observations to 1.0 before comparing.
            self.rule_actuals[rule_key] = n_rows

    def record_instruction(self, name: str, n_rows: int) -> None:
        self.instruction_rows[name] = self.instruction_rows.get(name, 0) + n_rows

    # ------------------------------------------------------------------
    # Reading (engine / scheduler side)

    def max_drift(self) -> float:
        """Worst symmetric estimated/observed ratio across rules with
        both an estimate and an observation; 1.0 = perfectly calibrated,
        0.0 = nothing to compare (no estimates recorded)."""
        worst = 0.0
        for key, estimate in self.rule_estimates.items():
            actual = self.rule_actuals.get(key)
            if actual is None or estimate <= 0.0:
                continue
            observed = max(float(actual), 1.0)
            expected = max(estimate, 1.0)
            worst = max(worst, observed / expected, expected / observed)
        return worst

    def should_replan(self, threshold: float) -> bool:
        """Whether observed cardinalities drifted past ``threshold``
        (a ratio, e.g. 8.0 = off by 8x in either direction)."""
        return self.max_drift() > threshold
