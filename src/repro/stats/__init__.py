"""Live relation statistics for cost-based planning (this repo's layer).

``stats/`` is the planner's sensory system: per-relation row counts,
per-column ranges, KMV distinct-count sketches, and count-min frequency
sketches, maintained incrementally by the storage layer
(:mod:`repro.runtime.relation`) and snapshotted into a
:class:`StatsCatalog` whose *bucket key* content-addresses compiled
plans.  :mod:`repro.stats.estimate` turns the catalog into cardinality
estimates and a :class:`CostModel`;
:mod:`repro.stats.feedback` closes the loop with observed cardinalities
that trigger re-planning when estimates drift.
"""

from .estimate import CostModel, DEFAULT_ROWS
from .feedback import PlanFeedback
from .relation_stats import ColumnStats, RelationStats, StatsCatalog
from .sketches import CountMinSketch, KmvSketch

__all__ = [
    "ColumnStats",
    "CostModel",
    "CountMinSketch",
    "DEFAULT_ROWS",
    "KmvSketch",
    "PlanFeedback",
    "RelationStats",
    "StatsCatalog",
]
