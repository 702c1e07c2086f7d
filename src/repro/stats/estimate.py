"""Cardinality estimation and the cost model.

The cost-based planner works over *bindings*: an atom (or a partial join
result) is summarized as an estimated row count plus a per-variable
:class:`VarStats` (distinct count and, when the variable maps straight to
a stored column, that column's sketches).  Estimation follows the classic
System-R recipe with a sketch upgrade:

* **base atoms** — row count from :class:`~repro.stats.RelationStats`;
  constant arguments apply a CMS point-query selectivity (exact-ish under
  skew, ``1/V`` fallback); repeated variables apply ``1/max(V)``;
* **joins** — when both sides still carry a concrete column sketch for a
  shared variable, the CMS inner product estimates the match count
  directly (this is what prices *skew*: a shared heavy hitter multiplies
  out, which the distinct-count formula cannot see); otherwise the
  textbook ``|L||R| / prod max(V_L, V_R)`` formula applies;
* **comparisons** — equality ``1/max(V)``, range predicates interpolate
  against min/max when a constant bound is known, ``1/3`` otherwise.

Unknown relations (an IDB predicate before its first run) fall back to
:data:`DEFAULT_ROWS`; the adaptive loop replaces the guess with observed
statistics after one execution.

:class:`CostModel` turns cardinalities into plan cost: each join step
charges its inputs and its output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relation_stats import ColumnStats, RelationStats, StatsCatalog

__all__ = ["CostModel", "VarStats", "Binding", "DEFAULT_ROWS"]

#: Assumed cardinality of a relation with no statistics (an IDB predicate
#: that has never been materialized, or a cold EDB).
DEFAULT_ROWS = 1000.0


@dataclass
class VarStats:
    """What the estimator knows about one bound variable."""

    n_distinct: float
    #: The stored column's sketches, while the variable still maps 1:1 to
    #: a base-relation column (joins against it can use the CMS inner
    #: product); dropped once the variable survives a join, where its
    #: value distribution is no longer any single column's.
    column: ColumnStats | None = None

    def copy(self) -> "VarStats":
        return VarStats(self.n_distinct, self.column)


@dataclass
class Binding:
    """A partial plan's estimated output: row count + per-variable stats."""

    rows: float
    vars: dict[str, VarStats]

    def copy(self) -> "Binding":
        return Binding(self.rows, {k: v.copy() for k, v in self.vars.items()})

    def clamp(self) -> "Binding":
        self.rows = max(self.rows, 1.0)
        for stats in self.vars.values():
            stats.n_distinct = max(1.0, min(stats.n_distinct, self.rows))
        return self


@dataclass(frozen=True)
class CostModel:
    """Prices a plan step in abstract tuple units."""

    #: Cost per input row consumed by a join/selection kernel.
    tuple_cost: float = 1.0
    #: Cost per output row materialized.
    output_cost: float = 1.0

    def key(self) -> str:
        """Cache-identity fragment: two engines whose cost models differ
        must not share a compiled plan even for the same program and
        stats bucket."""
        return f"t{self.tuple_cost:g}o{self.output_cost:g}"

    def join_cost(self, left_rows: float, right_rows: float, out_rows: float) -> float:
        return (
            self.tuple_cost * (left_rows + right_rows)
            + self.output_cost * out_rows
        )


# ---------------------------------------------------------------------------
# Estimation


def relation_rows(stats: RelationStats | None) -> float:
    if stats is None:
        return DEFAULT_ROWS
    return float(max(stats.row_count, 1))


def eq_const_selectivity(stats: RelationStats | None, column: int, value) -> float:
    """Selectivity of ``col == value`` on a base relation."""
    if stats is None or column >= stats.arity or stats.row_count == 0:
        return 0.1
    col = stats.columns[column]
    value = col.coerce(value)
    if value is None:
        # A fractional constant can never equal an integer column.
        return 1.0 / (2.0 * stats.row_count)
    estimate = col.cms.count(value)
    if estimate <= 0:
        # CMS never undercounts, so a zero is a certain miss; keep a
        # floor so plans never divide by a zero-cardinality step.
        return 1.0 / (2.0 * stats.row_count)
    return min(1.0, estimate / stats.row_count)


def range_selectivity(column: ColumnStats | None, op: str, value: float) -> float:
    """Uniform-interpolation selectivity of ``col <op> value``."""
    if (
        column is None
        or column.min is None
        or column.max is None
        or column.max <= column.min
    ):
        return 1.0 / 3.0
    fraction = (value - column.min) / (column.max - column.min)
    fraction = min(1.0, max(0.0, fraction))
    if op in ("<", "<="):
        return max(fraction, 1e-3)
    if op in (">", ">="):
        return max(1.0 - fraction, 1e-3)
    return 1.0 / 3.0


def join_bindings(left: Binding, right: Binding, shared: list[str]) -> Binding:
    """Estimated output of joining two bindings on their shared variables."""
    if not shared:
        out_rows = left.rows * right.rows
    else:
        # Matching on *all* shared variables is a subset of matching on
        # each one, so the per-variable estimates bound the join size:
        # take their min.  Per variable, prefer the CMS inner product
        # when both sides still carry concrete column sketches (it sees
        # skew); fall back to |L||R| / max(V_L, V_R) otherwise.
        out_rows = left.rows * right.rows
        for name in shared:
            lvar, rvar = left.vars[name], right.vars[name]
            if lvar.column is not None and rvar.column is not None:
                candidate = lvar.column.cms.inner_product(rvar.column.cms)
                # The sketches summarize the *base* columns; scale by the
                # fraction of each side's rows that earlier selections
                # kept, so a constant filter stays visible in the join.
                if lvar.column.cms.total > 0:
                    candidate *= min(1.0, left.rows / lvar.column.cms.total)
                if rvar.column.cms.total > 0:
                    candidate *= min(1.0, right.rows / rvar.column.cms.total)
                candidate = max(candidate, 1.0)
            else:
                denom = max(lvar.n_distinct, rvar.n_distinct, 1.0)
                candidate = left.rows * right.rows / denom
            out_rows = min(out_rows, candidate)

    merged: dict[str, VarStats] = {}
    for name, stats in left.vars.items():
        if name in right.vars:
            other = right.vars[name]
            merged[name] = VarStats(
                min(stats.n_distinct, other.n_distinct), column=None
            )
        else:
            merged[name] = VarStats(stats.n_distinct, column=None)
    for name, stats in right.vars.items():
        if name not in merged:
            merged[name] = VarStats(stats.n_distinct, column=None)
    return Binding(out_rows, merged).clamp()


def atom_binding(
    predicate: str,
    args: list,
    catalog: StatsCatalog | None,
) -> Binding:
    """Estimated output of scanning one atom (constants and repeated
    variables applied as selections, matching the lowering).

    ``args`` pairs each argument position with either ``("var", name)``,
    ``("const", value)``, or ``("other", None)`` — the planner extracts
    this from the AST so this module stays AST-agnostic.
    """
    stats = catalog.get(predicate) if catalog is not None else None
    rows = relation_rows(stats)
    selectivity = 1.0
    seen: dict[str, int] = {}
    vars_out: dict[str, VarStats] = {}
    for position, (kind, value) in enumerate(args):
        column = (
            stats.columns[position]
            if stats is not None and position < stats.arity
            else None
        )
        if kind == "const":
            selectivity *= eq_const_selectivity(stats, position, value)
        elif kind == "var":
            if value in seen:
                # Repeated variable: implicit equality between columns.
                distinct = vars_out[value].n_distinct
                other = column.n_distinct if column is not None else distinct
                selectivity *= 1.0 / max(distinct, other, 1.0)
            else:
                seen[value] = position
                distinct = (
                    column.n_distinct if column is not None else max(rows, 1.0)
                )
                vars_out[value] = VarStats(distinct, column=column)
    out_rows = rows * selectivity
    for name, stats_v in vars_out.items():
        stats_v.n_distinct = min(stats_v.n_distinct, max(out_rows, 1.0))
    return Binding(out_rows, vars_out).clamp()
