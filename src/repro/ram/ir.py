"""The RAM (Relational Algebra Machine) intermediate language (Fig. 4).

A RAM program is a sequence of strata; each stratum holds rules
``target ← expression`` that iterate to a fix point.  Expressions form a
dataflow tree over the operators π (project), σ (select), ⊲⊳ (join on a
column prefix), ∪, ×, ∩, plus an anti-join extension used for stratified
negation (DESIGN.md §6).

Join convention: ``Join(left, right, width)`` equi-joins on the *first*
``width`` columns of both inputs; output columns are all of the left's
followed by the right's non-key columns, matching Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exprs import Expr, expr_dtype


@dataclass(frozen=True)
class Scan:
    """Load a relation (ρ).  ``partition`` is filled by the semi-naive
    expansion: "full", "recent", or "stable"."""

    predicate: str
    partition: str = "full"


@dataclass(frozen=True)
class Project:
    source: "RamExpr"
    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class Select:
    source: "RamExpr"
    predicate: Expr


@dataclass(frozen=True)
class Join:
    left: "RamExpr"
    right: "RamExpr"
    width: int


@dataclass(frozen=True)
class Antijoin:
    """Rows of ``left`` with no key-prefix match in ``right`` (negation)."""

    left: "RamExpr"
    right: "RamExpr"
    width: int


@dataclass(frozen=True)
class Product:
    left: "RamExpr"
    right: "RamExpr"


@dataclass(frozen=True)
class Union:
    items: tuple["RamExpr", ...]


@dataclass(frozen=True)
class Intersect:
    left: "RamExpr"
    right: "RamExpr"


RamExpr = Scan | Project | Select | Join | Antijoin | Product | Union | Intersect


@dataclass(frozen=True)
class RamRule:
    target: str
    expr: RamExpr
    #: Predicates of this rule's body atoms that live in the same stratum.
    recursive_atoms: tuple[int, ...] = ()


@dataclass
class RamStratum:
    predicates: list[str]
    rules: list[RamRule]
    recursive: bool


@dataclass
class RamProgram:
    strata: list[RamStratum]
    schemas: dict[str, tuple[np.dtype, ...]]
    queries: list[str] = field(default_factory=list)


def output_dtypes(
    expr: RamExpr, schemas: dict[str, tuple[np.dtype, ...]]
) -> tuple[np.dtype, ...]:
    """Static column dtypes of a RAM expression."""
    if isinstance(expr, Scan):
        return schemas[expr.predicate]
    if isinstance(expr, Project):
        src = output_dtypes(expr.source, schemas)
        return tuple(expr_dtype(e, src) for e in expr.exprs)
    if isinstance(expr, Select):
        return output_dtypes(expr.source, schemas)
    if isinstance(expr, Join):
        left = output_dtypes(expr.left, schemas)
        right = output_dtypes(expr.right, schemas)
        return left + right[expr.width :]
    if isinstance(expr, Antijoin):
        return output_dtypes(expr.left, schemas)
    if isinstance(expr, Product):
        return output_dtypes(expr.left, schemas) + output_dtypes(expr.right, schemas)
    if isinstance(expr, Union):
        return output_dtypes(expr.items[0], schemas)
    if isinstance(expr, Intersect):
        return output_dtypes(expr.left, schemas)
    raise TypeError(f"unexpected RAM node {expr!r}")


def column_origins(
    expr: RamExpr, schemas: dict[str, tuple[np.dtype, ...]]
) -> list[set[tuple[int, int]]]:
    """Per output column, the ``(scan_index, scan_column)`` leaves whose
    values it copies (scan indices in :func:`scans_of` order).

    Join keys equate columns, so an output column can originate from
    leaves on both sides; a computed :class:`~repro.ram.exprs` projection
    originates from no leaf (empty set).  This is the column-provenance
    map DRed re-derivation uses to push a doomed-head restriction down
    into each leaf scan as a per-column semijoin filter: any rule
    instance whose head lands in the doomed set must draw these columns'
    values from the doomed rows' projections, so filtering the leaves by
    those value sets is a sound (over-approximating) restriction.
    """
    from . import exprs as E

    counter = [0]

    def walk(node: RamExpr) -> list[set[tuple[int, int]]]:
        if isinstance(node, Scan):
            index = counter[0]
            counter[0] += 1
            return [{(index, j)} for j in range(len(schemas[node.predicate]))]
        if isinstance(node, Select):
            return walk(node.source)
        if isinstance(node, Project):
            source = walk(node.source)
            return [
                set(source[e.index]) if isinstance(e, E.Col) else set()
                for e in node.exprs
            ]
        if isinstance(node, Join):
            left = walk(node.left)
            right = walk(node.right)
            out = [
                set(col) | (right[j] if j < node.width else set())
                for j, col in enumerate(left)
            ]
            return out + right[node.width :]
        if isinstance(node, Antijoin):
            left = walk(node.left)
            walk(node.right)  # consume the right subtree's scan indices
            return left
        if isinstance(node, Product):
            return walk(node.left) + walk(node.right)
        if isinstance(node, Intersect):
            left = walk(node.left)
            right = walk(node.right)
            return [set(col) | right[j] for j, col in enumerate(left)]
        if isinstance(node, Union):
            # The planner splits unions into separate rules before this
            # runs, but keep parity with the sibling walkers.  Each scan
            # leaf belongs to exactly one branch, and a branch's rows
            # draw only on its own scans, so every branch's origin pairs
            # are independently valid — take their union.
            items = [walk(item) for item in node.items]
            return [
                set().union(*(item[j] for item in items))
                for j in range(len(items[0]))
            ]
        raise TypeError(f"unexpected RAM node {node!r}")

    return walk(expr)


def scans_of(expr: RamExpr) -> list[Scan]:
    """All Scan leaves of an expression, left to right."""
    if isinstance(expr, Scan):
        return [expr]
    if isinstance(expr, (Project, Select)):
        return scans_of(expr.source)
    if isinstance(expr, (Join, Antijoin, Product, Intersect)):
        return scans_of(expr.left) + scans_of(expr.right)
    if isinstance(expr, Union):
        out: list[Scan] = []
        for item in expr.items:
            out.extend(scans_of(item))
        return out
    raise TypeError(f"unexpected RAM node {expr!r}")


def replace_scan_partition(expr: RamExpr, scan_index: int, partition: str) -> RamExpr:
    """Return a copy of ``expr`` with the ``scan_index``-th Scan leaf set to
    the given partition (used by the semi-naive expansion)."""
    counter = [0]

    def rewrite(node: RamExpr) -> RamExpr:
        if isinstance(node, Scan):
            index = counter[0]
            counter[0] += 1
            if index == scan_index:
                return Scan(node.predicate, partition)
            return node
        if isinstance(node, Project):
            return Project(rewrite(node.source), node.exprs)
        if isinstance(node, Select):
            return Select(rewrite(node.source), node.predicate)
        if isinstance(node, Join):
            return Join(rewrite(node.left), rewrite(node.right), node.width)
        if isinstance(node, Antijoin):
            return Antijoin(rewrite(node.left), rewrite(node.right), node.width)
        if isinstance(node, Product):
            return Product(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Union):
            return Union(tuple(rewrite(i) for i in node.items))
        if isinstance(node, Intersect):
            return Intersect(rewrite(node.left), rewrite(node.right))
        raise TypeError(f"unexpected RAM node {node!r}")

    return rewrite(expr)
