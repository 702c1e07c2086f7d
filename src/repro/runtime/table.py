"""Columnar tables (§2.4).

A relation instance is a flat, column-oriented table: ``arity`` equally
sized value columns plus one tag column for provenance.  Row count is
tracked explicitly so arity-0 relations (e.g. ``endpoints_connected()``)
behave correctly — they hold at most one logical row after deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..provenance.base import Provenance


#: Stands for every NaN cell in a :func:`row_key`.
NAN_CELL = object()


def row_key(row: tuple) -> tuple:
    """``row`` as a hashable key under the engine's row equality: Python
    equality, except that every NaN equals every other (as in
    deduplication), so a row read back from a table finds the row it
    came from even when it holds a NaN."""
    return tuple(NAN_CELL if cell != cell else cell for cell in row)


@dataclass
class Table:
    """A columnar table: value columns + provenance tags."""

    columns: list[np.ndarray]
    tags: np.ndarray
    n_rows: int

    @classmethod
    def empty(cls, dtypes: tuple[np.dtype, ...], provenance: Provenance) -> "Table":
        columns = [np.empty(0, dtype=dt) for dt in dtypes]
        return cls(columns, np.empty(0, dtype=provenance.tag_dtype()), 0)

    @classmethod
    def from_rows(
        cls,
        rows: list[tuple],
        dtypes: tuple[np.dtype, ...],
        tags: np.ndarray,
    ) -> "Table":
        """Build a columnar table from Python row tuples.

        One ``np.fromiter`` pass per column — the generator walks the row
        list per column, but element conversion happens in C, which beats
        the per-cell ``column[i] = row[j]`` double loop by a wide margin
        (pinned by a micro-benchmark in ``tests/test_table_database.py``).
        """
        n = len(rows)
        columns = [
            np.fromiter((row[j] for row in rows), dtype=dt, count=n)
            for j, dt in enumerate(dtypes)
        ]
        return cls(columns, tags, n)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def is_empty(self) -> bool:
        return self.n_rows == 0

    def take(self, indices: np.ndarray) -> "Table":
        return Table([c[indices] for c in self.columns], self.tags[indices], len(indices))

    def rows(self) -> list[tuple]:
        """Materialize rows as Python tuples, one bulk ``tolist`` per
        column: ``int`` cells from integer columns, ``float`` cells
        (``-0.0``, NaN and ±inf kept) from float columns."""
        if not self.columns:
            return [()] * self.n_rows
        return list(zip(*(c.tolist() for c in self.columns)))

    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns) + self.tags.nbytes

    @staticmethod
    def concat(tables: list["Table"], dtypes, provenance: Provenance) -> "Table":
        tables = [t for t in tables if t.n_rows > 0]
        if not tables:
            return Table.empty(dtypes, provenance)
        if len(tables) == 1:
            return tables[0]
        columns = [
            np.concatenate([t.columns[j] for t in tables])
            for j in range(len(dtypes))
        ]
        tags = np.concatenate([t.tags for t in tables])
        return Table(columns, tags, sum(t.n_rows for t in tables))
