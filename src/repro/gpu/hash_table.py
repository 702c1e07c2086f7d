"""Join index over sorted keys (§5.1), and the row lookup behind it.

The paper's join builds a *hash index*: an open-addressing, linear-probing
table whose slots store **row indices into the source table**, never fact
data, so the join's footprint is independent of relation width.  That
table is what a device runs, one probe step per warp per round;
:attr:`HashIndex.nbytes` models its footprint.  On the host the same
question — which distinct key is this probe row? — is answered by a
binary search over the keys in sorted order, :class:`RowLocator`, the one
row lookup the engine has (stored relations locate their deltas with it
too).

Join keys repeat heavily in Datalog workloads (every ``path(x, z)`` row
with the same ``z``), so the index keeps one *representative* per distinct
key and duplicates live in a CSR side array (row ids grouped by key).
This is the standard GPU hash-join layout: the probe resolves a key to
its group, then emits the group's row range — lookup cost is bounded by
the number of distinct keys, never by duplicate multiplicity.  The groups
come from :func:`~repro.gpu.kernels.group_rows` — one value sort of the
packed keys — so the representatives' keys are already sorted and a
group's position among them is its group id.  Key equality is row
equality: ``-0.0`` matches ``0.0`` and a NaN matches a NaN, as in
deduplication.  A probe column always has its key column's dtype: the
resolver types every variable once, so no lookup converts a key, and a
mismatch is an :class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels
from ..errors import ExecutionError

#: Hash-table over-allocation factor (the parameter "O" of Fig. 6).
DEFAULT_LOAD_FACTOR = 2.0


class RowLocator:
    """Where rows sit in one lexicographically sorted table, given as its
    ``columns`` and ``n_rows`` (an arity-0 table has no column to measure).

    Lookups are a binary search over the table's rows packed into 64-bit
    keys (the same radix-pack trick :func:`~repro.gpu.kernels.lex_rank`
    uses) instead of a fresh O((n+q) log) sort.  ``keys`` is
    ``(params, packed)`` when the caller already holds the table's packed
    rows (a stored relation's cached index); by default the rows are
    packed here under parameters fitted to the table.  Tables whose rows
    cannot pack (floats, >63 bits, arity 0) — ``params`` None — fall back
    to the concatenate-and-rank path per call.
    """

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        n_rows: int,
        keys: tuple[list[tuple[int, int]] | None, np.ndarray | None] | None = None,
    ):
        self.columns = columns
        self.n_rows = n_rows
        if keys is None:
            params = kernels.pack_params(columns) if n_rows else None
            keys = (params, None if params is None else kernels.pack_keys(columns, params))
        #: (lo, bits) per column, or None when the rows are not packed.
        self.params: list[tuple[int, int]] | None = keys[0]
        self.keys: np.ndarray | None = keys[1]

    def locate(
        self, columns, n_query: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(pos, hit, query_keys)`` per query row: how many table rows
        sort strictly before it, whether it is in the table, and the query
        rows packed under :attr:`params` (None when unpacked).  Query
        columns must have the table's dtypes, and on the packed path every
        query value must lie inside its column's packed range
        (``kernels.pack_params(columns, self.params) == self.params``);
        :meth:`find` checks the dtypes and filters the other rows first."""
        if not self.columns:
            # Every arity-0 row is the empty tuple: present iff the table
            # is nonempty, and sorting before nothing.
            return (
                np.zeros(n_query, dtype=np.int64),
                np.full(n_query, self.n_rows > 0, dtype=bool),
                None,
            )
        if self.keys is not None:
            query = kernels.pack_keys(columns, self.params)
            pos = np.searchsorted(self.keys, query)
            if self.n_rows == 0:
                return pos, np.zeros(n_query, dtype=bool), query
            return pos, self.keys[np.minimum(pos, self.n_rows - 1)] == query, query
        origin, order, segment_ids = self._merged_groups(columns, n_query)
        from_table = origin == 0
        seg_has_table = np.zeros(int(segment_ids[-1]) + 1, dtype=bool)
        seg_has_table[segment_ids[from_table]] = True
        # Table rows sort first in their group, so a query row's group
        # mate (if any) is among the table rows counted before it.
        table_before = np.cumsum(from_table)
        is_query = ~from_table
        rows = order[is_query] - self.n_rows
        hit = np.zeros(n_query, dtype=bool)
        hit[rows] = seg_has_table[segment_ids[is_query]]
        pos = np.empty(n_query, dtype=np.int64)
        pos[rows] = table_before[is_query] - hit[rows]
        return pos, hit, None

    def _merged_groups(
        self, columns, n_query: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The unpackable-rows fallback of :meth:`locate`: merge-sort the
        table's rows with the query rows and group equal rows.  Returns
        ``(origin, order, segment_ids)`` in sorted position order, where
        ``origin`` is 0 for table rows and 1 for query rows (the least
        significant sort key, so table rows lead their group)."""
        combined = [np.concatenate([fc, qc]) for fc, qc in zip(self.columns, columns)]
        origin = np.concatenate(
            [
                np.zeros(self.n_rows, dtype=np.int64),
                np.ones(n_query, dtype=np.int64),
            ]
        )
        order = kernels.lex_rank(combined + [origin])
        combined = [c[order] for c in combined]
        is_first = kernels.row_group_boundaries(combined)
        return origin[order], order, np.cumsum(is_first) - 1

    def _comparable(self, columns) -> tuple[list[np.ndarray], np.ndarray | None]:
        """The query rows :meth:`locate` can take and their indices (None:
        all of them): on the packed path a value outside its column's
        packed range is in no table row.  A query column of another dtype
        than its table column raises :class:`~repro.errors.ExecutionError`
        — the resolver gives every key one dtype, so a mismatch is a
        lowering bug, never a key to convert."""
        valid = None
        query = []
        for j, (column, col) in enumerate(zip(self.columns, columns)):
            col = np.asarray(col)
            if col.dtype != column.dtype:
                raise ExecutionError(
                    f"row lookup: query column {j} is {col.dtype}, "
                    f"the table's is {column.dtype}"
                )
            if self.keys is not None:
                lo, bits = self.params[j]
                inside = (col >= lo) & (col <= lo + (1 << bits) - 1)
                valid = inside if valid is None else valid & inside
            query.append(col)
        if valid is None or valid.all():
            return query, None
        rows = np.flatnonzero(valid)
        return [c[rows] for c in query], rows

    def find(self, columns, n_query: int) -> np.ndarray:
        """The table row equal to each query row (int64), −1 where there
        is none.  Query columns must have the table's dtypes
        (:class:`~repro.errors.ExecutionError` otherwise).  ``n_query``
        is needed for arity-0 queries (no columns to measure)."""
        if self.n_rows == 0 or n_query == 0:
            return np.full(n_query, -1, dtype=np.int64)
        query, rows = self._comparable(columns)
        pos, hit, _ = self.locate(query, n_query if rows is None else len(rows))
        if rows is None:
            return np.where(hit, pos, -1)
        found = np.full(n_query, -1, dtype=np.int64)
        found[rows[hit]] = pos[hit]
        return found

    def contains(self, columns, n_query: int | None = None) -> np.ndarray:
        """Boolean mask over the *query* rows present in the table (the
        opposite direction of :meth:`member_mask`).  ``n_query`` must be
        passed for arity-0 queries (no columns to measure)."""
        if n_query is None:
            n_query = len(columns[0]) if columns else 0
        return self.find(columns, n_query) >= 0

    def member_mask(self, columns) -> np.ndarray:
        """Boolean mask over the *table's* rows hit by any query row."""
        mask = np.zeros(self.n_rows, dtype=bool)
        if not self.columns:
            # All arity-0 rows are equal; any query row hits them all.
            mask[:] = True
            return mask
        found = self.find(columns, len(columns[0]))
        mask[found[found >= 0]] = True
        return mask


class HashIndex:
    """An immutable join index over the first ``width`` columns of a table."""

    def __init__(self, columns: Sequence[np.ndarray], width: int):
        columns = [np.asarray(c) for c in columns]
        n = len(columns[0]) if columns else 0

        # Group rows by key: sorted row-id array + CSR offsets.
        if width:
            order, is_first = kernels.group_rows(columns[:width])
            firsts = np.flatnonzero(is_first)
        else:
            order = np.arange(n, dtype=np.int64)
            firsts = np.zeros(min(n, 1), dtype=np.int64)  # width 0: one group
        self.row_ids = order
        self.group_offsets = firsts
        boundaries = np.append(firsts, n)
        self.group_counts = np.diff(boundaries)
        #: Representative source row per distinct key.
        self.representatives = order[firsts] if n else firsts
        # The distinct keys in sorted order: a key's position among them
        # is its group id.  A width-0 index holds no key, so every probe
        # misses, as in §5.1's table, which inserts nothing without a key.
        self._groups = RowLocator(
            [c[self.representatives] for c in columns[:width]],
            len(firsts) if width else 0,
        )

    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """The device footprint: §5.1's slot table (one int64 row index
        per slot, ``DEFAULT_LOAD_FACTOR`` slots per distinct key, rounded
        up to a power of two) plus the CSR arrays.  The slot table is a
        model, not a host allocation — the host looks groups up in the
        sorted keys."""
        capacity = max(16, int(max(len(self.group_offsets), 1) * DEFAULT_LOAD_FACTOR))
        capacity = 1 << (capacity - 1).bit_length()
        return (
            8 * capacity
            + self.row_ids.nbytes
            + self.group_offsets.nbytes
            + self.group_counts.nbytes
        )

    def _locate_groups(self, probe_columns: Sequence[np.ndarray]) -> np.ndarray:
        """Group id matched by each probe row (−1 when absent)."""
        m = len(probe_columns[0]) if probe_columns else 0
        return self._groups.find(probe_columns, m)

    def count(self, probe_columns: Sequence[np.ndarray]) -> np.ndarray:
        """APM ``count``: matching build rows per probe row."""
        groups = self._locate_groups(probe_columns)
        counts = np.zeros(len(groups), dtype=np.int64)
        found = groups >= 0
        counts[found] = self.group_counts[groups[found]]
        return counts

    def probe(
        self, probe_columns: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """APM ``join``: full match enumeration.

        Returns ``(probe_row_ids, build_row_ids, counts)``: row
        ``probe_row_ids[i]`` of the probe table matches row
        ``build_row_ids[i]`` of the build table on the key prefix.
        """
        groups = self._locate_groups(probe_columns)
        counts = np.zeros(len(groups), dtype=np.int64)
        found = groups >= 0
        counts[found] = self.group_counts[groups[found]]
        offsets = kernels.exclusive_scan(counts)
        probe_ids, ranks = kernels.repeat_ranges(counts, offsets)
        build_ids = np.empty(len(probe_ids), dtype=np.int64)
        if len(probe_ids):
            matched_groups = groups[probe_ids]
            build_ids[:] = self.row_ids[self.group_offsets[matched_groups] + ranks]
        return probe_ids, build_ids, counts
