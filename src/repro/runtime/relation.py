"""Stored relations with semi-naive partitions (§3.4).

Each relation keeps one lexicographically *sorted* ``full`` table (every
fact with its current best tag) plus a boolean ``recent`` mask marking the
semi-naive frontier.  :meth:`StoredRelation.advance` folds an iteration's
delta facts in:

* the delta is sorted and deduplicated, combining duplicate tags with ⊕
  (the APM ``sort``/``unique⟨⊕⟩`` sequence of Appendix A's "Stratum" rule);
* the deduplicated delta is merged against ``full`` (the ``merge``
  instruction); a fact re-enters the frontier if it is brand new or its
  tag strictly improved (tag saturation).

Alongside the per-iteration ``recent`` frontier, each relation keeps a
``changed`` mask accumulating every row added or improved since
:meth:`StoredRelation.begin_delta_tracking`.  Incremental re-evaluation
zeroes the mask before folding new EDB facts in, then seeds its delta
variants from the ``delta`` partition (the changed rows) — including
changes produced by *earlier strata* of the same pass, which the
per-iteration ``recent`` mask has already forgotten by the time a later
stratum runs.
"""

from __future__ import annotations

import numpy as np

from .table import Table
from ..gpu import kernels
from ..provenance.base import Provenance
from ..stats.relation_stats import RelationStats


def dedup_table(delta: Table, provenance: Provenance) -> Table:
    """Sort + unique⟨⊕⟩ a delta table (the APM ``sort``/``unique⟨⊕⟩``
    sequence) — the step :meth:`StoredRelation.advance` runs on every
    delta before merging it."""
    if delta.arity == 0:
        if delta.n_rows == 0:
            return delta
        seg = np.zeros(delta.n_rows, dtype=np.int64)
        tags = provenance.oplus_reduce(delta.tags, seg, 1)
        return Table([], tags, 1)
    order = kernels.lex_rank(delta.columns)
    sorted_cols = [c[order] for c in delta.columns]
    sorted_tags = delta.tags[order]
    unique_cols, segment_ids, _ = kernels.unique_rows(sorted_cols)
    nseg = len(unique_cols[0]) if unique_cols else 0
    tags = provenance.oplus_reduce(sorted_tags, segment_ids, nseg)
    return Table(unique_cols, tags, nseg)


class RowLocator:
    """Membership lookups against one (lexicographically sorted) table.

    The over-delete phase of DRed-style maintenance repeatedly asks
    "which of these candidate rows exist in ``full``?" while ``full`` is
    guaranteed static.  Building the locator once per maintain pass makes
    each lookup a binary search over a packed 64-bit key column (the same
    radix-pack trick :func:`~repro.gpu.kernels.lex_rank` uses) instead of
    a fresh O((n+q) log) sort; tables whose rows cannot pack (floats,
    >63 bits) fall back to the concatenate-and-rank path per call.
    """

    def __init__(self, table: Table):
        self._table = table
        self._params: list[tuple[int, int]] | None = None  # (lo, bits) per col
        self._packed: np.ndarray | None = None
        if table.arity and table.n_rows and all(
            c.dtype.kind != "f" for c in table.columns
        ):
            params: list[tuple[int, int]] = []
            total_bits = 0
            for col in table.columns:
                lo, hi = int(col.min()), int(col.max())
                bits = max(hi - lo, 1).bit_length()
                total_bits += bits
                params.append((lo, bits))
            if total_bits <= 63:
                self._params = params
                self._packed = self._pack(table.columns)[0]

    def _pack(self, columns) -> tuple[np.ndarray, np.ndarray]:
        """Pack query columns with the table's offsets/widths; rows whose
        values fall outside the table's per-column range can never match
        and are reported through the validity mask."""
        assert self._params is not None
        n = len(columns[0])
        packed = np.zeros(n, dtype=np.uint64)
        valid = np.ones(n, dtype=bool)
        for col, (lo, bits) in zip(columns, self._params):
            col = np.asarray(col).astype(np.int64)
            valid &= (col >= lo) & (col - lo < (1 << bits))
            shifted = np.clip(col - lo, 0, (1 << bits) - 1).astype(np.uint64)
            packed = (packed << np.uint64(bits)) | shifted
        return packed, valid

    def contains(self, columns, n_query: int | None = None) -> np.ndarray:
        """Boolean mask over the *query* rows present in the table (the
        opposite direction of :meth:`member_mask`).  ``n_query`` must be
        passed for arity-0 queries (no columns to measure)."""
        table = self._table
        if n_query is None:
            n_query = len(columns[0]) if columns else 0
        if table.arity == 0:
            # Every arity-0 query row is the empty tuple, present iff the
            # table is nonempty.
            return np.full(n_query, table.n_rows > 0, dtype=bool)
        if table.n_rows == 0 or n_query == 0:
            return np.zeros(n_query, dtype=bool)
        if self._packed is not None:
            query, valid = self._pack(columns)
            idx = np.searchsorted(self._packed, query, side="left")
            in_range = idx < len(self._packed)
            hit = np.zeros(n_query, dtype=bool)
            hit[in_range] = self._packed[idx[in_range]] == query[in_range]
            return hit & valid
        origin, order, segment_ids = self._merged_groups(columns, n_query)
        nseg = int(segment_ids[-1]) + 1 if len(segment_ids) else 0
        seg_has_full = np.zeros(nseg, dtype=bool)
        seg_has_full[segment_ids[origin == 0]] = True
        hit = np.zeros(n_query, dtype=bool)
        query_positions = order[origin == 1] - table.n_rows
        hit[query_positions] = seg_has_full[segment_ids[origin == 1]]
        return hit

    def _merged_groups(
        self, columns, n_query: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The unpackable-rows fallback shared by :meth:`contains` and
        :meth:`member_mask`: merge-sort the table's rows with the query
        rows and group equal rows.  Returns ``(origin, order,
        segment_ids)`` in sorted position order, where ``origin`` is 0
        for table rows and 1 for query rows."""
        table = self._table
        combined = [
            np.concatenate([fc, np.asarray(qc).astype(fc.dtype)])
            for fc, qc in zip(table.columns, columns)
        ]
        origin = np.concatenate(
            [
                np.zeros(table.n_rows, dtype=np.int64),
                np.ones(n_query, dtype=np.int64),
            ]
        )
        order = kernels.lex_rank(combined + [origin])
        combined = [c[order] for c in combined]
        is_first = kernels.row_group_boundaries(combined)
        return origin[order], order, np.cumsum(is_first) - 1

    def member_mask(self, columns) -> np.ndarray:
        """Boolean mask over the *table's* rows hit by any query row."""
        table = self._table
        mask = np.zeros(table.n_rows, dtype=bool)
        n_query = len(columns[0]) if columns else 0
        if table.n_rows == 0:
            return mask
        if table.arity == 0:
            # All arity-0 rows are equal; any query row hits them all.
            mask[:] = True
            return mask
        if n_query == 0:
            return mask
        if self._packed is not None:
            query, valid = self._pack(columns)
            query = query[valid]
            idx = np.searchsorted(self._packed, query, side="left")
            in_range = idx < len(self._packed)
            hit = idx[in_range][self._packed[idx[in_range]] == query[in_range]]
            mask[hit] = True
            return mask
        origin, order, segment_ids = self._merged_groups(columns, n_query)
        nseg = int(segment_ids[-1]) + 1 if len(segment_ids) else 0
        seg_has_query = np.zeros(nseg, dtype=bool)
        seg_has_query[segment_ids[origin == 1]] = True
        full_positions = order[origin == 0]  # original indices into full
        mask[full_positions] = seg_has_query[segment_ids[origin == 0]]
        return mask


class StoredRelation:
    """One relation's persistent storage across fix-point iterations."""

    def __init__(self, name: str, dtypes: tuple[np.dtype, ...], provenance: Provenance):
        self.name = name
        self.dtypes = dtypes
        self.provenance = provenance
        self.full = Table.empty(dtypes, provenance)
        self.recent_mask = np.zeros(0, dtype=bool)
        self.changed_mask = np.zeros(0, dtype=bool)
        #: Opt-in planner statistics (:meth:`enable_stats`); None keeps
        #: the advance/retract hot paths entirely stats-free.
        self._stats: RelationStats | None = None

    # ------------------------------------------------------------------

    def enable_stats(self) -> RelationStats:
        """Turn on incremental statistics for this relation.

        The first call summarizes the current ``full`` table; from then
        on :meth:`advance` folds newly added rows in (exactly equal to a
        recompute — the sketches are insert-mergeable) and the retraction
        paths rebuild from the surviving table (min/max and distinct
        counts cannot shrink incrementally).  Returns the live object, so
        a :class:`~repro.stats.StatsCatalog` can hold it by reference and
        observe later mutations without re-snapshotting.
        """
        if self._stats is None:
            self._stats = RelationStats.from_table(self.full)
        return self._stats

    @property
    def stats(self) -> RelationStats | None:
        return self._stats

    @property
    def arity(self) -> int:
        return len(self.dtypes)

    def n_facts(self) -> int:
        return self.full.n_rows

    def n_recent(self) -> int:
        return int(self.recent_mask.sum())

    def nbytes(self) -> int:
        return self.full.nbytes() + self.recent_mask.nbytes

    def snapshot(self, part: str) -> Table:
        """Return the requested partition: ``full``, ``recent``,
        ``stable``, or ``delta`` (rows changed since tracking began)."""
        if part == "full":
            return self.full
        if part == "recent":
            return self.full.take(np.flatnonzero(self.recent_mask))
        if part == "stable":
            return self.full.take(np.flatnonzero(~self.recent_mask))
        if part == "delta":
            return self.full.take(np.flatnonzero(self.changed_mask))
        raise ValueError(f"unknown partition {part!r}")

    def mark_all_recent(self) -> None:
        self.recent_mask = np.ones(self.full.n_rows, dtype=bool)

    def clear_recent(self) -> None:
        self.recent_mask = np.zeros(self.full.n_rows, dtype=bool)

    def begin_delta_tracking(self) -> None:
        """Zero the ``changed`` mask; subsequent :meth:`advance` calls
        accumulate added/improved rows into it."""
        self.changed_mask = np.zeros(self.full.n_rows, dtype=bool)

    def n_changed(self) -> int:
        return int(self.changed_mask.sum())

    def seed_recent_from_changes(self) -> None:
        """Make the semi-naive frontier exactly the changed rows (the
        incremental-pass replacement for :meth:`mark_all_recent`)."""
        self.recent_mask = self.changed_mask.copy()

    def locator(self) -> RowLocator:
        """A fresh membership index over the current ``full`` table.
        Valid only while ``full`` is not mutated (the over-delete phase
        guarantees this: nothing is removed until dooming finishes)."""
        return RowLocator(self.full)

    def remove_rows(self, mask: np.ndarray) -> Table:
        """Physically remove the masked rows from ``full`` (the DRed
        over-delete step); returns the removed rows with their old tags
        so callers can surface them as retraction deltas.  ``full`` stays
        sorted (removal preserves order); the recent/changed masks are
        reset — the re-derive phase reseeds them."""
        removed = self.full.take(np.flatnonzero(mask))
        keep = np.flatnonzero(~mask)
        self.full = self.full.take(keep)
        self.recent_mask = np.zeros(self.full.n_rows, dtype=bool)
        self.changed_mask = np.zeros(self.full.n_rows, dtype=bool)
        if self._stats is not None:
            # Deletions rebuild: min/max and KMV minima cannot shrink
            # incrementally, and this path is already O(n).
            self._stats = RelationStats.from_table(self.full)
        return removed

    # ------------------------------------------------------------------

    def set_facts(self, table: Table) -> None:
        """Replace contents with ``table`` (EDB loading); dedups with ⊕."""
        self.full = Table.empty(self.dtypes, self.provenance)
        self.recent_mask = np.zeros(0, dtype=bool)
        self.changed_mask = np.zeros(0, dtype=bool)
        if self._stats is not None:
            self._stats = RelationStats(self.arity)  # advance() refills
        if table.n_rows:
            self.advance(table)
        self.mark_all_recent()

    def advance(self, delta: Table) -> int:
        """Fold delta facts in; returns the new frontier size.

        Previously recent facts become stable; delta facts that are new or
        whose tags improved become the frontier.
        """
        prov = self.provenance
        if len(self.changed_mask) != self.full.n_rows:
            self.changed_mask = np.zeros(self.full.n_rows, dtype=bool)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        delta = self._dedup(delta)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        if self.full.n_rows == 0:
            keep = ~prov.is_absorbing_zero(delta.tags)
            self.full = delta.take(np.flatnonzero(keep))
            self.recent_mask = np.ones(self.full.n_rows, dtype=bool)
            self.changed_mask = np.ones(self.full.n_rows, dtype=bool)
            if self._stats is not None:
                self._stats.observe_added(self.full.columns, self.full.n_rows)
            return self.full.n_rows

        # Merge sorted full with sorted delta; an origin column (0 = old,
        # 1 = new) is the least significant sort key so the existing fact
        # leads each duplicate group.
        n_old, n_new = self.full.n_rows, delta.n_rows
        combined_cols = [
            np.concatenate([self.full.columns[j], delta.columns[j]])
            for j in range(self.arity)
        ]
        origin = np.concatenate(
            [np.zeros(n_old, dtype=np.int64), np.ones(n_new, dtype=np.int64)]
        )
        combined_tags = np.concatenate([self.full.tags, delta.tags])
        order = kernels.lex_rank(combined_cols + [origin])
        combined_cols = [c[order] for c in combined_cols]
        origin = origin[order]
        combined_tags = combined_tags[order]

        if self.arity == 0:
            is_first = np.zeros(n_old + n_new, dtype=bool)
            if n_old + n_new:
                is_first[0] = True
        else:
            is_first = kernels.row_group_boundaries(combined_cols)
        segment_ids = np.cumsum(is_first) - 1
        nseg = int(segment_ids[-1]) + 1 if len(segment_ids) else 0
        firsts = np.flatnonzero(is_first)

        has_old = origin[firsts] == 0

        # ``_dedup`` already ⊕-combined the delta, so a segment holds at
        # most one new row: its tag is the segment's new tag as it stands.
        new_rows = np.flatnonzero(origin == 1)
        seg_has_new = np.zeros(nseg, dtype=bool)
        seg_has_new[segment_ids[new_rows]] = True
        # Dense renumbering of segments that contain new rows.
        dense_of_seg = np.cumsum(seg_has_new) - 1
        combined_new = combined_tags[new_rows]

        out_tags = combined_tags[firsts]
        improved = ~has_old & seg_has_new  # brand-new facts
        both = has_old & seg_has_new
        if both.any():
            merged, tag_improved = prov.merge_existing(
                combined_tags[firsts[both]], combined_new[dense_of_seg[both]]
            )
            out_tags[both] = merged
            improved[both] = tag_improved
        pure_new = ~has_old
        if pure_new.any():
            out_tags[pure_new] = combined_new[dense_of_seg[pure_new]]

        # Drop brand-new facts whose tag is the absorbing zero.
        keep = np.ones(nseg, dtype=bool)
        zero = prov.is_absorbing_zero(out_tags)
        keep[pure_new & zero] = False

        # Carry each surviving old row's ``changed`` flag through the
        # merge (row positions shift as new facts interleave), then fold
        # this advance's improvements in.
        changed = np.zeros(nseg, dtype=bool)
        old_rows = order[firsts[has_old]]  # positions < n_old by sort order
        changed[has_old] = self.changed_mask[old_rows]
        changed |= improved

        kept = np.flatnonzero(keep)
        self.full = Table(
            [c[firsts[kept]] for c in combined_cols],
            out_tags[kept],
            len(kept),
        )
        self.recent_mask = improved[kept]
        self.changed_mask = changed[kept]
        if self._stats is not None:
            # Only brand-new surviving facts change the summarized row
            # set (tag improvements touch tags, not values), so folding
            # exactly those keeps the stats equal to a recompute.
            added = np.flatnonzero(pure_new & keep)
            if len(added):
                self._stats.observe_added(
                    [c[firsts[added]] for c in combined_cols], len(added)
                )
        return int(self.recent_mask.sum())

    # ------------------------------------------------------------------

    def _dedup(self, delta: Table) -> Table:
        """Sort + unique⟨⊕⟩ a delta table."""
        return dedup_table(delta, self.provenance)
