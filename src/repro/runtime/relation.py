"""Stored relations with semi-naive partitions (§3.4).

Each relation keeps one lexicographically *sorted* ``full`` table (every
fact with its current best tag) plus a boolean ``recent`` mask marking the
semi-naive frontier.  :meth:`StoredRelation.advance` folds an iteration's
delta facts in:

* the delta is sorted and deduplicated, combining duplicate tags with ⊕
  (the APM ``sort``/``unique⟨⊕⟩`` sequence of Appendix A's "Stratum" rule);
* each deduplicated row is *located* in ``full`` (its insertion position
  and whether it is already there);
* rows already in ``full`` are ⊕-merged where they sit — no row moves;
* brand-new rows are spliced in at their positions (the ``merge``
  instruction, :func:`~repro.gpu.kernels.merge_sorted`): one pass per
  column, tag, key and mask, no re-sort of ``full``.

A fact re-enters the frontier if it is brand new or its tag strictly
improved (tag saturation).

Locating runs against a host-side index that the relation caches beside
``full``: a :class:`~repro.gpu.hash_table.RowLocator` — the engine's one
row lookup, which the join index uses too — over ``full``'s rows packed
into ``uint64`` keys under fixed per-column ``(lo, bits)`` (the
radix-pack trick :func:`~repro.gpu.kernels.lex_rank` uses), so a lookup
is one ``searchsorted``.  The spliced keys become the next ``full``'s
index; ``full``'s rows are re-packed only when a delta value falls
outside a column's range.  The cache is valid while ``full``'s column
list is the very object it was built for, so anything that assigns
``full`` (``remove_rows``, ``set_facts``, ``Database.from_state``)
invalidates it.  The keys are an index, not relation data:
:meth:`StoredRelation.nbytes` does not count them, and the modeled device
clock never sees them.  Rows that do not pack (float columns, rows
wider than 63 bits, arity 0) are located by sorting ``full`` together
with the delta and grouping equal rows, then take the same splice.  Row
equality treats every NaN in a column as one value and ``-0.0`` as
``0.0``, in deduplication and location alike.

``advance`` never writes into an array it did not just allocate: a
``Table`` handed out earlier by ``snapshot``, ``Database.result`` or
``Database.state_dict`` keeps its contents.

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
from ..gpu.hash_table import RowLocator
from ..provenance.base import Provenance


def dedup_table(delta: Table, provenance: Provenance, keep_order: bool = False) -> Table:
    """Sort + unique⟨⊕⟩ a delta table (the APM ``sort``/``unique⟨⊕⟩``
    sequence) — the step :meth:`StoredRelation.advance` runs on every
    delta before merging it, and the APM ``Dedup`` instruction runs
    inside rule bodies.  The groups come from
    :func:`~repro.gpu.kernels.group_rows`, so columns are gathered only
    at each group's first row, never through the whole permutation.

    Each group keeps its first row's values.  The groups come out in
    sorted order, or with ``keep_order`` in the order of their first
    rows: a join over the deduplicated table then meets each group where
    the undeduplicated one met its first row, so head rows equal only up
    to ``-0.0``/NaN keep the representative they had without the dedup."""
    if delta.arity == 0:
        if delta.n_rows == 0:
            return delta
        seg = np.zeros(delta.n_rows, dtype=np.int64)
        tags = provenance.oplus_reduce(delta.tags, seg, 1)
        return Table([], tags, 1)
    order, is_first = kernels.group_rows(delta.columns)
    segment_ids = np.cumsum(is_first) - 1
    firsts = order[is_first]
    tags = provenance.oplus_reduce(delta.tags[order], segment_ids, len(firsts))
    if keep_order:
        by_position = np.argsort(firsts)
        firsts, tags = firsts[by_position], tags[by_position]
    return Table([c[firsts] for c in delta.columns], tags, len(firsts))


class StoredRelation:
    """One relation's persistent storage across fix-point iterations."""

    def __init__(self, name: str, dtypes: tuple[np.dtype, ...], provenance: Provenance):
        self.name = name
        self.dtypes = dtypes
        self.provenance = provenance
        self.full = Table.empty(dtypes, provenance)
        self.recent_mask = np.zeros(0, dtype=bool)
        self.changed_mask = np.zeros(0, dtype=bool)
        #: Host-side index over ``full`` (valid while it indexes that very
        #: object); not relation data, so :meth:`nbytes` leaves it out.
        self._index: RowLocator | None = None

    # ------------------------------------------------------------------

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
        """The membership index over the current ``full`` table — the
        relation's cached keys, built on first use after ``full`` was
        replaced."""
        index = self._index
        if index is None or index.columns is not self.full.columns:
            index = self._index = RowLocator(self.full.columns, self.full.n_rows)
        return index

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
        return removed

    # ------------------------------------------------------------------

    def set_facts(self, table: Table) -> None:
        """Replace contents with ``table`` (EDB loading); dedups with ⊕."""
        self.full = Table.empty(self.dtypes, self.provenance)
        self.recent_mask = np.zeros(0, dtype=bool)
        self.changed_mask = np.zeros(0, dtype=bool)
        if table.n_rows:
            self.advance(table)
        self.mark_all_recent()

    def advance(self, delta: Table) -> int:
        """Fold delta facts in; returns the new frontier size.

        Previously recent facts become stable; delta facts that are new or
        whose tags improved become the frontier.
        """
        prov = self.provenance
        full = self.full
        if len(self.changed_mask) != full.n_rows:
            self.changed_mask = np.zeros(full.n_rows, dtype=bool)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        delta = self._dedup(delta)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        index = self._index_covering(delta)
        pos, hit, delta_keys = index.locate(delta.columns, delta.n_rows)

        # Rows already stored: ⊕-merge their tags where they sit.
        at = pos[hit]
        merged = None
        improved = np.zeros(0, dtype=bool)
        if len(at):
            old = full.tags[at]
            merged, improved = prov.merge_existing(old, delta.tags[hit])
            if merged is old or merged.tobytes() == old.tobytes():
                merged = None  # no stored tag changes
        # Brand-new rows, less those whose tag is the absorbing zero.
        miss = np.flatnonzero(~hit)
        new = miss[~prov.is_absorbing_zero(delta.tags[miss])]
        n, k = full.n_rows, len(new)

        # Splice the new rows in: columns, tags, ``changed`` and keys.
        ins = pos[new]
        packed = index.keys is not None
        stored = [*full.columns, full.tags, self.changed_mask] + ([index.keys] if packed else [])
        if k:
            fresh = [*(c[new] for c in delta.columns), delta.tags[new], np.ones(k, dtype=bool)]
            fresh += [delta_keys[new]] if packed else []
            stored = kernels.merge_sorted(stored, fresh, ins)
            if merged is not None or improved.any():
                # Stored rows shift by the number of rows spliced in before them.
                at = at + np.searchsorted(ins, at, side="right")
        columns = stored[: self.arity]
        tags, changed, *keys = stored[self.arity :]
        if merged is not None:
            if not k:
                tags = tags.copy()
            tags[at] = merged
        grew = at[improved]
        if len(grew):
            if not k:
                changed = changed.copy()
            changed[grew] = True
        recent = np.zeros(n + k, dtype=bool)
        recent[ins + np.arange(k)] = True
        recent[grew] = True

        self.full = Table(columns, tags, n + k)
        self._index = RowLocator(
            self.full.columns, n + k, (index.params, keys[0] if packed else None)
        )
        self.recent_mask = recent
        self.changed_mask = changed
        return int(np.count_nonzero(recent))

    # ------------------------------------------------------------------

    def _index_covering(self, delta: Table) -> RowLocator:
        """The cached index over ``full``, re-packed under wider per-column
        ranges when ``delta`` holds a value outside them.  Rows that do not
        pack (floats, >63 bits) never will, so their index stays
        unpacked."""
        index = self.locator()
        if index.params is None and self.full.n_rows:
            return index
        within = index.params if self.full.n_rows else None
        params = kernels.pack_params(delta.columns, within)
        if params != index.params:
            keys = None if params is None else kernels.pack_keys(self.full.columns, params)
            index = self._index = RowLocator(self.full.columns, self.full.n_rows, (params, keys))
        return index

    def _dedup(self, delta: Table) -> Table:
        """Sort + unique⟨⊕⟩ a delta table."""
        return dedup_table(delta, self.provenance)
