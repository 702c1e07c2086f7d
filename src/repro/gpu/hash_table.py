"""Lock-free-style open-addressing hash index (§5.1).

The paper's join builds a *hash index*: an open-addressing, linear-probing
table whose slots store **row indices into the source table**, never fact
data, so the join's footprint is independent of relation width.  We
reproduce the same structure with vectorized probing: every unresolved key
advances one probe step per round, which is how a warp-synchronous CUDA
implementation behaves.

Join keys repeat heavily in Datalog workloads (every ``path(x, z)`` row
with the same ``z``), so slots hold one *representative* per distinct key
and duplicates live in a CSR side array (row ids grouped by key).  This is
the standard GPU hash-join layout: the probe resolves a key to its group,
then emits the group's row range — insertion and probing cost is bounded
by open-addressing chain length, never by duplicate multiplicity.  The
groups come from :func:`~repro.gpu.kernels.group_rows` — one value sort
of the packed keys — and key equality is row equality: ``-0.0`` matches
``0.0`` and a NaN matches a NaN, as in deduplication.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import exclusive_scan, group_rows, hash_columns, repeat_ranges

#: Hash-table over-allocation factor (the parameter "O" of Fig. 6).
DEFAULT_LOAD_FACTOR = 2.0

_EMPTY = np.int64(-1)


class HashIndex:
    """An immutable hash index over the first ``width`` columns of a table."""

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        width: int,
        load_factor: float = DEFAULT_LOAD_FACTOR,
    ):
        self.columns = [np.asarray(c) for c in columns]
        self.width = width
        n = len(self.columns[0]) if self.columns else 0
        self.n_rows = n

        # Group rows by key: sorted row-id array + CSR offsets.
        if width:
            order, is_first = group_rows(self.columns[:width])
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

        n_groups = len(firsts)
        capacity = max(16, int(max(n_groups, 1) * load_factor))
        capacity = 1 << (capacity - 1).bit_length()  # power of two -> mask
        self.capacity = capacity
        self.slots = np.full(capacity, _EMPTY, dtype=np.int64)
        if n_groups and width:
            self._insert_groups()

    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return (
            self.slots.nbytes
            + self.row_ids.nbytes
            + self.group_offsets.nbytes
            + self.group_counts.nbytes
        )

    def _insert_groups(self) -> None:
        """Insert one slot entry per distinct key (group id), resolving
        collisions by vectorized linear-probing rounds with emulated CAS."""
        n_groups = len(self.group_offsets)
        pending = np.arange(n_groups, dtype=np.int64)
        rep_rows = self.representatives
        keys = [c[rep_rows] for c in self.columns[: self.width]]
        slot = (hash_columns(keys, self.width) % np.uint64(self.capacity)).astype(np.int64)
        rounds = 0
        while len(pending):
            rounds += 1
            if rounds > self.capacity + 1:
                raise RuntimeError("hash index build failed to converge")
            empty = self.slots[slot] == _EMPTY
            attempt_groups = pending[empty]
            attempt_slots = slot[empty]
            # Emulated CAS: scatter, read back, losers retry next slot.
            self.slots[attempt_slots] = attempt_groups
            won = self.slots[attempt_slots] == attempt_groups
            resolved_mask = np.zeros(len(pending), dtype=bool)
            resolved_mask[np.flatnonzero(empty)[won]] = True
            pending = pending[~resolved_mask]
            slot = (slot[~resolved_mask] + 1) % self.capacity

    # ------------------------------------------------------------------

    def _locate_groups(self, probe_columns: Sequence[np.ndarray]) -> np.ndarray:
        """Group id matched by each probe row (−1 when absent)."""
        m = len(probe_columns[0]) if probe_columns else 0
        result = np.full(m, -1, dtype=np.int64)
        if self.n_rows == 0 or m == 0 or self.width == 0:
            return result
        probe_cols = [np.asarray(c) for c in probe_columns]
        pending = np.arange(m, dtype=np.int64)
        slot = (hash_columns(probe_cols, self.width) % np.uint64(self.capacity)).astype(np.int64)
        rounds = 0
        while len(pending):
            rounds += 1
            if rounds > self.capacity + 1:
                raise RuntimeError("hash probe failed to converge")
            occupant = self.slots[slot]
            alive = occupant != _EMPTY
            if alive.any():
                live = np.flatnonzero(alive)
                live_pending = pending[live]
                groups = occupant[live]
                rep_rows = self.representatives[groups]
                equal = np.ones(len(live), dtype=bool)
                for k in range(self.width):
                    built, probed = self.columns[k][rep_rows], probe_cols[k][live_pending]
                    same = built == probed
                    if built.dtype.kind == "f" or probed.dtype.kind == "f":
                        same |= np.isnan(built) & np.isnan(probed)  # NaN is one value
                    equal &= same
                result[live_pending[equal]] = groups[equal]
                alive[live[equal]] = False  # resolved: stop probing
            pending = pending[alive]
            slot = (slot[alive] + 1) % self.capacity
        return result

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
        offsets = exclusive_scan(counts)
        probe_ids, ranks = repeat_ranges(counts, offsets)
        build_ids = np.empty(len(probe_ids), dtype=np.int64)
        if len(probe_ids):
            matched_groups = groups[probe_ids]
            build_ids[:] = self.row_ids[self.group_offsets[matched_groups] + ranks]
        return probe_ids, build_ids, counts
