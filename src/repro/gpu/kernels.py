"""Vectorized data-parallel primitives backing the APM instruction set.

Each function here corresponds to a GPU kernel in the paper's runtime
(Table 1).  All of them operate on whole columns with no per-row Python
control flow, which is the invariant APM is designed to guarantee: any
program composed of these primitives admits massively parallel execution.

Sorting follows the paper's radix sort over packed keys: integer rows
pack into one ``uint64`` key per row (:func:`pack_keys`), and the stable
row order comes from a single *value* sort of ``(key ‖ row index)``
composites, never from an indirect stable argsort; :func:`group_rows`
then reads ``unique``'s group boundaries off the sorted keys.  When key
and index need more than 64 bits the keys take a stable argsort, and
float columns or rows wider than 63 bits take ``np.lexsort``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_U64_MASK = (1 << 64) - 1


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (the APM ``scan`` instruction)."""
    out = np.empty_like(values)
    if len(values) == 0:
        return out
    out[0] = 0
    np.cumsum(values[:-1], out=out[1:])
    return out


def pack_params(
    columns: Sequence[np.ndarray],
    within: Sequence[tuple[int, int]] | None = None,
) -> list[tuple[int, int]] | None:
    """Per-column ``(lo, bits)`` radix-pack parameters.

    Column ``j`` packs to ``bits`` bits holding ``value - lo``, so every
    value of ``columns[j]`` — and every value the optional ``within[j]``
    parameters already cover — lies in ``[lo, lo + 2**bits)``.  Passing
    the current parameters as ``within`` therefore returns them unchanged
    exactly when the new columns fit inside them.  Returns None when
    there are no columns, a column is floating point, or the rows need
    more than 63 bits.
    """
    if not columns:
        return None
    params: list[tuple[int, int]] = []
    total_bits = 0
    for j, col in enumerate(columns):
        col = np.asarray(col)
        if col.dtype.kind == "f":
            return None
        lo, hi = (int(col.min()), int(col.max())) if len(col) else (None, None)
        if within is not None:
            w_lo, w_bits = within[j]
            w_hi = w_lo + (1 << w_bits) - 1
            lo, hi = (w_lo, w_hi) if lo is None else (min(lo, w_lo), max(hi, w_hi))
        elif lo is None:
            lo = hi = 0
        bits = max(hi - lo, 1).bit_length()
        total_bits += bits
        if total_bits > 63:
            return None
        params.append((lo, bits))
    return params


def pack_keys(
    columns: Sequence[np.ndarray], params: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Pack rows into uint64 keys under fixed ``(lo, bits)`` per column
    (see :func:`pack_params`); key order is lexicographic row order.
    Every value must lie inside its column's range.  The result is a
    fresh array the caller may write into."""
    packed = None
    for col, (lo, bits) in zip(columns, params):
        # ``value - lo`` in modular uint64 arithmetic, built in place.
        shifted = np.asarray(col).astype(np.uint64)
        shifted -= np.uint64(lo & _U64_MASK)
        if packed is None:
            packed = shifted
        else:
            packed <<= np.uint64(bits)
            packed |= shifted
    return packed


def pack_rows(columns: Sequence[np.ndarray]) -> np.ndarray | None:
    """Pack integer rows into single uint64 sort keys when ranges permit.

    GPU sorts run fastest on packed radix keys; the same trick dominates
    here because a single-key sort is several times cheaper than a
    general lexsort.  Returns None when any column is floating point or
    the combined key range overflows 64 bits.
    """
    params = pack_params(columns)
    return None if params is None else pack_keys(columns, params)


def _sort_packed(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Stable row order of a nonempty table by a value sort of packed keys.

    Returns ``(order, sorted, shift)`` where ``sorted >> shift`` are the
    rows' packed keys in ``order``, or None when the rows do not pack
    (see :func:`pack_params`).  When the key bits plus the bits of a row
    index fit in 64, each row becomes the composite ``key << shift | i``:
    composites are unique, so sorting them by value yields exactly the
    stable order, and the low ``shift`` bits of each are its row.
    Otherwise the keys take a stable argsort and ``shift`` is 0.
    """
    params = pack_params(columns)
    if params is None:
        return None
    n = len(columns[0])
    keys = pack_keys(columns, params)
    shift = max(n - 1, 1).bit_length()
    if sum(bits for _, bits in params) + shift > 64:
        order = np.argsort(keys, kind="stable")
        return order, keys[order], 0
    keys <<= np.uint64(shift)
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    order = (keys & np.uint64((1 << shift) - 1)).view(np.int64)
    return order, keys, shift


def _lexsort(columns: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort`` in row order (its last key is primary)."""
    return np.lexsort(tuple(reversed([np.asarray(c) for c in columns])))


def lex_rank(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Stable permutation that sorts rows of a columnar table
    lexicographically.

    Rows that pack into 64-bit keys take one value sort of ``(key ‖ row
    index)`` composites (see :func:`_sort_packed`), falling back to a
    stable argsort of the keys when key and index need more than 64
    bits; float columns and wider rows use ``np.lexsort``.
    """
    if not columns or len(columns[0]) == 0:
        return np.zeros(0, dtype=np.int64)
    packed = _sort_packed(columns)
    return _lexsort(columns) if packed is None else packed[0]


def group_rows(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(order, is_first)``: the stable lexicographic order of a table's
    rows (as :func:`lex_rank`) and, over the rows in that order, the mask
    marking the first row of each run of equal rows (as
    :func:`row_group_boundaries`).

    Packable rows read the groups off the sorted packed keys with one
    comparison, never gathering a column; float columns and rows wider
    than 63 bits sort with ``np.lexsort`` and compare column by column.
    """
    if not columns or len(columns[0]) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    packed = _sort_packed(columns)
    if packed is None:
        order = _lexsort(columns)
        return order, row_group_boundaries([np.asarray(c)[order] for c in columns])
    order, keys, shift = packed
    if shift:
        keys >>= np.uint64(shift)
    is_first = np.empty(len(keys), dtype=bool)
    is_first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=is_first[1:])
    return order, is_first


def sort_rows(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Sort a columnar table; returns (sorted columns, permutation applied)."""
    order = lex_rank(columns)
    return [np.asarray(c)[order] for c in columns], order


def row_group_boundaries(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean mask marking the first row of each run of equal sorted rows.

    Values compare with ``==``, except that all NaNs in a column are one
    value (as in ``np.unique(equal_nan=True)``; sorting puts them last,
    so they are adjacent).  ``-0.0`` and ``0.0`` are equal.
    """
    if not columns or len(columns[0]) == 0:
        return np.zeros(0, dtype=bool)
    n = len(columns[0])
    is_first = np.zeros(n, dtype=bool)
    is_first[0] = True
    for col in columns:
        col = np.asarray(col)
        differs = col[1:] != col[:-1]
        if col.dtype.kind == "f":
            nan = np.isnan(col)
            differs &= ~(nan[1:] & nan[:-1])
        is_first[1:] |= differs
    return is_first


def unique_rows(
    columns: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Deduplicate a *sorted* columnar table (the ``unique`` instruction).

    Returns ``(unique columns, segment_ids, first_index_of_each_group)``
    where ``segment_ids[i]`` is the output row that input row ``i``
    collapsed into.  Tag reduction (``unique⟨⊕⟩``) is done by the caller via
    a segment reduction using ``segment_ids``.
    """
    is_first = row_group_boundaries(columns)
    segment_ids = np.cumsum(is_first) - 1
    firsts = np.flatnonzero(is_first)
    return [np.asarray(c)[firsts] for c in columns], segment_ids, firsts


def merge_sorted(
    left: Sequence[np.ndarray],
    right: Sequence[np.ndarray],
    positions: np.ndarray,
) -> list[np.ndarray]:
    """Merge sorted rows into a sorted table (the ``merge`` instruction).

    ``positions[i]`` (non-decreasing) is the number of ``left`` rows that
    sort before ``right`` row ``i`` — a ``searchsorted`` result.  Right row
    ``i`` lands at ``positions[i] + i``; left row ``j`` at ``j`` plus the
    number of right rows inserted before it.  ``left`` and ``right`` are
    parallel lists of arrays (value columns, tags, masks, keys), each
    spliced in one pass; nothing is sorted and the inputs are not
    written.
    """
    k = len(positions)
    n = len(left[0]) if left else 0
    slots = positions + np.arange(k)
    keep = np.ones(n + k, dtype=bool)
    keep[slots] = False
    # A boolean-mask store walks the mask run by run, so past a few
    # percent of insertions one index scatter is cheaper per array.
    dest = np.flatnonzero(keep) if 32 * k > n else keep
    merged = []
    for old, new in zip(left, right):
        out = np.empty((n + k,) + old.shape[1:], dtype=old.dtype)
        out[slots] = new
        out[dest] = old
        merged.append(out)
    return merged


def gather(indices: np.ndarray, columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Row gather (the ``gather`` instruction)."""
    return [np.asarray(c)[indices] for c in columns]


def segment_reduce_max(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Per-segment max of ``values``; segments must be sorted ascending."""
    out = np.full(nseg, -np.inf, dtype=np.float64)
    np.maximum.at(out, segment_ids, values.astype(np.float64))
    return out


def segment_reduce_min(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    out = np.full(nseg, np.inf, dtype=np.float64)
    np.minimum.at(out, segment_ids, values.astype(np.float64))
    return out


def segment_reduce_sum(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    out = np.zeros(nseg, dtype=np.float64)
    np.add.at(out, segment_ids, values.astype(np.float64))
    return out


def segment_argmax(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Index (into ``values``) of the max element of each segment.

    Ties resolve to the earliest row, keeping results deterministic.
    """
    if nseg == 0:
        return np.zeros(0, dtype=np.int64)
    maxima = segment_reduce_max(values, segment_ids, nseg)
    is_max = values.astype(np.float64) == maxima[segment_ids]
    candidates = np.flatnonzero(is_max)
    out = np.full(nseg, np.iinfo(np.int64).max, dtype=np.int64)
    # minimum.at keeps the earliest candidate per segment, deterministically.
    np.minimum.at(out, segment_ids[candidates], candidates)
    out = np.where(out == np.iinfo(np.int64).max, -1, out)
    return out


def repeat_ranges(counts: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row match counts into flat (row_id, slot_within_row) pairs.

    This is the standard "expand" step of a GPU hash join: after ``count``
    and ``scan``, each probe row ``i`` owns output slots
    ``offsets[i] .. offsets[i]+counts[i]``.  Returns ``(row_ids, ranks)``
    where ``ranks`` numbers each row's outputs from zero.
    """
    total = int(offsets[-1] + counts[-1]) if len(counts) else 0
    row_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    positions = np.arange(total, dtype=np.int64)
    ranks = positions - offsets[row_ids]
    return row_ids, ranks


def compact(mask: np.ndarray, columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Stream-compact rows where ``mask`` is true (select's second half)."""
    idx = np.flatnonzero(mask)
    return [np.asarray(c)[idx] for c in columns]

