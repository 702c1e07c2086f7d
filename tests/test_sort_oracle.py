"""The value-sort grouping kernels and the sorted-key join lookup against
the bodies they replaced.

``kernels.lex_rank`` and ``kernels.group_rows`` take the stable row order
from one value sort of ``(packed key ‖ row index)`` composites and read
group boundaries off the sorted keys; ``dedup_table`` and the grouping in
``HashIndex.__init__`` are built on ``group_rows``.  The oracles here are
the bodies they had before — a stable ``argsort`` of the packed keys (or
``np.lexsort``), columns gathered through the whole permutation, then
``row_group_boundaries`` — kept verbatim.  Generated tables (arity 0–3,
int8/int32/int64/float64 columns, negative values, n of 0, 1 and 2,
all-equal rows, ±0.0 and NaN, rows wider than 63 bits) must give bitwise
equal orders, boundaries, deduplicated columns and tags under five
semirings, and bitwise equal index groups.

``HashIndex`` finds a probe row's group by binary search over its sorted
distinct keys (``RowLocator.find``).  Its oracles are Python equality of
the values and the open-addressing index it replaced — ``hash_columns``,
emulated-CAS insertion and linear-probing rounds — kept verbatim: on
generated build and probe tables (widths 0–3, empty sides, probe values
below and above each column's range, duplicate-heavy keys,
±0.0/NaN/±inf, rows wider than 63 bits, int8/int32/int64 columns)
``count`` and ``probe`` must be bitwise equal to both, and ``nbytes`` to
the second's.  Probe columns have their key column's dtype, as the
resolver guarantees; another dtype is an ``ExecutionError``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import kernels
from repro.errors import ExecutionError
from repro.gpu.hash_table import DEFAULT_LOAD_FACTOR, HashIndex, RowLocator
from repro.gpu.kernels import exclusive_scan, group_rows, repeat_ranges
from repro.provenance import create
from repro.runtime.relation import dedup_table
from repro.runtime.table import Table

SEMIRINGS = {
    "unit": {},
    "minmaxprob": {},
    "addmultprob": {},
    "diff-top-1-proofs": {"proof_capacity": 3},
}
FACT_PROBS = np.array([0.9, 0.5, 0.0, 0.3, 1.0, 0.7])
FACT_GROUPS = np.array([0, 0, -1, 1, 1, -1])


# -- the replaced bodies, verbatim (packing through the old ``pack_keys``) --


def oracle_pack_keys(columns, params):
    packed = None
    for col, (lo, bits) in zip(columns, params):
        shifted = (np.asarray(col).astype(np.int64, copy=False) - lo).astype(np.uint64)
        packed = shifted if packed is None else (packed << np.uint64(bits)) | shifted
    return packed


def pack_rows(columns):
    params = kernels.pack_params(columns)
    return None if params is None else oracle_pack_keys(columns, params)


def oracle_lex_rank(columns):
    if not columns:
        return np.zeros(0, dtype=np.int64)
    n = len(columns[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    packed = pack_rows(columns)
    if packed is not None:
        return np.argsort(packed, kind="stable")
    return np.lexsort(tuple(reversed([np.asarray(c) for c in columns])))


def oracle_group_rows(columns):
    order = oracle_lex_rank(columns)
    return order, kernels.row_group_boundaries([np.asarray(c)[order] for c in columns])


def oracle_dedup_table(delta, provenance):
    if delta.arity == 0:
        if delta.n_rows == 0:
            return delta
        seg = np.zeros(delta.n_rows, dtype=np.int64)
        tags = provenance.oplus_reduce(delta.tags, seg, 1)
        return Table([], tags, 1)
    order = oracle_lex_rank(delta.columns)
    sorted_cols = [c[order] for c in delta.columns]
    sorted_tags = delta.tags[order]
    unique_cols, segment_ids, _ = kernels.unique_rows(sorted_cols)
    nseg = len(unique_cols[0]) if unique_cols else 0
    tags = provenance.oplus_reduce(sorted_tags, segment_ids, nseg)
    return Table(unique_cols, tags, nseg)


# -- the open-addressing join index, verbatim (hash and probing rounds) --------

_EMPTY = np.int64(-1)


def hash_columns(columns: Sequence[np.ndarray], width: int) -> np.ndarray:
    """64-bit mixing hash of the first ``width`` columns of a table.

    Uses a splitmix64-style mix per column, combined multiplicatively —
    cheap, stateless, and vectorized, like the device hash in the paper's
    runtime.  Float values hash by their float64 bits after ``-0.0``
    becomes ``0.0`` and every NaN one NaN, so values that group together
    (see :func:`row_group_boundaries`) hash alike.
    """
    if width == 0:
        n = len(columns[0]) if columns else 0
        return np.zeros(n, dtype=np.uint64)
    acc = np.zeros(len(columns[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(width):
            col = np.asarray(columns[k])
            if col.dtype.kind == "f":
                col = col + np.float64(0.0)  # a float64 copy; -0.0 + 0.0 is 0.0
                col[np.isnan(col)] = np.nan
                col = col.view(np.uint64)
            else:
                col = col.astype(np.uint64)
            z = col + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            acc = acc * np.uint64(0x100000001B3) + z
    return acc


class ProbingHashIndex:
    """The open-addressing ``HashIndex`` that the sorted-key lookup
    replaced: emulated-CAS insertion rounds and linear-probing rounds."""

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


class OracleHashIndex:
    """The grouping half of the join index's argsort-era ``__init__``."""

    def __init__(self, columns, width):
        self.columns = [np.asarray(c) for c in columns]
        self.width = width
        n = len(self.columns[0]) if self.columns else 0
        self.n_rows = n

        key_cols = self.columns[:width]
        # Group rows by key: sorted row-id array + CSR offsets.
        order = oracle_lex_rank(key_cols) if width else np.arange(n, dtype=np.int64)
        self.row_ids = order
        sorted_keys = [c[order] for c in key_cols]
        if n and width:
            firsts_mask = kernels.row_group_boundaries(sorted_keys)
            firsts = np.flatnonzero(firsts_mask)
        elif n:
            firsts = np.zeros(1, dtype=np.int64)  # width 0: one group
        else:
            firsts = np.zeros(0, dtype=np.int64)
        self.group_offsets = firsts
        boundaries = np.append(firsts, n)
        self.group_counts = np.diff(boundaries)
        #: Representative source row per distinct key.
        self.representatives = order[firsts] if n else firsts


# -- generated tables ---------------------------------------------------------

I8, I32, I64, F64 = (np.dtype(t) for t in (np.int8, np.int32, np.int64, np.float64))
CELLS = {
    I8: st.integers(-128, 127),
    I32: st.integers(-(2**31), 2**31 - 1) | st.integers(-3, 3),
    # Spreads up to 2**61 make rows of two or more columns wider than 63
    # bits; the int64 extremes make even one column too wide to pack.
    I64: st.sampled_from([1, 40, 2**31, 2**61]).flatmap(lambda s: st.integers(-s, s))
    | st.sampled_from([-(2**63), 2**63 - 1]),
    F64: st.sampled_from([-0.0, 0.0, math.nan, -math.nan, 1.5, -2.5, math.inf, -math.inf]),
}


@st.composite
def tables(draw):
    """``(dtypes, rows, tag_facts)``: each column draws from a small pool,
    so rows repeat; a pool of one value makes every row equal."""
    arity = draw(st.integers(0, 3))
    dtypes = tuple(draw(st.sampled_from([I8, I32, I64, F64])) for _ in range(arity))
    pools = [draw(st.lists(CELLS[dt], min_size=1, max_size=4)) for dt in dtypes]
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 40))
    rows = [
        tuple(pool[draw(st.integers(0, len(pool) - 1))] for pool in pools)
        for _ in range(n)
    ]
    facts = draw(st.lists(st.integers(0, len(FACT_PROBS) - 1), min_size=n, max_size=n))
    return dtypes, rows, facts


def columns_of(dtypes, rows):
    return [np.array([r[j] for r in rows], dtype=dt) for j, dt in enumerate(dtypes)]


def bits(array):
    return array.dtype.str, array.shape, array.tobytes()


# Rows packed into exactly 64 (n=3) and 65 (n=5) bits of key plus row
# index: one 62-bit column and a 2- or 3-bit index.  The first takes the
# composite value sort, the second the stable-argsort fallback.
WIDE = 2**62 - 1
EXACT_64 = ((I64,), [(WIDE,), (0,), (WIDE,)], [0, 1, 3])
EXACT_65 = ((I64,), [(WIDE,), (0,), (5,), (WIDE,), (0,)], [0, 1, 3, 4, 5])
# Two 31-bit columns plus a 2-bit index, and the same one bit over.
TWO_COL_64 = ((I64, I64), [(2**31 - 1, 0), (0, 2**31 - 1), (2**31 - 1, 0)], [1, 2, 3])
TWO_COL_65 = ((I64, I64), [(2**31, 0), (0, 2**31 - 1), (2**31, 0)], [1, 2, 3])


def test_pinned_examples_cover_both_sides_of_64_bits():
    for (dtypes, rows, _), shift in [
        (EXACT_64, 2), (EXACT_65, 0), (TWO_COL_64, 2), (TWO_COL_65, 0),
    ]:
        columns = columns_of(dtypes, rows)
        params = kernels.pack_params(columns)
        index_bits = max(len(rows) - 1, 1).bit_length()
        assert sum(b for _, b in params) + index_bits == (64 if shift else 65)
        assert kernels._sort_packed(columns)[2] == shift


@given(tables())
@settings(max_examples=400, deadline=None)
@example(EXACT_64)
@example(EXACT_65)
@example(TWO_COL_64)
@example(TWO_COL_65)
@example(((I8, I32), [(-128, -(2**31))] * 3 + [(127, 2**31 - 1)], [0, 1, 2, 3]))
@example(((F64, I64), [(-0.0, 1), (0.0, 1), (math.nan, 1), (-math.nan, 1)], [0, 1, 2, 3]))
@example(((I64,), [(-(2**63),), (2**63 - 1,), (-(2**63),)], [0, 1, 2]))
@example(((I64, I64, I64), [], []))
@example(((), [(), (), ()], [0, 1, 2]))
def test_order_and_groups_match_the_argsort_oracle(table):
    dtypes, rows, _ = table
    columns = columns_of(dtypes, rows)
    assert bits(kernels.lex_rank(columns)) == bits(oracle_lex_rank(columns))
    if columns:
        order, is_first = kernels.group_rows(columns)
        want_order, want_first = oracle_group_rows(columns)
        assert bits(order) == bits(want_order)
        assert bits(is_first) == bits(want_first)


@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@given(table=tables())
@settings(max_examples=60, deadline=None)
@example(table=EXACT_64)
@example(table=EXACT_65)
@example(table=((F64, I8), [(0.0, 3), (-0.0, 3), (math.nan, -1), (-math.nan, -1)], [1, 0, 3, 4]))
def test_dedup_table_matches_the_argsort_oracle(semiring, table):
    dtypes, rows, facts = table
    provenance = create(semiring, **SEMIRINGS[semiring])
    provenance.setup(FACT_PROBS, FACT_GROUPS)
    tags = provenance.input_tags(np.array(facts, dtype=np.int64))
    delta = Table(columns_of(dtypes, rows), tags, len(rows))
    got, want = dedup_table(delta, provenance), oracle_dedup_table(delta, provenance)
    assert got.n_rows == want.n_rows
    assert [bits(c) for c in got.columns] == [bits(c) for c in want.columns]
    assert bits(got.tags) == bits(want.tags)


@given(tables(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
@example(EXACT_64, 1)
@example(EXACT_65, 1)
@example(TWO_COL_65, 2)
@example(((I32, I64), [(7, 1), (7, 2), (7, 1)], [0, 0, 0]), 0)
def test_index_groups_match_the_argsort_oracle(table, width):
    dtypes, rows, _ = table
    columns = columns_of(dtypes, rows)
    width = min(width, len(columns))
    got, want = HashIndex(columns, width), OracleHashIndex(columns, width)
    for name in ("row_ids", "group_offsets", "group_counts", "representatives"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def near_values(column):
    """Values of ``column``'s dtype at or next to its own: the values
    themselves and, for an integer column, the values just outside its
    range and the first value past that range rounded up to a power of
    two (which, packed without a range check, would spill into the next
    column's bits), where the dtype holds them."""
    values = column.tolist()
    if column.dtype.kind == "f" or not values:
        return values
    lo, hi = min(values), max(values)
    info = np.iinfo(column.dtype)
    outside = [lo - 1, hi + 1, lo + (1 << max(hi - lo, 1).bit_length())]
    return values + [v for v in outside if info.min <= v <= info.max]


@st.composite
def index_cases(draw):
    """``(build columns, width, probe columns)``: a generated table, a key
    width, and probe columns of the build columns' dtypes holding values
    near the build's and fresh ones."""
    dtypes, rows, _ = draw(tables())
    columns = columns_of(dtypes, rows)
    width = draw(st.integers(0, len(dtypes)))
    m = draw(st.sampled_from([0, 1]) | st.integers(0, 30))
    probe = []
    for column in columns:
        near = near_values(column)
        cells = CELLS[column.dtype]
        values = st.sampled_from(near) | cells if near else cells
        probe.append(
            np.array(draw(st.lists(values, min_size=m, max_size=m)), dtype=column.dtype)
        )
    return columns, width, probe


def index_case(dtypes, build_rows, width, probe_rows):
    return columns_of(dtypes, build_rows), width, columns_of(dtypes, probe_rows)


def python_matches(columns, width, probe):
    """``(counts, probe_ids, build_ids)`` by Python equality of the values
    — with a NaN equal to a NaN — in build row order per probe row; an
    index without key columns matches nothing."""
    def same(query, row):
        return all(x == y or x != x and y != y for x, y in zip(query, row))

    build = list(zip(*(c.tolist() for c in columns[:width])))
    queries = list(zip(*(c.tolist() for c in probe[:width])))
    pairs = [(i, j) for i, q in enumerate(queries) for j, r in enumerate(build) if same(q, r)]
    if not width:
        pairs = []
    probe_ids = np.array([i for i, _ in pairs], dtype=np.int64)
    counts = np.bincount(probe_ids, minlength=len(probe[0]) if probe else 0).astype(np.int64)
    return counts, probe_ids, np.array([j for _, j in pairs], dtype=np.int64)


@given(index_cases())
@settings(max_examples=400, deadline=None)
@example(index_case((I64,), [(3,), (5,), (3,)], 1, [(2,), (6,), (3,), (5,), (4,)]))
@example(index_case((I8,), [(-128,), (127,)], 1, [(-128,), (0,), (127,)]))
@example(index_case((I32, I8), [(7, -1), (7, 1), (9, 1)], 1, [(6, 0), (7, 5), (10, 1)]))
# Packed without its range check, the probe (0, 2) is the key of (1, 0).
@example(index_case((I64, I64), [(0, 0), (1, 0)], 2, [(0, 2), (1, 0), (0, -1)]))
@example(index_case((I64, I64), [(2**62, 1), (0, -(2**62))], 2, [(2**62, 1), (0, 1)]))
@example(index_case((I64,), [(-(2**63),), (2**63 - 1,)], 1, [(2**63 - 1,), (0,)]))
@example(index_case(
    (F64,), [(0.0,), (math.nan,), (1.5,), (-0.0,), (-math.nan,)], 1,
    [(-0.0,), (0.0,), (-math.nan,), (math.nan,), (1.5,), (2.0,), (math.inf,)],
))
@example(index_case((F64, I32), [(math.inf, 1), (-math.inf, 2)], 2, [(math.inf, 1), (-math.inf, 1)]))
@example(index_case((I64, I32), [(1, 2), (1, 3)], 0, [(1, 2), (4, 4)]))
@example(index_case((I64,), [], 1, [(1,), (2,)]))
@example(index_case((I64,), [(1,), (2,)], 1, []))
@example(index_case((), [(), ()], 0, [(), ()]))
def test_index_lookups_match_the_probing_oracle(case):
    """Bitwise against Python equality of the values, and against the
    replaced open-addressing index."""
    columns, width, probe = case
    got = HashIndex(columns, width)
    want_counts, *want_pairs = python_matches(columns, width, probe)
    assert bits(got.count(probe)) == bits(want_counts)
    got_pairs = got.probe(probe)
    for got_ids, want_ids in zip(got_pairs, [*want_pairs, want_counts]):
        assert bits(got_ids) == bits(want_ids)
    oracle = ProbingHashIndex(columns, width)
    assert got.nbytes == oracle.nbytes
    assert bits(got.count(probe)) == bits(oracle.count(probe))
    for got_ids, want_ids in zip(got_pairs, oracle.probe(probe)):
        assert bits(got_ids) == bits(want_ids)


@pytest.mark.parametrize(
    "key, probe",
    [
        (np.array([1, 2]), np.array([1.0, 2.0])),
        (np.array([1.0, 2.0]), np.array([1, 2])),
        (np.array([1, 2]), np.array([1, 2], dtype=np.int32)),
        (np.array([0.5, 1.5]), np.array([0.5, 1.5], dtype=np.float32)),
    ],
    ids=["i64-by-f64", "f64-by-i64", "i64-by-i32", "f64-by-f32"],
)
def test_a_probe_of_another_dtype_is_an_execution_error(key, probe):
    """The lookup converts no key: a probe column of another dtype than
    its key column is a lowering bug, raised as a typed error on the
    packed path and the merge-rank path alike."""
    index = HashIndex([key], 1)
    with pytest.raises(ExecutionError, match="query column 0"):
        index.count([probe])
    with pytest.raises(ExecutionError, match="query column 0"):
        index.probe([probe])
    with pytest.raises(ExecutionError, match="query column 0"):
        RowLocator([key], len(key)).find([probe], len(probe))
