"""The value-sort grouping kernels against the argsort bodies they replaced.

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
semirings, and bitwise equal index groups and (for integer keys) slots.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import kernels
from repro.gpu.hash_table import DEFAULT_LOAD_FACTOR, HashIndex
from repro.provenance import create
from repro.runtime.relation import dedup_table
from repro.runtime.table import Table

SEMIRINGS = {
    "unit": {},
    "minmaxprob": {},
    "addmultprob": {},
    "diff-top-1-proofs": {"proof_capacity": 3},
    "top-k-proofs-device": {"k": 2, "proof_capacity": 3},
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


class OracleHashIndex(HashIndex):
    """``HashIndex`` with the grouping half of its old ``__init__``."""

    def __init__(self, columns, width, load_factor=DEFAULT_LOAD_FACTOR):
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

        n_groups = len(firsts)
        capacity = max(16, int(max(n_groups, 1) * load_factor))
        capacity = 1 << (capacity - 1).bit_length()  # power of two -> mask
        self.capacity = capacity
        self.slots = np.full(capacity, -1, dtype=np.int64)
        if n_groups and width:
            self._insert_groups()


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
    if all(c.dtype.kind == "i" for c in columns[:width]):
        assert bits(got.slots) == bits(want.slots)
