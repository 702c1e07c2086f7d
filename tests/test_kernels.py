"""Unit + property tests for the data-parallel kernels."""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import kernels

ints = st.integers(min_value=-50, max_value=50)


class TestExclusiveScan:
    def test_empty(self):
        assert len(kernels.exclusive_scan(np.zeros(0, dtype=np.int64))) == 0

    def test_basic(self):
        out = kernels.exclusive_scan(np.array([3, 1, 4, 1]))
        assert out.tolist() == [0, 3, 4, 8]

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=50))
    def test_matches_cumsum(self, values):
        arr = np.array(values, dtype=np.int64)
        out = kernels.exclusive_scan(arr)
        expected = np.concatenate([[0], np.cumsum(arr)[:-1]]) if len(arr) else arr
        assert np.array_equal(out, expected)


class TestSortAndUnique:
    def test_sort_rows_lexicographic(self):
        cols = [np.array([2, 1, 1]), np.array([0, 5, 3])]
        sorted_cols, order = kernels.sort_rows(cols)
        assert list(zip(*[c.tolist() for c in sorted_cols])) == [(1, 3), (1, 5), (2, 0)]
        assert order.tolist() == [2, 1, 0]

    @given(st.lists(st.tuples(ints, ints), min_size=0, max_size=60))
    def test_unique_rows_matches_set(self, rows):
        cols = (
            [np.array([r[0] for r in rows]), np.array([r[1] for r in rows])]
            if rows
            else [np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)]
        )
        sorted_cols, _ = kernels.sort_rows(cols)
        unique_cols, segment_ids, firsts = kernels.unique_rows(sorted_cols)
        got = set(zip(*[c.tolist() for c in unique_cols])) if rows else set()
        assert got == set(rows)
        # Segment ids are dense, ascending, and map rows to their group.
        if rows:
            assert segment_ids[0] == 0
            assert segment_ids[-1] == len(got) - 1
            assert (np.diff(segment_ids) >= 0).all()

    @given(
        st.lists(st.tuples(st.integers(-(2**40), 2**40), ints), min_size=1, max_size=30),
        st.lists(st.tuples(ints, ints), max_size=5),
    )
    def test_pack_params_cover_and_keys_keep_row_order(self, rows, more):
        cols = [np.array([r[j] for r in rows], dtype=np.int64) for j in range(2)]
        params = kernels.pack_params(cols)
        # Parameters fitted to some rows are a fixed point for those rows.
        assert kernels.pack_params(cols, params) == params
        extra = [np.array([r[j] for r in more], dtype=np.int64) for j in range(2)]
        wider = kernels.pack_params(extra, params)
        both = [np.concatenate([c, e]) for c, e in zip(cols, extra)]
        keys = kernels.pack_keys(both, wider)
        expected = np.lexsort(tuple(reversed(both)))
        assert np.array_equal(np.argsort(keys, kind="stable"), expected)
        assert np.array_equal(kernels.pack_rows(cols), kernels.pack_keys(cols, params))

    def test_pack_params_refuse_floats_and_wide_rows(self):
        assert kernels.pack_params([np.array([1.0])]) is None
        assert kernels.pack_params([np.array([0, 2**62]), np.array([0, 4])]) is None
        assert kernels.pack_params([]) is None

    def test_merge_sorted(self):
        left = [np.array([1, 3]), np.array([10, 30])]
        right = [np.array([2, 4]), np.array([20, 40])]
        merged = kernels.merge_sorted(left, right, np.array([1, 2]))
        assert merged[0].tolist() == [1, 2, 3, 4]
        assert merged[1].tolist() == [10, 20, 30, 40]

    @given(
        st.lists(st.tuples(ints, ints), max_size=12),
        st.lists(st.tuples(ints, ints), max_size=12),
    )
    @example([], [])
    @example([(0, 0)], [])
    @example([], [(0, 0)])
    @example([(1, 2)], [(1, 2)])
    @example([(1, 2), (3, 4)], [(1, 2), (1, 2), (5, 0)])
    def test_merge_sorted_matches_concat_and_rank(self, left_rows, right_rows):
        """The splice equals the concat + ``lex_rank`` merge it replaced
        (equal rows across sides: left first), tags carried alongside."""

        left_rows, right_rows = sorted(left_rows), sorted(right_rows)

        def columns(rows, tag_sign):
            return [
                np.array([r[0] for r in rows], dtype=np.int64),
                np.array([r[1] for r in rows], dtype=np.int64),
                tag_sign * np.arange(len(rows), dtype=np.float64),  # a carried tag
            ]

        left, right = columns(left_rows, 1.0), columns(right_rows, -1.0)
        concat = [np.concatenate([l, r]) for l, r in zip(left, right)]
        order = kernels.lex_rank(concat[:2])
        expected = [c[order] for c in concat]
        positions = np.array(
            [bisect.bisect_right(left_rows, row) for row in right_rows], dtype=np.int64
        )
        merged = kernels.merge_sorted(left, right, positions)
        assert [m.tolist() for m in merged] == [e.tolist() for e in expected]
        assert all(m.dtype == e.dtype for m, e in zip(merged, expected))


class TestSegmentReductions:
    def test_segment_reduce_max(self):
        values = np.array([1.0, 5.0, 2.0, 7.0])
        seg = np.array([0, 0, 1, 1])
        assert kernels.segment_reduce_max(values, seg, 2).tolist() == [5.0, 7.0]

    def test_segment_reduce_sum(self):
        values = np.array([1.0, 5.0, 2.0, 7.0])
        seg = np.array([0, 0, 1, 1])
        assert kernels.segment_reduce_sum(values, seg, 2).tolist() == [6.0, 9.0]

    def test_segment_argmax_ties_take_earliest(self):
        values = np.array([3.0, 3.0, 1.0, 2.0])
        seg = np.array([0, 0, 1, 1])
        assert kernels.segment_argmax(values, seg, 2).tolist() == [0, 3]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=40,
        )
    )
    def test_segment_argmax_property(self, pairs):
        pairs.sort(key=lambda p: p[0])
        seg_raw = np.array([p[0] for p in pairs])
        # densify segment ids
        _, seg = np.unique(seg_raw, return_inverse=True)
        values = np.array([p[1] for p in pairs])
        nseg = seg.max() + 1
        winners = kernels.segment_argmax(values, seg, nseg)
        for s in range(nseg):
            members = np.flatnonzero(seg == s)
            assert values[winners[s]] == values[members].max()


class TestRepeatRanges:
    def test_expand(self):
        counts = np.array([2, 0, 3])
        offsets = kernels.exclusive_scan(counts)
        row_ids, ranks = kernels.repeat_ranges(counts, offsets)
        assert row_ids.tolist() == [0, 0, 2, 2, 2]
        assert ranks.tolist() == [0, 1, 0, 1, 2]

    def test_empty(self):
        row_ids, ranks = kernels.repeat_ranges(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert len(row_ids) == 0 and len(ranks) == 0


class TestCompact:
    def test_compact(self):
        mask = np.array([True, False, True])
        cols = kernels.compact(mask, [np.array([10, 20, 30])])
        assert cols[0].tolist() == [10, 30]
