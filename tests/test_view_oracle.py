"""``Table.rows`` and the view's tick diff against the bodies they replaced.

``Table.rows`` builds its tuples with one ``tolist`` per column; the
oracle is the body it had before, one ``.item()`` per cell, kept
verbatim.  :func:`~repro.stream.view.snapshot_diff` finds the previous
snapshot's rows in the new table with a ``RowLocator``; the oracle is
the sorted dict diff ``MaterializedView.apply`` ran over two
``query_probs`` maps, kept verbatim.  Both comparisons are bitwise: the
same cell types, the same float bits (``-0.0``, NaN and ±inf included)
and the same pair order.

The diff cases leave NaN rows out: under the dict diff a NaN row never
equals itself, so the oracle reports it retracted and re-inserted on
every tick — the churn ``test_view_snapshots.py`` pins as fixed.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.gpu import kernels
from repro.gpu.hash_table import RowLocator
from repro.runtime.table import Table
from repro.stream.view import snapshot_diff

I8, I32, I64, F64 = (np.dtype(t) for t in (np.int8, np.int32, np.int64, np.float64))
NAN, INF = math.nan, math.inf


def oracle_rows(self: Table) -> list[tuple]:
    """The parent's ``Table.rows`` body."""
    return [tuple(col[i].item() for col in self.columns) for i in range(self.n_rows)]


def oracle_state(table: Table) -> dict[tuple, float]:
    """The parent's ``query_probs`` over a snapshot (probs as tags)."""
    rows, probs = oracle_rows(table), table.tags
    return {row: float(p) for row, p in zip(rows, probs)}


def oracle_diff(old: dict, new: dict) -> tuple[list, list]:
    """The parent's per-relation diff in ``MaterializedView.apply``."""
    retracted = [
        (row, prob)
        for row, prob in sorted(old.items())
        if new.get(row) != prob
    ]
    inserted = [
        (row, prob)
        for row, prob in sorted(new.items())
        if old.get(row) != prob
    ]
    return retracted, inserted


def bits(value):
    """``value`` with every float replaced by its IEEE-754 bytes and every
    other scalar tagged with its type, so ``==`` is bitwise."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(bits(item) for item in value)
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    return type(value).__name__, value


def cells(dtype: np.dtype, nan: bool = True):
    if dtype.kind == "f":
        return st.sampled_from([0.0, -0.0, INF, -INF, 1.5] + [NAN] * nan) | st.floats(
            allow_nan=nan
        )
    info = np.iinfo(dtype)
    return st.sampled_from([int(info.min), int(info.max), 0, -1]) | st.integers(
        int(info.min), int(info.max)
    )


def table_of(dtypes, rows, tags=None) -> Table:
    n = len(rows)
    tags = np.zeros(n) if tags is None else np.asarray(tags, dtype=np.float64)
    return Table(
        [np.array([row[j] for row in rows], dtype=dt).reshape(n) for j, dt in enumerate(dtypes)],
        tags,
        n,
    )


@st.composite
def tables(draw) -> Table:
    dtypes = draw(st.lists(st.sampled_from([I8, I32, I64, F64]), max_size=3))
    rows = draw(st.lists(st.tuples(*(cells(dt) for dt in dtypes)), max_size=12))
    return table_of(dtypes, rows)


@given(table=tables())
@example(table=table_of([], [(), (), ()]))
@example(table=table_of([], []))
@example(table=table_of([F64, I64], []))
@example(table=table_of([F64], [(0.0,), (-0.0,), (NAN,), (INF,), (-INF,)]))
@example(table=table_of([I8, I32], [(-128, -(2**31)), (127, 2**31 - 1)]))
@example(table=table_of([I64, F64], [(-(2**63), -0.0), (2**63 - 1, NAN)]))
def test_rows_match_the_item_oracle(table):
    assert bits(table.rows()) == bits(oracle_rows(table))


# ----------------------------------------------------------------------
# The tick diff


def snapshot(dtypes, pairs, shuffle=None) -> Table:
    """``pairs`` as a view snapshot: rows sorted and deduplicated as a
    relation's ``full`` holds them (the first pair of equal rows wins),
    probabilities for tags; a ``shuffle`` seed then permutes the rows."""
    table = table_of(dtypes, [row for row, _ in pairs], [prob for _, prob in pairs])
    if not dtypes:
        table = table.take(np.arange(min(table.n_rows, 1)))
    else:
        ranked, is_first = kernels.group_rows(table.columns)
        table = table.take(ranked[is_first])
    if shuffle is not None:
        table = table.take(np.random.default_rng(shuffle).permutation(table.n_rows))
    return table


@st.composite
def diff_cases(draw):
    """``(dtypes, old pairs, new pairs, shuffle)`` over one row universe,
    so rows stay, leave, arrive and change probability; ``shuffle``
    permutes the old snapshot (its rows may come in any order)."""
    dtypes = tuple(draw(st.lists(st.sampled_from([I8, I32, I64, F64]), max_size=3)))
    universe = draw(
        st.lists(st.tuples(*(cells(dt, nan=False) for dt in dtypes)), max_size=10)
    )
    probs = st.sampled_from([0.25, 0.5, 1.0])
    old = [(row, draw(probs)) for row in universe if draw(st.booleans())]
    new = [(row, draw(probs)) for row in universe if draw(st.booleans())]
    return dtypes, old, new, draw(st.none() | st.integers(0, 2**16))


@given(case=diff_cases())
# a probability-only change
@example(case=((I64,), [((1,), 0.5), ((2,), 0.5)], [((1,), 0.25), ((2,), 0.5)], None))
# empty old side, empty new side, both empty
@example(case=((I64, F64), [], [((3, 1.5), 1.0)], None))
@example(case=((I64, F64), [((3, 1.5), 1.0)], [], None))
@example(case=((F64,), [], [], None))
# -0.0 and 0.0 are one row; ±inf
@example(case=((F64,), [((0.0,), 0.5)], [((-0.0,), 0.5)], None))
@example(case=((F64,), [((0.0,), 0.5)], [((-0.0,), 0.25)], None))
@example(case=((F64, I8), [((INF, -128), 1.0), ((-INF, 127), 0.5)], [((INF, -128), 0.5)], None))
# arity 0: present or not, probability kept or changed
@example(case=((), [((), 0.5)], [((), 0.5)], None))
@example(case=((), [((), 0.5)], [((), 0.25)], None))
@example(case=((), [], [((), 1.0)], None))
@example(case=((), [((), 1.0)], [], None))
# old rows out of order
@example(case=((I32,), [((1,), 0.5), ((2,), 0.5), ((3,), 0.5)], [((2,), 0.5)], 3))
def test_diff_matches_the_dict_oracle(case):
    dtypes, old_pairs, new_pairs, shuffle = case
    old = snapshot(dtypes, old_pairs, shuffle)
    new = snapshot(dtypes, new_pairs)
    expected = oracle_diff(oracle_state(old), oracle_state(new))
    actual = snapshot_diff(old.columns, old.tags, RowLocator(new.columns, new.n_rows), new.tags)
    assert bits(actual) == bits(expected)
