"""Property tests for the open-addressing hash index against brute force,
float join keys matching by row equality (``-0.0`` is ``0.0``, NaN is
NaN), int and float keys of one variable refused by the front end, and
integer facts in an ``f64`` key joining as their ``float`` value."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LobsterEngine, ResolutionError
from repro.baselines.scallop import ScallopInterpreter
from repro.gpu.hash_table import HashIndex

keys = st.integers(min_value=0, max_value=30)


def brute_force_matches(build_rows, probe_rows, width):
    by_key = defaultdict(list)
    for index, row in enumerate(build_rows):
        by_key[row[:width]].append(index)
    return sorted(
        (i, j) for i, row in enumerate(probe_rows) for j in by_key.get(row[:width], [])
    )


@given(
    st.lists(st.tuples(keys, keys), max_size=80),
    st.lists(st.tuples(keys, keys), max_size=40),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_probe_matches_brute_force(build_rows, probe_rows, width):
    build_cols = [
        np.array([r[0] for r in build_rows], dtype=np.int64),
        np.array([r[1] for r in build_rows], dtype=np.int64),
    ]
    probe_cols = [
        np.array([r[0] for r in probe_rows], dtype=np.int64),
        np.array([r[1] for r in probe_rows], dtype=np.int64),
    ]
    index = HashIndex(build_cols, width)
    probe_ids, build_ids, counts = index.probe(probe_cols[:width])
    got = sorted(zip(probe_ids.tolist(), build_ids.tolist()))
    assert got == brute_force_matches(build_rows, probe_rows, width)
    expected_counts = defaultdict(int)
    for i, _ in got:
        expected_counts[i] += 1
    assert counts.tolist() == [expected_counts[i] for i in range(len(probe_rows))]


def test_heavy_duplicates_are_cheap():
    """A single repeated key must not degrade build (CSR group layout)."""
    n = 20_000
    cols = [np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64)]
    index = HashIndex(cols, 1)
    probe_ids, build_ids, counts = index.probe([np.array([0, 1])])
    assert counts.tolist() == [n, 0]
    assert sorted(build_ids.tolist()) == list(range(n))


def test_count_only():
    index = HashIndex([np.array([1, 1, 2])], 1)
    assert index.count([np.array([1, 2, 3])]).tolist() == [2, 1, 0]


def test_empty_build_table():
    index = HashIndex([np.zeros(0, dtype=np.int64)], 1)
    probe_ids, build_ids, counts = index.probe([np.array([1, 2])])
    assert len(probe_ids) == 0
    assert counts.tolist() == [0, 0]


def test_empty_probe():
    index = HashIndex([np.array([1, 2])], 1)
    probe_ids, build_ids, counts = index.probe([np.zeros(0, dtype=np.int64)])
    assert len(probe_ids) == 0 and len(counts) == 0


def test_nbytes_positive():
    index = HashIndex([np.array([1, 2, 3])], 1)
    assert index.nbytes > 0


# -- float keys join by row equality -----------------------------------------

FLOAT_JOIN = (
    "type a(f64)\n"
    "type b(f64)\n"
    "rel r(x) :- a(x), b(x).\n"
    "rel s(x) :- a(x), ~b(x).\n"
    "rel c(x) :- a(x).\n"
    "rel c(x) :- b(x).\n"
)


def run_float_join(engine_cls, a, b, source=FLOAT_JOIN):
    engine = engine_cls(source, provenance="unit")
    database = engine.create_database()
    database.add_facts("a", [(a,)])
    database.add_facts("b", [(b,)])
    engine.run(database)
    return database


def test_float_probe_matches_signed_zero_and_nan():
    """``-0.0`` finds ``0.0`` and a NaN finds a NaN of either sign."""
    index = HashIndex([np.array([0.0, math.nan, 1.5, -0.0, -math.nan])], 1)
    probe = np.array([-0.0, 0.0, -math.nan, math.nan, 1.5, 2.0])
    assert index.count([probe]).tolist() == [2, 2, 2, 2, 1, 0]
    probe_ids, build_ids, _ = index.probe([probe])
    assert sorted(zip(probe_ids.tolist(), build_ids.tolist()))[:4] == [
        (0, 0), (0, 3), (1, 0), (1, 3),
    ]


@pytest.mark.parametrize("a, b", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_join_and_negation_agree_with_scallop(a, b):
    lobster = run_float_join(LobsterEngine, a, b)
    scallop = run_float_join(ScallopInterpreter, a, b)
    for name in ("r", "s", "c"):
        assert set(lobster.result(name).rows()) == set(scallop.rows(name)), name
    assert len(lobster.result("r").rows()) == 1 and not lobster.result("s").rows()


@pytest.mark.parametrize("a, b", [(math.nan, math.nan), (math.nan, -math.nan)])
def test_nan_join_and_negation_follow_nan_deduplication(a, b):
    """The engine's own rule: ``c`` stores the two NaN facts as one row, so
    the join finds ``a``'s NaN in ``b`` and the negation does not.  Scallop
    is no reference here: it keys rows by Python equality, under which no
    two NaN objects are equal."""
    database = run_float_join(LobsterEngine, a, b)
    assert len(database.result("c").rows()) == 1
    (joined,) = database.result("r").rows()
    assert math.isnan(joined[0])
    assert database.result("s").rows() == []


# An int key column joined with a float one: negation's ``a`` is always the
# build side; ``r`` and ``t`` put each relation on the build side once.
MIXED_JOIN = (
    "type a(i64)\n"
    "type b(f64)\n"
    "rel s(x) :- b(x), ~a(x).\n"
    "rel r(x) :- b(x), a(x).\n"
    "rel t(x) :- a(x), b(x).\n"
)


# The same joins with the key typed once: ``a`` holds ``f64`` and takes
# integer facts, which ``add_facts`` stores as their ``float`` value.
TYPED_JOIN = MIXED_JOIN.replace("type a(i64)", "type a(f64)")


@pytest.mark.parametrize(
    "a, b", [(1, 1.5), (2, 2.0), (0, -0.0), (2**53 + 1, 2.0**53), (-(2**63), -(2.0**63))]
)
def test_int_and_float_keys_join_by_exact_equality_as_in_scallop(a, b):
    """An integer fact in an ``f64`` key column joins as ``float(a)``, by
    exact equality: ``1.5`` is not ``1``, ``2.0`` is ``2``, and
    ``2**53 + 1`` is stored as ``2.0**53`` and so finds it.  Scallop is
    handed the stored value, since its fact store keeps the Python int."""
    lobster = run_float_join(LobsterEngine, a, b, TYPED_JOIN)
    scallop = run_float_join(ScallopInterpreter, float(a), b, TYPED_JOIN)
    assert lobster.result("a").rows() == [(float(a),)]
    for name in ("s", "r", "t"):
        assert set(lobster.result(name).rows()) == set(scallop.rows(name)), name
    assert len(lobster.result("s").rows()) == (float(a) != b)
    assert len(lobster.result("r").rows()) == (float(a) == b)


def test_int_and_float_keys_of_one_variable_are_a_resolution_error():
    """A variable typed ``i64`` by one atom and ``f64`` by another used to
    join by exact equality (``2.0`` found ``2``, ``1.5`` nothing), which
    made every row lookup cast its probe.  The front end now types each
    variable once, so both engines refuse the program before any fact
    arrives, with one message naming the rule, the variable and both
    columns."""
    messages = []
    for engine_cls in (LobsterEngine, ScallopInterpreter):
        with pytest.raises(ResolutionError) as caught:
            engine_cls(MIXED_JOIN, provenance="unit")
        messages.append(str(caught.value))
    assert messages == [
        "rule `s(x) :- b(x), ~a(x)`: variable 'x' is b[0]: f64 and a[0]: i64"
    ] * 2
