"""The stats subsystem: sketches, incremental maintenance, estimators.

The load-bearing property (hypothesis-checked): statistics maintained
*incrementally* through any interleaving of ``StoredRelation.advance``
and retraction paths are exactly equal — sketch state included — to
statistics recomputed from the final ``full`` table.  Everything the
planner reads is therefore independent of mutation history.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance.registry import create as create_provenance
from repro.runtime.relation import StoredRelation
from repro.runtime.table import Table
from repro.stats import RelationStats, StatsCatalog
from repro.stats.estimate import (
    Binding,
    VarStats,
    atom_binding,
    join_bindings,
)
from repro.stats.relation_stats import ColumnStats, log2_bucket
from repro.stats.sketches import CountMinSketch, KmvSketch

INT2 = (np.dtype(np.int64), np.dtype(np.int64))


def make_relation(dtypes=INT2) -> StoredRelation:
    return StoredRelation("r", dtypes, create_provenance("unit"))


def unit_table(rows: list[tuple], relation: StoredRelation) -> Table:
    prov = relation.provenance
    tags = prov.input_tags(np.full(len(rows), -1, dtype=np.int64))
    return Table.from_rows(rows, relation.dtypes, tags)


class TestSketches:
    def test_kmv_exact_below_k(self):
        sketch = KmvSketch(k=16)
        sketch.add(np.arange(10, dtype=np.int64))
        sketch.add(np.arange(5, dtype=np.int64))  # duplicates
        assert sketch.estimate() == 10.0

    def test_kmv_merge_equals_recompute(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10_000, size=5_000)
        split = KmvSketch()
        for chunk in np.array_split(values, 7):
            split.add(chunk)
        whole = KmvSketch()
        whole.add(values)
        assert split == whole

    def test_kmv_estimate_bounded_on_uniform(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 50_000, size=30_000)
        sketch = KmvSketch()
        sketch.add(values)
        true = len(np.unique(values))
        assert true / 2 <= sketch.estimate() <= true * 2

    def test_cms_is_linear(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 100, size=2_000)
        split = CountMinSketch()
        for chunk in np.array_split(values, 5):
            split.add(chunk)
        whole = CountMinSketch()
        whole.add(values)
        assert split == whole
        # Signed removal inverts exactly.
        split.add(values[:500], sign=-1)
        partial = CountMinSketch()
        partial.add(values[500:])
        assert split == partial

    def test_cms_point_query_never_undercounts(self):
        values = np.array([7] * 40 + [1, 2, 3] * 5, dtype=np.int64)
        sketch = CountMinSketch()
        sketch.add(values)
        assert sketch.count(7) >= 40
        assert sketch.max_frequency() >= 40

    def test_cms_inner_product_sees_skew(self):
        # One shared heavy hitter dominates the true join size; the
        # distinct-count formula would miss it by orders of magnitude.
        left = np.array([5] * 900 + list(range(100)), dtype=np.int64)
        right = np.array([5] * 900 + list(range(200, 300)), dtype=np.int64)
        l, r = CountMinSketch(), CountMinSketch()
        l.add(left)
        r.add(right)
        true = 900 * 900
        estimate = l.inner_product(r)
        assert estimate >= true  # never undercounts
        assert estimate <= true * 1.5  # and stays in the ballpark


rows_strategy = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=0, max_size=60
)


class TestIncrementalMaintenance:
    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(rows_strategy, min_size=1, max_size=6))
    def test_advances_match_recompute(self, batches):
        rel = make_relation()
        rel.enable_stats()
        for rows in batches:
            if rows:
                rel.advance(unit_table(rows, rel))
        assert rel.stats == RelationStats.from_table(rel.full)
        assert rel.stats.row_count == rel.full.n_rows

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(rows_strategy, min_size=1, max_size=4),
        removals=st.lists(st.integers(0, 52), min_size=0, max_size=20),
        data=st.data(),
    )
    def test_advances_and_retractions_match_recompute(
        self, batches, removals, data
    ):
        """Interleaved advance / remove_rows sequences always leave the
        incrementally maintained stats equal to a from-scratch build."""
        rel = make_relation()
        rel.enable_stats()
        for rows in batches:
            if rows:
                rel.advance(unit_table(rows, rel))
            if rel.full.n_rows and removals:
                mask = np.zeros(rel.full.n_rows, dtype=bool)
                doomed = data.draw(
                    st.sets(
                        st.integers(0, rel.full.n_rows - 1),
                        max_size=min(len(removals), rel.full.n_rows),
                    )
                )
                mask[list(doomed)] = True
                rel.remove_rows(mask)
        assert rel.stats == RelationStats.from_table(rel.full)

    def test_set_facts_resets_stats(self):
        rel = make_relation()
        rel.enable_stats()
        rel.advance(unit_table([(1, 2), (3, 4)], rel))
        rel.set_facts(unit_table([(9, 9)], rel))
        assert rel.stats == RelationStats.from_table(rel.full)
        assert rel.stats.row_count == 1

    def test_stats_opt_in(self):
        rel = make_relation()
        rel.advance(unit_table([(1, 2)], rel))
        assert rel.stats is None  # hot path untouched until enabled
        live = rel.enable_stats()
        assert live.row_count == 1
        rel.advance(unit_table([(5, 6)], rel))
        assert live.row_count == 2  # same object observes later advances

    def test_arity_zero_relation(self):
        rel = make_relation(dtypes=())
        rel.enable_stats()
        rel.advance(unit_table([(), (), ()], rel))
        assert rel.stats.row_count == 1  # dedup to one logical row
        assert rel.stats == RelationStats.from_table(rel.full)


class TestEstimator:
    def test_uniform_join_estimate_bounded(self):
        """On uniform independent data the classic estimate lands within
        a small constant factor of the true equi-join size."""
        rng = np.random.default_rng(3)
        n, domain = 4_000, 500
        left_rows = [
            (int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))
        ]
        right_rows = [
            (int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))
        ]
        rel_l, rel_r = make_relation(), make_relation()
        rel_l.advance(unit_table(left_rows, rel_l))
        rel_r.advance(unit_table(right_rows, rel_r))
        catalog = StatsCatalog(
            {"l": rel_l.enable_stats(), "r": rel_r.enable_stats()}
        )
        left = atom_binding("l", [("var", "x"), ("var", "y")], catalog)
        right = atom_binding("r", [("var", "y"), ("var", "z")], catalog)
        joined = join_bindings(left, right, ["y"])

        l_col = np.array([row[1] for row in rel_l.full.rows()])
        r_col = np.array([row[0] for row in rel_r.full.rows()])
        true = int(
            sum(
                np.sum(l_col == v) * np.sum(r_col == v)
                for v in np.unique(np.concatenate([l_col, r_col]))
            )
        )
        assert true / 3 <= joined.rows <= true * 3

    def test_constant_selectivity_uses_frequency(self):
        rows = [(7, i) for i in range(90)] + [(i + 100, i) for i in range(10)]
        rel = make_relation()
        rel.advance(unit_table(rows, rel))
        catalog = StatsCatalog({"r": rel.enable_stats()})
        heavy = atom_binding("r", [("const", 7), ("var", "y")], catalog)
        light = atom_binding("r", [("const", 105), ("var", "y")], catalog)
        assert heavy.rows > 10 * light.rows  # skew visible to the planner

    def test_int_constant_probes_float_column(self):
        """An integer literal against a float column must hash through
        the column's dtype: 5 and 5.0 are the same value at runtime."""
        rows = [(float(5), i * 0.5) for i in range(100)]
        rel = make_relation(dtypes=(np.dtype(np.float64), np.dtype(np.float64)))
        rel.advance(unit_table(rows, rel))
        catalog = StatsCatalog({"r": rel.enable_stats()})
        from repro.stats.estimate import eq_const_selectivity

        stats = catalog.get("r")
        assert eq_const_selectivity(stats, 0, 5) == pytest.approx(1.0)
        # A fractional constant can never match an int column.
        int_rel = make_relation()
        int_rel.advance(unit_table([(5, i) for i in range(10)], int_rel))
        int_stats = StatsCatalog({"r": int_rel.enable_stats()}).get("r")
        assert eq_const_selectivity(int_stats, 0, 5.5) < 0.5
        assert eq_const_selectivity(int_stats, 0, 5.0) == pytest.approx(1.0)

    def test_unknown_relation_uses_default(self):
        binding = atom_binding("ghost", [("var", "x")], StatsCatalog({}))
        assert binding.rows > 1.0

    def test_cross_product_estimate(self):
        a = Binding(10.0, {"x": VarStats(10.0)})
        b = Binding(20.0, {"y": VarStats(20.0)})
        assert join_bindings(a, b, []).rows == 200.0


class TestCatalog:
    def test_bucket_key_stable_and_shape_sensitive(self):
        rel = make_relation()
        rel.advance(unit_table([(i, i % 5) for i in range(100)], rel))
        catalog = StatsCatalog({"edge": rel.enable_stats()})
        key = catalog.bucket_key()
        assert key == catalog.bucket_key()  # deterministic
        # Same order of magnitude -> same bucket.
        rel.advance(unit_table([(1000, 1)], rel))
        assert catalog.bucket_key() == key
        # An order-of-magnitude jump -> a different bucket.
        rel.advance(unit_table([(i + 2000, i) for i in range(900)], rel))
        assert catalog.bucket_key() != key

    def test_log2_bucket(self):
        assert log2_bucket(0) == 0
        assert log2_bucket(1) == 1
        assert log2_bucket(600) == log2_bucket(1000)
        assert log2_bucket(1000) != log2_bucket(3000)

    def test_from_database_enables_stats(self):
        from repro import LobsterEngine

        engine = LobsterEngine("rel p(x) :- q(x).")
        db = engine.create_database()
        db.add_facts("q", [(1,), (2,)])
        db.finalize()
        catalog = db.stats_catalog()
        assert catalog.get("q").row_count == 2
        assert db.relations["q"].stats is catalog.get("q")

    def test_empty_catalog_is_falsy(self):
        assert not StatsCatalog({})
        rel = make_relation()
        assert not StatsCatalog({"r": rel.enable_stats()})


class TestColumnStats:
    def test_min_max_and_skew(self):
        stats = ColumnStats.from_column(np.array([5] * 95 + list(range(5))))
        assert stats.min == 0.0 and stats.max == 5.0
        assert stats.skew() >= 0.9

    def test_float_column(self):
        stats = ColumnStats.from_column(np.array([0.5, -1.5, 2.5]))
        assert stats.min == -1.5 and stats.max == 2.5
        assert stats.n_distinct == pytest.approx(3.0)
