"""Columnar Table and Database layer tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FactError, LobsterError, ResolutionError
from repro.interning import SymbolTable
from repro.provenance import create
from repro.runtime.database import Database
from repro.runtime.table import Table

INT2 = (np.dtype(np.int64), np.dtype(np.int64))


def unit_provenance():
    provenance = create("unit")
    provenance.setup(np.zeros(0))
    return provenance


class TestTable:
    def test_from_rows(self):
        provenance = unit_provenance()
        table = Table.from_rows([(1, 2), (3, 4)], INT2, provenance.one_tags(2))
        assert table.n_rows == 2 and table.arity == 2
        assert table.rows() == [(1, 2), (3, 4)]

    def test_empty(self):
        table = Table.empty(INT2, unit_provenance())
        assert table.is_empty() and table.arity == 2

    def test_from_rows_empty_and_mixed_dtypes(self):
        provenance = unit_provenance()
        empty = Table.from_rows([], INT2, provenance.one_tags(0))
        assert empty.is_empty() and empty.arity == 2
        mixed = Table.from_rows(
            [(1, 0.5), (2, 1.5)],
            (np.dtype(np.int64), np.dtype(np.float64)),
            provenance.one_tags(2),
        )
        assert mixed.rows() == [(1, 0.5), (2, 1.5)]
        assert mixed.columns[0].dtype == np.int64
        assert mixed.columns[1].dtype == np.float64

    def test_from_rows_vectorized_beats_per_cell_loop(self):
        """Micro-benchmark: the per-column ``np.fromiter`` construction
        must beat the historical per-cell Python double loop.  Best-of-3
        each, and only a >= 1.2x bar, so scheduler noise cannot flake the
        assertion while a regression back to per-cell writes still fails.
        """
        import time

        def naive(rows, dtypes):
            columns = [np.empty(len(rows), dtype=dt) for dt in dtypes]
            for j in range(len(dtypes)):
                for i, row in enumerate(rows):
                    columns[j][i] = row[j]
            return columns

        provenance = unit_provenance()
        rows = [(i, i * 2, i % 7) for i in range(120_000)]
        dtypes = (np.dtype(np.int64),) * 3
        tags = provenance.one_tags(len(rows))

        def best_of(fn, n=3):
            times = []
            for _ in range(n):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        fast = best_of(lambda: Table.from_rows(rows, dtypes, tags))
        slow = best_of(lambda: naive(rows, dtypes))
        assert fast * 1.2 < slow, (
            f"vectorized from_rows ({fast:.4f}s) should beat the "
            f"per-cell loop ({slow:.4f}s)"
        )
        # And it still builds the same table.
        table = Table.from_rows(rows[:5], dtypes, provenance.one_tags(5))
        assert table.rows() == rows[:5]

    def test_take(self):
        provenance = unit_provenance()
        table = Table.from_rows([(1, 2), (3, 4), (5, 6)], INT2, provenance.one_tags(3))
        taken = table.take(np.array([2, 0]))
        assert taken.rows() == [(5, 6), (1, 2)]

    def test_concat(self):
        provenance = unit_provenance()
        a = Table.from_rows([(1, 2)], INT2, provenance.one_tags(1))
        b = Table.from_rows([(3, 4)], INT2, provenance.one_tags(1))
        merged = Table.concat([a, b], INT2, provenance)
        assert merged.rows() == [(1, 2), (3, 4)]

    def test_concat_empty_list(self):
        merged = Table.concat([], INT2, unit_provenance())
        assert merged.is_empty()

    def test_nbytes(self):
        provenance = unit_provenance()
        table = Table.from_rows([(1, 2)], INT2, provenance.one_tags(1))
        assert table.nbytes() == 16 + 1  # two int64 + one unit tag

    def test_float_columns(self):
        provenance = unit_provenance()
        dtypes = (np.dtype(np.float64),)
        table = Table.from_rows([(1.5,), (2.5,)], dtypes, provenance.one_tags(2))
        assert table.rows() == [(1.5,), (2.5,)]


class TestDatabase:
    def make(self):
        return Database({"edge": INT2}, create("minmaxprob"))

    def test_fact_ids_contiguous(self):
        db = self.make()
        first = db.add_facts("edge", [(0, 1), (1, 2)], probs=[0.5, 0.6])
        second = db.add_facts("edge", [(2, 3)], probs=[0.7])
        assert first.tolist() == [0, 1]
        assert second.tolist() == [2]

    def test_discrete_facts_get_minus_one(self):
        db = self.make()
        ids = db.add_facts("edge", [(0, 1)])
        assert ids.tolist() == [-1]

    def test_exclusive_group_assignment(self):
        db = self.make()
        db.add_facts("edge", [(0, 1), (0, 2)], probs=[0.5, 0.5], exclusive=True)
        db.add_facts("edge", [(1, 2)], probs=[0.9])
        db.finalize()
        assert db.exclusion_groups.tolist() == [0, 0, -1]

    def test_shared_group_across_calls(self):
        db = self.make()
        group = db.new_exclusion_group()
        db.add_facts("edge", [(0, 1)], probs=[0.5], group=group)
        db.add_facts("edge", [(0, 2)], probs=[0.5], group=group)
        db.finalize()
        assert db.exclusion_groups.tolist() == [group, group]

    def test_finalize_binds_provenance(self):
        db = self.make()
        db.add_facts("edge", [(0, 1)], probs=[0.25])
        db.finalize()
        assert db.provenance.input_probs.tolist() == [0.25]
        table = db.result("edge")
        assert db.provenance.prob(table.tags).tolist() == [0.25]

    def test_add_after_finalize_marks_pending_delta(self):
        db = self.make()
        db.add_facts("edge", [(0, 1)])
        db.finalize()
        assert not db.has_pending_facts
        db.add_facts("edge", [(1, 2)])
        assert db.has_pending_facts
        db.finalize()  # folds the delta into the stored relation
        assert not db.has_pending_facts
        assert sorted(db.result("edge").rows()) == [(0, 1), (1, 2)]
        assert db.relation("edge").n_recent() == 1  # only the new row

    def test_unknown_relation_rejected(self):
        db = self.make()
        with pytest.raises(ResolutionError):
            db.relation("nope")

    def test_schema_inference_for_new_relations(self):
        db = self.make()
        db.add_facts("score", [(1, 0.5)])
        assert db.schemas["score"] == (np.dtype(np.int64), np.dtype(np.float64))

    def test_probs_length_mismatch(self):
        db = self.make()
        with pytest.raises(ValueError) as raised:
            db.add_facts("edge", [(0, 1)], probs=[0.5, 0.6])
        assert isinstance(raised.value, FactError)
        assert isinstance(raised.value, LobsterError)
        assert "'edge'" in str(raised.value)

    @pytest.mark.parametrize(
        "probs, index",
        [
            ([0.5, "x"], 1),
            ([0.5, "0.5"], 1),
            ([0.5, None], 1),
            ([float("nan"), 0.5], 0),
            ([0.5, 1.5], 1),
            ([-0.5, 0.5], 0),
            ([0.5, float("inf")], 1),
            (np.array([0.5, -np.inf]), 1),
            (np.array([0.5, np.nan], dtype=np.float32), 1),
        ],
    )
    def test_bad_probs_rejected_before_anything_is_stored(self, probs, index):
        """Every prob is a number in [0, 1], checked before any row is
        stored — a failed call leaves no half-stored row behind."""
        db = self.make()
        version = db.version
        with pytest.raises(FactError, match=rf"'edge'.*prob {index}\b"):
            db.add_facts("edge", [(0, 1), (1, 2)], probs=probs)
        assert db.version == version and not db.has_pending_facts
        assert db.add_facts("edge", [(2, 3)], probs=[0.9]).tolist() == [0]

    def test_failed_probs_call_leaves_later_facts_correct(self):
        """A rejected call once stored ``(0, 1)`` and half of ``(1, 2)``,
        so the next call's prob landed on ``path(1, 2)``."""
        from repro import LobsterEngine

        engine = LobsterEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            provenance="minmaxprob",
        )
        db = engine.create_database()
        with pytest.raises(ValueError):  # FactError is a ValueError
            db.add_facts("edge", [(0, 1), (1, 2)], probs=[0.5, "x"])
        db.add_facts("edge", [(2, 3)], probs=[0.9])
        engine.run(db)
        assert engine.query_probs(db, "path") == {(2, 3): pytest.approx(0.9)}

    def test_boundary_and_numeric_probs_accepted(self):
        db = self.make()
        probs = [0.0, 1, np.float32(0.25), True]
        db.add_facts("edge", [(0, 1), (1, 2), (2, 3), (3, 4)], probs=probs)
        db.add_facts("edge", [(4, 5)], probs=np.array([0.5], dtype=np.float32))
        db.finalize()
        assert db.input_probs.tolist() == [0.0, 1.0, 0.25, 1.0, 0.5]

    def assert_rejected(self, db, rows, index):
        """``rows`` raise FactError at add_facts naming the relation, its
        arity and the offending row, and nothing is stored."""
        version = db.version
        with pytest.raises(FactError, match=rf"'edge'.* 2 .*row {index}\b"):
            db.add_facts("edge", rows)
        assert db.version == version and not db.has_pending_facts

    def test_extra_cells_rejected_not_dropped(self):
        self.assert_rejected(self.make(), [(0, 1), (1, 2, 3)], 1)

    def test_short_row_rejected_at_add_time(self):
        self.assert_rejected(self.make(), [(0, 1), ()], 1)
        self.assert_rejected(self.make(), [(0, 1), 7], 1)

    def test_non_numeric_cell_rejected_at_add_time(self):
        self.assert_rejected(self.make(), [(0, 1), (2, 3), (4, "x")], 2)

    def test_array_rows_checked_by_shape(self):
        db = self.make()
        self.assert_rejected(db, np.arange(6).reshape(2, 3), 0)
        self.assert_rejected(db, np.arange(4), 0)
        db.add_facts("edge", np.arange(4).reshape(2, 2))
        db.add_facts("edge", [(np.int32(7), np.int16(8))])  # any numeric scalar
        db.finalize()
        assert sorted(db.result("edge").rows()) == [(0, 1), (2, 3), (7, 8)]

    def test_float_cells_into_an_int_column_rejected_not_truncated(self):
        with pytest.raises(FactError, match=r"'edge'.*row 1\b.*column 1"):
            self.make().add_facts("edge", [(0, 1), (1, 2.5)])
        self.assert_rejected(self.make(), [(0, np.float64(1.0))], 0)
        self.assert_rejected(self.make(), np.array([[1.5, 2.0], [2.5, 3.0]]), 0)

    def test_int_above_int64_rejected_at_add_time(self):
        with pytest.raises(FactError, match=r"'edge'.*row 1\b.*column 0.*int64"):
            self.make().add_facts("edge", [(0, 1), (2**63, 1)])
        self.assert_rejected(self.make(), [(0, 1), (1, -(2**63) - 1)], 1)
        big = np.array([[0, 1], [1, 2], [2**63, 3]], dtype=np.uint64)
        self.assert_rejected(self.make(), big, 2)

    @pytest.mark.parametrize(
        "rows", [[(1.7,), (2.2,)], np.array([[1.5], [2.5]]), [(2**63,)]]
    )
    def test_declared_i32_relation_rejects_what_it_cannot_hold(self, rows):
        """Through the engine, against a declared ``i32`` column: these
        once answered ``[(1,), (2,)]`` or crashed inside ``run()``."""
        from repro import LobsterEngine

        engine = LobsterEngine("type q(i32)\nrel p(a) = q(a)")
        db = engine.create_database()
        with pytest.raises(FactError, match=r"'q'.*row 0\b.*column 0"):
            db.add_facts("q", rows)
        assert not db.has_pending_facts
        engine.run(db)
        assert db.result("p").rows() == []

    def test_float_columns_take_ints_and_floats(self):
        db = self.make()
        db.schemas["score"] = (np.dtype(np.int64), np.dtype(np.float64))
        db.add_facts("score", [(1, 0.5), (2, 3), (np.int8(3), np.float32(0.25))])
        with pytest.raises(FactError, match=r"'score'.*row 0\b.*column 0"):
            db.add_facts("score", [(1.5, 0.5)])
        db.finalize()
        assert sorted(db.result("score").rows()) == [(1, 0.5), (2, 3.0), (3, 0.25)]

    def test_empty_call_pins_no_schema_for_an_undeclared_relation(self):
        db = self.make()
        assert db.add_facts("score", []).tolist() == []
        assert "score" not in db.schemas
        db.add_facts("score", [(1, 0.5)])
        db.finalize()
        assert db.result("score").rows() == [(1, 0.5)]

    def test_ragged_rows_rejected_while_inferring_a_schema(self):
        db = self.make()
        with pytest.raises(FactError, match=r"'score'.* 2 .*row 1\b"):
            db.add_facts("score", [(1, 0.5), (2,)])
        assert "score" not in db.schemas

    def test_duplicate_input_facts_oplus(self):
        db = self.make()
        db.add_facts("edge", [(0, 1), (0, 1)], probs=[0.3, 0.8])
        db.finalize()
        rows, probs = db.result_probs("edge")
        assert rows == [(0, 1)]
        assert probs[0] == pytest.approx(0.8)  # minmaxprob oplus = max


class TestSymbolTable:
    def test_roundtrip(self):
        table = SymbolTable()
        a = table.intern("alice")
        b = table.intern("bob")
        assert table.intern("alice") == a
        assert table.lookup(b) == "bob"
        assert "alice" in table and len(table) == 2

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            SymbolTable().lookup(0)

    def test_iteration_order(self):
        table = SymbolTable(["x", "y"])
        assert list(table) == ["x", "y"]
        assert table.id_of("y") == 1

    def test_intern_all(self):
        table = SymbolTable()
        assert table.intern_all(["a", "b", "a"]) == [0, 1, 0]
