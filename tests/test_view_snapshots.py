"""NaN facts under retraction, and the arrays a view snapshot holds.

* A fact whose row holds NaN can be retracted, pending or loaded: the
  database matches instances under the engine's row equality (NaN equals
  NaN, as in deduplication), not Python tuple equality, under which a
  fresh ``float('nan')`` never equals the stored one.  The DRed restage
  and re-derive steps match the same way.  Each case is checked against
  a cold evaluation of the surviving facts.
* A view over a relation holding a NaN row does not report that row on
  ticks that leave it alone; retracting its fact reports it once; and
  replaying the view's history lands on the view's state.
* A view holds the previous tick's ``full`` arrays by reference, so the
  stored relation must never write into an array it handed out:
  ``advance`` (hit-only merge with improved tags, splice, both),
  ``remove_rows`` and ``set_facts`` leave the old arrays byte-identical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import LobsterEngine, MaterializedView
from repro.provenance import create
from repro.runtime.relation import StoredRelation
from repro.runtime.table import Table, row_key
from repro.stream.window import TickDelta

NAN = math.nan
COPY = "type e(f64)\nrel p(x) = e(x)\nquery p"
#: ``e`` is both an input and derived from ``f``: retracting ``f(nan)``
#: dooms ``e(nan)``, whose own input instance must then be restaged.
RESTAGE = "type e(f64)\ntype f(f64)\nrel e(x) = f(x)\nrel p(x) = e(x)\nquery p"
#: ``p(nan)`` has two derivations: retracting ``e(nan)`` dooms it, and
#: the re-derive step must find it again through ``f(nan)``.
REDERIVE = "type e(f64)\ntype f(f64)\nrel p(x) = e(x) or f(x)\nquery p"


def keyed(state: dict) -> dict:
    """A row -> prob map keyed under the engine's row equality, so maps
    holding NaN rows compare."""
    return {row_key(row): prob for row, prob in state.items()}


def same_probs(left: dict, right: dict) -> bool:
    """Same rows, every probability equal (``reference.same_probs`` of
    the end-to-end benchmark at ``tol=0``)."""
    return left.keys() == right.keys() and all(left[row] == right[row] for row in left)


def cold(source: str, facts: dict) -> dict:
    """``p`` from a fresh evaluation of ``facts`` (relation -> pairs)."""
    engine = LobsterEngine(source, provenance="minmaxprob")
    database = engine.create_database()
    for relation, pairs in facts.items():
        database.add_facts(relation, [row for row, _ in pairs], probs=[p for _, p in pairs])
    engine.run(database)
    return engine.query_probs(database, "p")


class TestNaNRetraction:
    FACTS = {"e": [((NAN,), 0.5), ((1.0,), 0.6)]}

    def database(self, source=COPY, facts=None):
        engine = LobsterEngine(source, provenance="minmaxprob")
        database = engine.create_database()
        for relation, pairs in (facts or self.FACTS).items():
            database.add_facts(
                relation, [row for row, _ in pairs], probs=[p for _, p in pairs]
            )
        return engine, database

    def test_loaded_nan_fact_is_retracted(self):
        engine, database = self.database()
        engine.run(database)
        assert database.retract_facts("e", [(float("nan"),)]) == 1
        engine.run(database)
        assert engine.query_probs(database, "p") == cold(COPY, {"e": [((1.0,), 0.6)]})

    def test_pending_nan_fact_is_retracted(self):
        engine, database = self.database()
        assert database.retract_facts("e", [(float("nan"),)]) == 1
        engine.run(database)
        assert engine.query_probs(database, "p") == cold(COPY, {"e": [((1.0,), 0.6)]})

    def test_nan_fact_survives_retracting_another(self):
        engine, database = self.database()
        engine.run(database)
        assert database.retract_facts("e", [(1.0,)]) == 1
        engine.run(database)
        assert keyed(engine.query_probs(database, "p")) == keyed(
            cold(COPY, {"e": [((NAN,), 0.5)]})
        )

    def test_doomed_nan_row_with_a_surviving_input_is_restaged(self):
        facts = {"e": [((NAN,), 0.5), ((1.0,), 0.6)], "f": [((NAN,), 0.9)]}
        engine, database = self.database(RESTAGE, facts)
        engine.run(database)
        assert database.retract_facts("f", [(float("nan"),)]) == 1
        result = engine.run(database)
        assert result.maintained
        assert keyed(engine.query_probs(database, "p")) == keyed(
            cold(RESTAGE, {"e": facts["e"]})
        )

    def test_doomed_nan_row_with_another_derivation_is_rederived(self):
        facts = {"e": [((NAN,), 0.5), ((1.0,), 0.6)], "f": [((NAN,), 0.4), ((1.0,), 0.3)]}
        engine, database = self.database(REDERIVE, facts)
        engine.run(database)
        assert database.retract_facts("e", [(float("nan"),), (1.0,)]) == 2
        result = engine.run(database)
        assert result.maintained
        assert keyed(engine.query_probs(database, "p")) == keyed(
            cold(REDERIVE, {"f": facts["f"]})
        )


def tick(number: int, inserts=None, retracts=None) -> TickDelta:
    delta = TickDelta(number)
    for relation, pairs in (inserts or {}).items():
        delta.inserts[relation] = ([row for row, _ in pairs], [p for _, p in pairs])
    delta.retracts.update(retracts or {})
    return delta


def test_nan_row_does_not_churn_the_view():
    view = MaterializedView(LobsterEngine(COPY, provenance="minmaxprob"))
    subscription = view.subscribe()
    first = view.apply(tick(0, {"e": [((NAN,), 0.5), ((1.0,), 0.6)]}))
    assert [row for row, _ in first.inserted["p"] if math.isnan(row[0])]
    unrelated = [
        view.apply(tick(1, {"e": [((2.0,), 0.7)]})),
        view.apply(tick(2, retracts={"e": [(2.0,)]})),
        view.apply(tick(3, {"e": [((1.0,), 0.9)]})),
    ]
    for delta in unrelated:
        named = delta.inserted.get("p", []) + delta.retracted.get("p", [])
        assert not [row for row, _ in named if math.isnan(row[0])], delta
        assert delta.change_count() == len(named) <= 2
    assert keyed(subscription.replay()["p"]) == keyed(view.result("p"))

    gone = view.apply(tick(4, retracts={"e": [(float("nan"),)]}))
    assert gone.inserted == {}
    assert [(math.isnan(row[0]), prob) for row, prob in gone.retracted["p"]] == [(True, 0.5)]
    assert same_probs(subscription.replay()["p"], view.result("p"))
    assert view.result("p") == {(1.0,): 0.9}


# ----------------------------------------------------------------------
# Copy-on-write: arrays handed out by a relation never change


def relation(rows, probs) -> StoredRelation:
    stored = StoredRelation("r", (np.dtype(np.int64), np.dtype(np.int64)), create("minmaxprob"))
    stored.set_facts(table(rows, probs))
    return stored


def table(rows, probs) -> Table:
    return Table(
        [np.array([row[j] for row in rows], dtype=np.int64) for j in range(2)],
        np.array(probs, dtype=np.float64),
        len(rows),
    )


def held(stored: StoredRelation):
    """The arrays of ``full`` a view would hold, with their bytes now."""
    arrays = [*stored.full.columns, stored.full.tags]
    return arrays, [array.tobytes() for array in arrays]


ROWS = [(0, 1), (1, 2), (2, 3), (5, 8)]
PROBS = [0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize(
    "rows, probs, grows, improves",
    [
        ([(1, 2), (5, 8)], [0.9, 0.7], False, True),  # hit-only merge
        ([(3, 4), (-1, 9)], [0.9, 0.7], True, False),  # splice
        ([(1, 2), (3, 4), (9, 0)], [0.9, 0.7, 0.2], True, True),  # both
    ],
    ids=["merge", "splice", "merge-and-splice"],
)
def test_advance_leaves_handed_out_arrays_alone(rows, probs, grows, improves):
    stored = relation(ROWS, PROBS)
    stored.locator()  # the cached index a view's diff uses
    arrays, before = held(stored)
    stored.begin_delta_tracking()
    stored.advance(table(rows, probs))
    spliced = stored.full.n_rows - len(ROWS)
    assert (spliced > 0, stored.n_changed() > spliced) == (grows, improves)
    assert [array.tobytes() for array in arrays] == before


def test_remove_rows_and_set_facts_leave_handed_out_arrays_alone():
    stored = relation(ROWS, PROBS)
    arrays, before = held(stored)
    stored.remove_rows(np.array([False, True, False, True]))
    assert stored.full.n_rows == 2
    assert [array.tobytes() for array in arrays] == before
    arrays, before = held(stored)
    stored.set_facts(table([(7, 7)], [0.3]))
    assert stored.full.rows() == [(7, 7)]
    assert [array.tobytes() for array in arrays] == before
