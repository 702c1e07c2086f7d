"""``StoredRelation.advance`` against the merge it replaced.

``advance`` locates each deduplicated delta row in a cached packed-key
index, ⊕-merges rows already stored where they sit and splices brand-new
rows in.  The oracle here is the body it had before — concatenate ``full``
with the delta, ``lex_rank`` all of it, group, gather — kept verbatim.
Generated operation sequences (five semirings, arity 0–3, negative values,
ranges that grow between calls, rows wider than 63 bits, float columns,
and ``remove_rows`` / ``begin_delta_tracking`` / ``set_facts`` /
``Database.from_state`` in between) must leave both relations bitwise
equal: columns, tags, ``recent_mask``, ``changed_mask``, the returned
frontier and ``nbytes()``.  Tables handed out earlier by
``Database.result`` and ``Database.state_dict`` must not change.

Also here: rows holding NaN deduplicate (all NaNs in a column are one
value), so a recursive rule over a NaN fact saturates.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LobsterEngine
from repro.gpu import kernels
from repro.provenance import create
from repro.runtime.database import Database
from repro.runtime.relation import StoredRelation
from repro.runtime.table import Table

INT, FLOAT = np.dtype(np.int64), np.dtype(np.float64)

SEMIRINGS = {
    "unit": {},
    "minmaxprob": {},
    "addmultprob": {},
    "diff-top-1-proofs": {"proof_capacity": 3},
}
# Input facts: 0.0 makes absorbing-zero tags under the prob semirings, and
# the exclusion groups make dead proofs under the proof semirings.  The
# last two change a stored tag without improving it (⊕ moves the tag by
# less than the saturation epsilon).
FACT_PROBS = np.array([0.9, 0.5, 0.0, 0.3, 1.0, 0.7, 1e-12, 0.3 + 5e-10])
FACT_GROUPS = np.array([0, 0, -1, 1, 1, -1, -1, -1])


class OracleRelation(StoredRelation):
    """A stored relation folding deltas in with the concat + ``lex_rank``
    merge ``advance`` used to run."""

    def advance(self, delta: Table) -> int:
        prov = self.provenance
        if len(self.changed_mask) != self.full.n_rows:
            self.changed_mask = np.zeros(self.full.n_rows, dtype=bool)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        delta = self._dedup(delta)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        if self.full.n_rows == 0:
            keep = ~prov.is_absorbing_zero(delta.tags)
            self.full = delta.take(np.flatnonzero(keep))
            self.recent_mask = np.ones(self.full.n_rows, dtype=bool)
            self.changed_mask = np.ones(self.full.n_rows, dtype=bool)
            return self.full.n_rows

        # Merge sorted full with sorted delta; an origin column (0 = old,
        # 1 = new) is the least significant sort key so the existing fact
        # leads each duplicate group.
        n_old, n_new = self.full.n_rows, delta.n_rows
        combined_cols = [
            np.concatenate([self.full.columns[j], delta.columns[j]])
            for j in range(self.arity)
        ]
        origin = np.concatenate(
            [np.zeros(n_old, dtype=np.int64), np.ones(n_new, dtype=np.int64)]
        )
        combined_tags = np.concatenate([self.full.tags, delta.tags])
        order = kernels.lex_rank(combined_cols + [origin])
        combined_cols = [c[order] for c in combined_cols]
        origin = origin[order]
        combined_tags = combined_tags[order]

        if self.arity == 0:
            is_first = np.zeros(n_old + n_new, dtype=bool)
            if n_old + n_new:
                is_first[0] = True
        else:
            is_first = kernels.row_group_boundaries(combined_cols)
        segment_ids = np.cumsum(is_first) - 1
        nseg = int(segment_ids[-1]) + 1 if len(segment_ids) else 0
        firsts = np.flatnonzero(is_first)

        has_old = origin[firsts] == 0

        # ``_dedup`` already ⊕-combined the delta, so a segment holds at
        # most one new row: its tag is the segment's new tag as it stands.
        new_rows = np.flatnonzero(origin == 1)
        seg_has_new = np.zeros(nseg, dtype=bool)
        seg_has_new[segment_ids[new_rows]] = True
        # Dense renumbering of segments that contain new rows.
        dense_of_seg = np.cumsum(seg_has_new) - 1
        combined_new = combined_tags[new_rows]

        out_tags = combined_tags[firsts]
        improved = ~has_old & seg_has_new  # brand-new facts
        both = has_old & seg_has_new
        if both.any():
            merged, tag_improved = prov.merge_existing(
                combined_tags[firsts[both]], combined_new[dense_of_seg[both]]
            )
            out_tags[both] = merged
            improved[both] = tag_improved
        pure_new = ~has_old
        if pure_new.any():
            out_tags[pure_new] = combined_new[dense_of_seg[pure_new]]

        # Drop brand-new facts whose tag is the absorbing zero.
        keep = np.ones(nseg, dtype=bool)
        zero = prov.is_absorbing_zero(out_tags)
        keep[pure_new & zero] = False

        # Carry each surviving old row's ``changed`` flag through the
        # merge (row positions shift as new facts interleave), then fold
        # this advance's improvements in.
        changed = np.zeros(nseg, dtype=bool)
        old_rows = order[firsts[has_old]]  # positions < n_old by sort order
        changed[has_old] = self.changed_mask[old_rows]
        changed |= improved

        kept = np.flatnonzero(keep)
        self.full = Table(
            [c[firsts[kept]] for c in combined_cols],
            out_tags[kept],
            len(kept),
        )
        self.recent_mask = improved[kept]
        self.changed_mask = changed[kept]
        return int(self.recent_mask.sum())


# -- generated operation sequences ------------------------------------------

FLOATS = st.one_of(
    st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0, 1e300, -math.inf, math.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def scenarios(draw):
    """(semiring, dtypes, ops).  Each op is ``(kind, payload)``; delta
    rows carry ``(fact a, fact b or None)`` tag recipes."""
    semiring = draw(st.sampled_from(sorted(SEMIRINGS)))
    arity = draw(st.integers(0, 3))
    dtypes = tuple(draw(st.sampled_from([INT, INT, FLOAT])) for _ in range(arity))
    tag_recipe = st.tuples(
        st.integers(-1, len(FACT_PROBS) - 1),
        st.none() | st.integers(-1, len(FACT_PROBS) - 1),
    )
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(
            st.sampled_from(
                ["advance"] * 5 + ["remove", "track", "set", "restore"]
            )
        )
        if kind in ("advance", "set"):
            # Spreads grow across a sequence, so a later delta can leave
            # the ranges the cached keys were packed under; 2**61 makes
            # rows of two or more int columns wider than 63 bits.
            spread = draw(st.sampled_from([2, 3, 40, 2**20, 2**61]))
            cell = {INT: st.integers(-spread, spread), FLOAT: FLOATS}
            rows = draw(
                st.lists(
                    st.tuples(*(cell[dt] for dt in dtypes), tag_recipe),
                    max_size=10,
                )
            )
            ops.append((kind, rows))
        elif kind == "remove":
            ops.append((kind, draw(st.lists(st.booleans(), min_size=1, max_size=12))))
        else:
            ops.append((kind, None))
    return semiring, dtypes, ops


def make_delta(rows, dtypes, provenance) -> Table:
    if not rows:
        return Table.empty(dtypes, provenance)
    first = provenance.input_tags(np.array([a for *_, (a, _) in rows]))
    tags = first.copy()
    paired = [i for i, (*_, (_, b)) in enumerate(rows) if b is not None]
    if paired:
        second = provenance.input_tags(np.array([rows[i][-1][1] for i in paired]))
        tags[paired] = provenance.otimes(first[paired], second)
    return Table.from_rows([row[:-1] for row in rows], dtypes, tags)


def table_bits(table: Table) -> tuple:
    return (
        table.n_rows,
        tuple((c.dtype.str, c.tobytes()) for c in table.columns),
        (table.tags.dtype.str, table.tags.tobytes()),
    )


def fingerprint(relation: StoredRelation) -> tuple:
    """Every bit of a relation's observable state."""
    return (
        *table_bits(relation.full),
        relation.recent_mask.tobytes(),
        relation.changed_mask.tobytes(),
        relation.nbytes(),
    )


def held_bytes(database: Database, name: str) -> tuple:
    """What an earlier ``result()`` and ``state_dict()`` hold, and the
    bytes they held at the time."""
    result = database.result(name)
    state = database.state_dict()["relations"][name]
    arrays = [*result.columns, result.tags, *state["columns"], state["tags"],
              state["recent_mask"], state["changed_mask"]]
    return arrays, [a.tobytes() for a in arrays]


def restored(relation: StoredRelation, cls) -> StoredRelation:
    """``relation`` round-tripped through ``Database.state_dict`` and
    ``Database.from_state``, as an instance of ``cls``."""
    database = Database({relation.name: relation.dtypes}, relation.provenance)
    database.relations[relation.name] = relation
    back = Database.from_state(database.state_dict(), relation.provenance)
    rel = back.relations[relation.name]
    if cls is not StoredRelation:
        out = cls(rel.name, rel.dtypes, rel.provenance)
        out.full, out.recent_mask, out.changed_mask = rel.full, rel.recent_mask, rel.changed_mask
        rel = out
    return rel


@given(scenarios())
@settings(max_examples=300, deadline=None)
@example(
    ("unit", (INT, INT), [
        ("advance", [(0, 5, (-1, None)), (2, -2**61, (-1, None))]),
        ("advance", [(1, 2**61, (-1, None)), (0, 5, (-1, None))]),
    ])
)
@example(
    ("minmaxprob", (INT,), [
        ("advance", [(3, (0, None)), (9, (2, None))]),
        ("track", None),
        ("advance", [(-7, (3, None)), (3, (1, 5)), (12, (4, None))]),
        ("remove", [True, False]),
        ("advance", [(12, (0, None)), (100, (5, None))]),
    ])
)
@example(
    ("minmaxprob", (INT, INT), [
        ("advance", [(1, 1, (3, None)), (2, 2, (1, None))]),
        ("track", None),
        ("advance", [(1, 1, (0, None))]),
        ("advance", [(2, 2, (4, None)), (1, 1, (6, None))]),
    ])
)
@example(
    ("diff-top-1-proofs", (FLOAT, INT), [
        ("set", [(-0.0, 1, (0, 1)), (0.0, 1, (3, None)), (2.5, -1, (5, 0))]),
        ("restore", None),
        ("advance", [(0.0, 1, (4, None)), (-math.inf, 0, (1, None))]),
    ])
)
def test_advance_matches_concat_and_rank_oracle(scenario):
    semiring, dtypes, ops = scenario
    provenance = create(semiring, **SEMIRINGS[semiring])
    provenance.setup(FACT_PROBS, FACT_GROUPS)
    relation = StoredRelation("r", dtypes, provenance)
    oracle = OracleRelation("r", dtypes, provenance)
    for kind, payload in ops:
        database = Database({"r": dtypes}, provenance)
        database.relations["r"] = relation
        arrays, before = held_bytes(database, "r")
        got = expected = None
        if kind == "advance":
            delta = make_delta(payload, dtypes, provenance)
            got, expected = relation.advance(delta), oracle.advance(delta)
        elif kind == "set":
            delta = make_delta(payload, dtypes, provenance)
            relation.set_facts(delta)
            oracle.set_facts(delta)
        elif kind == "remove":
            mask = np.resize(np.array(payload), relation.full.n_rows)
            got, expected = relation.remove_rows(mask), oracle.remove_rows(mask)
            got, expected = table_bits(got), table_bits(expected)
        elif kind == "track":
            relation.begin_delta_tracking()
            oracle.begin_delta_tracking()
        else:
            relation = restored(relation, StoredRelation)
            oracle = restored(oracle, OracleRelation)
        assert got == expected
        assert fingerprint(relation) == fingerprint(oracle)
        assert [a.tobytes() for a in arrays] == before
        index = relation.locator()
        if index.keys is not None:
            # The cached keys index ``full`` exactly as a fresh pack would.
            columns = relation.full.columns
            assert kernels.pack_params(columns, index.params) == index.params
            assert np.array_equal(index.keys, kernels.pack_keys(columns, index.params))


def test_keys_are_spliced_and_repacked_only_when_a_range_grows(monkeypatch):
    provenance = create("unit")
    relation = StoredRelation("r", (INT, INT), provenance)
    packed_rows = []
    pack_keys = kernels.pack_keys

    def counting(columns, params):
        packed_rows.append(len(columns[0]))
        return pack_keys(columns, params)

    monkeypatch.setattr(kernels, "pack_keys", counting)

    def advance(rows):
        packed_rows.clear()
        relation.advance(Table.from_rows(rows, (INT, INT), provenance.one_tags(len(rows))))
        return list(packed_rows)

    # Each advance packs its delta twice: to sort it (``dedup_table``) and
    # to locate it; ``full`` is packed only when a range grows.
    assert advance([(0, 0), (9, 9), (4, 4)]) == [3, 0, 3]  # ``full`` empty
    assert advance([(5, 1), (4, 4), (0, 0)]) == [3, 3]  # inside the ranges
    index = relation.locator()
    assert index is relation.locator()
    assert advance([(-3, 2)]) == [1, 4, 1]  # below column 0's range
    assert np.array_equal(
        relation.locator().keys, pack_keys(relation.full.columns, relation.locator().params)
    )
    relation.remove_rows(np.array([True, False, False, False, False]))
    assert relation.locator() is not index and packed_rows == [1, 4, 1, 4]


def test_warm_advance_leaves_an_earlier_result_unchanged():
    """An engine's second run (facts added after the first) folds rows
    into relations whose earlier ``result()`` tables the caller holds."""
    engine = LobsterEngine(
        "type edge(i64, i64)\n"
        "rel path(a, b) :- edge(a, b).\n"
        "rel path(a, c) :- path(a, b), edge(b, c).\n",
        provenance="minmaxprob",
    )
    database = engine.create_database()
    database.add_facts("edge", [(0, 1), (1, 2), (5, 6)], probs=[0.5, 0.5, 0.9])
    engine.run(database)
    held = database.result("path")
    before = held.rows(), held.tags.tobytes()
    database.add_facts("edge", [(2, 3), (0, 1), (-4, 0)], probs=[0.8, 0.9, 0.4])
    engine.run(database)
    assert (held.rows(), held.tags.tobytes()) == before
    rows = set(database.result("path").rows())
    assert {(-4, 3), (0, 3), (5, 6)} <= rows and len(rows) > len(before[0])


# -- NaN rows ---------------------------------------------------------------

NAN_PROGRAM = (
    "type f(f64)\n"
    "type g(f64)\n"
    "rel g(x) :- f(x).\n"
    "rel g(x) :- g(x).\n"
)


class TestNaNRows:
    def test_nan_facts_deduplicate(self):
        engine = LobsterEngine(NAN_PROGRAM, provenance="unit")
        database = engine.create_database()
        database.add_facts("f", [(math.nan,), (math.nan,), (1.0,)])
        database.finalize()
        rows = database.result("f").rows()
        assert len(rows) == 2
        assert rows[0] == (1.0,) and math.isnan(rows[1][0])

    def test_recursive_rule_over_nan_saturates(self):
        engine = LobsterEngine(NAN_PROGRAM, provenance="unit", max_iterations=12)
        database = engine.create_database()
        database.add_facts("f", [(math.nan,)])
        engine.run(database)  # raised ExecutionError: 12 copies of (nan,)
        rows = database.result("g").rows()
        assert len(rows) == 1 and math.isnan(rows[0][0])

    def test_nan_groups_with_its_column_only(self):
        """All NaNs of one column are one value; ``-0.0`` stays ``0.0``."""
        columns = [
            np.array([0.0, -0.0, 1.0, math.nan, -math.nan, math.nan]),
            np.array([7, 7, 7, 1, 1, 2]),
        ]
        firsts = kernels.row_group_boundaries(columns)
        assert firsts.tolist() == [True, False, True, True, False, True]

    def test_nan_rows_merge_into_stored_relation(self):
        provenance = create("minmaxprob")
        provenance.setup(np.array([0.2, 0.6]))
        relation = StoredRelation("r", (FLOAT, INT), provenance)
        relation.advance(
            Table.from_rows([(math.nan, 1), (0.5, 1)], (FLOAT, INT),
                            provenance.input_tags(np.array([0, 0])))
        )
        frontier = relation.advance(
            Table.from_rows([(-math.nan, 1), (math.nan, 2)], (FLOAT, INT),
                            provenance.input_tags(np.array([1, 1])))
        )
        assert relation.n_facts() == 3 and frontier == 2
        assert relation.full.tags.tolist() == [0.2, 0.6, 0.6]

