"""Folded micro-batches (§4.3 under the serve path) against solo runs.

``LobsterSession.run_batch`` folds a batch of two or more cold databases
into one batched fix point when the semiring's tags do not name input
facts: the members' loaded relations are stacked behind a sample-id
column, the program's batched twin runs once, and every derived relation
is sliced back.  The oracle is each database run alone on a fresh
engine:

* every member's ``Database.state_dict()`` — columns, tags, ``recent``
  and ``changed`` masks, fact log — is bitwise the solo run's, and so is
  the state after a follow-on ``add_facts`` + incremental run and a
  ``retract_facts`` + maintain run (generated request mixes over TC,
  CSPA and a program with inline fact blocks, empty members included);
* proof and gradient semirings, warm databases, single-member batches,
  a repeated database and a program whose rewrite is refused run back to
  back (one engine run per member);
* a fold that does not fit the device re-runs its members back to back,
  with the outcomes and results of a scheduler that never folds, and a
  trace holding the reruns where the outcomes put them and one
  ``fold.fallback`` instant, not the abandoned fold;
* on the serve clock a folded batch finishes together and charges each
  member an equal share of the one run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    DevicePool,
    LobsterEngine,
    LobsterSession,
    ProgramCache,
    Request,
    Scheduler,
    SLOClass,
    VirtualDevice,
)
from repro.obs import Tracer, validate_trace_events
from repro.provenance import registry
from repro.workloads.analytics import CSPA

from _helpers import TC_PROGRAM

FACT_BLOCKS = """
rel hit() :- reach(x), label("stop", x).
rel label = {("start", 0), ("stop", 3)}
rel edge = {(0, 1), (1, 2)}
rel reach(x) :- label("start", x).
rel reach(y) :- reach(x), edge(x, y).
rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
"""

#: Program -> the two relations a generated member's two fact lists
#: land in.
PROGRAMS = {
    "tc": (TC_PROGRAM, ("edge", "edge")),
    "cspa": (CSPA, ("assign", "dereference")),
    "fact_blocks": (FACT_BLOCKS, ("edge", "edge")),
}

FACT = st.tuples(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
)
MEMBER = st.tuples(st.lists(FACT, max_size=7), st.lists(FACT, max_size=5))


def build(engine, source_relations, member):
    """A database of ``engine`` holding ``member``'s facts."""
    database = engine.create_database()
    for name, facts in zip(source_relations, member):
        if facts:
            database.add_facts(
                name, [row for row, _ in facts], probs=[p for _, p in facts]
            )
    return database


def assert_same_state(got, want):
    """``got`` and ``want`` hold bitwise the same database state."""
    got, want = got.state_dict(), want.state_dict()
    assert list(got["relations"]) == list(want["relations"])
    for name, relation in got["relations"].items():
        expected = want["relations"][name]
        assert relation["n_rows"] == expected["n_rows"], name
        assert len(relation["columns"]) == len(expected["columns"]), name
        for column, other in zip(relation["columns"], expected["columns"]):
            assert column.dtype == other.dtype, name
            assert column.tobytes() == other.tobytes(), name
        for part in ("tags", "recent_mask", "changed_mask"):
            assert relation[part].dtype == expected[part].dtype, (name, part)
            assert relation[part].tobytes() == expected[part].tobytes(), (name, part)
    for key in got:
        if key != "relations":
            assert got[key] == want[key], key


@pytest.fixture
def count_runs(monkeypatch):
    """Counts ``LobsterEngine.run`` calls: one per run, folded or not."""
    calls = []
    original = LobsterEngine.run

    def counting(self, database, **kwargs):
        calls.append(database)
        return original(self, database, **kwargs)

    monkeypatch.setattr(LobsterEngine, "run", counting)
    return calls


class TestFoldedMemberIsASoloRun:
    @settings(max_examples=30, deadline=None)
    @given(
        program=st.sampled_from(sorted(PROGRAMS)),
        provenance=st.sampled_from(["unit", "minmaxprob"]),
        members=st.lists(MEMBER, min_size=2, max_size=5),
    )
    @example(program="tc", provenance="unit", members=[([], []), ([], [])])
    @example(
        program="fact_blocks",
        provenance="minmaxprob",
        members=[([], []), ([((2, 3), 0.5)], [((3, 4), 0.9)]), ([], [((0, 1), 0.1)])],
    )
    def test_generated_batches(self, program, provenance, members):
        source, relations = PROGRAMS[program]
        engine = LobsterEngine(source, provenance=provenance, cache=ProgramCache())
        served = [build(engine, relations, member) for member in members]
        results = LobsterSession(engine).run_batch(served, retain=False)
        assert [result.fold_size for result in results] == [len(members)] * len(members)

        solo_engine = LobsterEngine(source, provenance=provenance, cache=False)
        solos = [build(solo_engine, relations, member) for member in members]
        for solo in solos:
            solo_engine.run(solo)
        for database, solo in zip(served, solos):
            assert_same_state(database, solo)

        # Follow-on runs on a served database are the solo database's.
        for database, solo, member in zip(served, solos, members):
            for target, runner in ((database, engine), (solo, solo_engine)):
                target.add_facts(relations[0], [(5, 6), (6, 0)], probs=[0.4, 0.6])
                assert runner.run(target).incremental
            assert_same_state(database, solo)
            retracted = [row for row, _ in member[0][:2]] + [(5, 6)]
            for target, runner in ((database, engine), (solo, solo_engine)):
                target.retract_facts(relations[0], retracted)
                assert runner.run(target).maintained
            assert_same_state(database, solo)

    @pytest.mark.parametrize("provenance", ["unit", "minmaxprob"])
    def test_float_rows_with_nan_and_signed_zero(self, provenance):
        source = (
            "type a(f64)\ntype b(f64)\n"
            "rel r(x) :- a(x), b(x).\nrel s(x) :- a(x), ~b(x).\n"
            "rel c(x) :- a(x).\nrel c(x) :- b(x)."
        )
        values = [0.0, -0.0, float("nan"), 1.0, 2.5]
        rng = np.random.default_rng(4)
        members = [
            [
                [((values[i],), 0.5) for i in rng.integers(0, 5, 3)]
                for _ in range(2)
            ]
            for _ in range(4)
        ]
        engine = LobsterEngine(source, provenance=provenance, cache=ProgramCache())
        served = [build(engine, ("a", "b"), member) for member in members]
        assert LobsterSession(engine).run_batch(served)[0].fold_size == 4
        solo_engine = LobsterEngine(source, provenance=provenance, cache=False)
        for database, member in zip(served, members):
            solo = build(solo_engine, ("a", "b"), member)
            solo_engine.run(solo)
            assert_same_state(database, solo)

    def test_addmultprob_folds_bitwise(self):
        # Tags are plain reals: a fold sums each row's derivations in
        # the solo order, so even ⊕ = + stays bitwise.
        source = "rel pair(x, y) :- a(x), b(y).\nrel s(x) :- pair(x, y)."
        rng = np.random.default_rng(2)
        members = [
            [
                [((int(v),), float(p)) for v, p in zip(rng.integers(0, 4, 4), rng.uniform(0.1, 0.9, 4))]
                for _ in range(2)
            ]
            for _ in range(3)
        ]
        engine = LobsterEngine(source, provenance="addmultprob", cache=ProgramCache())
        served = [build(engine, ("a", "b"), member) for member in members]
        assert LobsterSession(engine).run_batch(served)[0].fold_size == 3
        solo_engine = LobsterEngine(source, provenance="addmultprob", cache=False)
        for database, member in zip(served, members):
            solo = build(solo_engine, ("a", "b"), member)
            solo_engine.run(solo)
            assert_same_state(database, solo)

    def test_retained_batch_registers_its_results(self):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        session = LobsterSession(engine)
        databases = [build(engine, ("edge", "edge"), ([((0, 1), 1.0)], [])) for _ in range(3)]
        results = session.run_batch(databases)
        assert session.pending == [] and len(session) == 3
        assert [session.result(ticket) for ticket in range(3)] == results
        assert all(result.fold_size == 3 for result in results)


class TestFoldEligibility:
    def test_names_facts_is_pinned_for_every_semiring(self):
        names_facts = {
            name: registry.create(name).names_facts for name in registry.available()
        }
        assert names_facts == {
            "unit": False,
            "minmaxprob": False,
            "addmultprob": False,
            "prob-top-1-proofs": True,
            "diff-minmaxprob": True,
            "diff-addmultprob": True,
            "diff-top-1-proofs": True,
            "top-k-proofs": True,
        }

    @pytest.mark.parametrize(
        "provenance",
        ["prob-top-1-proofs", "diff-minmaxprob", "diff-addmultprob", "diff-top-1-proofs"],
    )
    def test_fact_naming_semirings_run_back_to_back(self, provenance, count_runs):
        # A DAG, so diff-addmultprob's sums saturate.
        members = [
            ([((0, 1), 0.5), ((1, 2), 0.7)], [((0, 2), 0.3)]),
            ([], []),
            ([((2, 3), 0.9), ((1, 3), 0.4)], [((0, 1), 0.2)]),
        ]
        engine = LobsterEngine(TC_PROGRAM, provenance=provenance, cache=ProgramCache())
        served = [build(engine, ("edge", "edge"), member) for member in members]
        results = LobsterSession(engine).run_batch(served)
        assert len(count_runs) == 3 and all(r.fold_size == 1 for r in results)
        solo_engine = LobsterEngine(TC_PROGRAM, provenance=provenance, cache=False)
        for database, member in zip(served, members):
            solo = build(solo_engine, ("edge", "edge"), member)
            solo_engine.run(solo)
            assert_same_state(database, solo)

    def test_warm_databases_run_back_to_back(self, count_runs):
        engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        session = LobsterSession(engine)
        served = [build(engine, ("edge", "edge"), ([((i, i + 1), 0.5)], [])) for i in range(3)]
        session.run_batch(served)
        assert len(count_runs) == 1  # the cold batch folded
        for database in served:
            database.add_facts("edge", [(7, 8)], probs=[0.6])
        results = session.run_batch(served)
        assert len(count_runs) == 4
        assert all(r.incremental and r.fold_size == 1 for r in results)
        # Staged retractions run back to back too.
        for database in served:
            database.retract_facts("edge", [(7, 8)])
        results = session.run_batch(served)
        assert len(count_runs) == 7 and all(r.maintained for r in results)
        solo_engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=False)
        for i, database in enumerate(served):
            solo = build(solo_engine, ("edge", "edge"), ([((i, i + 1), 0.5)], []))
            solo_engine.run(solo)
            solo.add_facts("edge", [(7, 8)], probs=[0.6])
            solo_engine.run(solo)
            solo.retract_facts("edge", [(7, 8)])
            solo_engine.run(solo)
            assert_same_state(database, solo)

    def test_single_member_and_repeated_database_run_back_to_back(self, count_runs):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        session = LobsterSession(engine)
        database = build(engine, ("edge", "edge"), ([((0, 1), 1.0)], []))
        assert session.run_batch([database])[0].fold_size == 1
        assert len(count_runs) == 1
        again = build(engine, ("edge", "edge"), ([((0, 1), 1.0)], []))
        results = session.run_batch([again, again])
        assert len(count_runs) == 3 and all(r.fold_size == 1 for r in results)
        assert_same_state(again, database)

    def test_refused_rewrite_runs_back_to_back_and_is_tried_once(self, count_runs, monkeypatch):
        # ``weight`` is typed only by its inline facts (f64), which the
        # sample-id rewrite does not see: its twin would type it i64.
        source = (
            "rel weight = {(0, 1.5), (1, 2.5)}\n"
            "rel heavy(x, w) :- weight(x, w), edge(x, y)."
        )
        cache = ProgramCache()
        batched_lookups = []
        original = ProgramCache.get_or_compile

        def counting(self, source, provenance, optimizations, batched=False):
            batched_lookups.append(batched)
            return original(self, source, provenance, optimizations, batched)

        monkeypatch.setattr(ProgramCache, "get_or_compile", counting)
        engine = LobsterEngine(source, cache=cache)
        session = LobsterSession(engine)
        for _ in range(2):
            served = [build(engine, ("edge", "edge"), ([((x, 0), 1.0)], [])) for x in (0, 1)]
            assert all(r.fold_size == 1 for r in session.run_batch(served))
            for database in served:
                assert database.result("heavy").columns[1].dtype == np.float64
        assert len(count_runs) == 4
        assert batched_lookups == [False, True]


def _requests(engine, n, arrival_s=0.0):
    rng = np.random.default_rng(8)
    requests = []
    for _ in range(n):
        edges = sorted({(int(a), int(b)) for a, b in rng.integers(0, 12, size=(20, 2)) if a != b})
        database = engine.create_database()
        database.add_facts("edge", edges, probs=[0.8] * len(edges))
        requests.append(Request(engine, database, arrival_s=arrival_s))
    return requests


def _classes(batch=4):
    return {
        "interactive": SLOClass(
            "interactive", deadline_s=1.0, max_batch_delay_s=1e-4,
            max_batch_size=batch, queue_limit=64, priority=0,
        )
    }


def _timeline(report):
    return [
        (o.ticket, o.status, o.start_s, o.finish_s, o.service_s, o.device_index, o.batch_size)
        for o in report.outcomes
    ]


class TestServeClock:
    def test_a_folded_batch_finishes_together_with_equal_shares(self):
        engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        pool = DevicePool(1)
        report = Scheduler(pool, classes=_classes()).run(_requests(engine, 8))
        assert report.completed == 8
        batches: dict[float, list] = {}
        for outcome in report.outcomes:
            batches.setdefault(outcome.start_s, []).append(outcome)
        assert sorted(len(batch) for batch in batches.values()) == [4, 4]
        for batch in batches.values():
            run_s = batch[0].result.service_seconds
            assert all(o.result.fold_size == 4 for o in batch)
            assert {o.finish_s for o in batch} == {batch[0].start_s + run_s}
            assert {o.service_s for o in batch} == {run_s / 4}
        busy = pool.devices[0].profile.busy_seconds
        assert sum(o.service_s for o in report.outcomes) == pytest.approx(busy, rel=1e-12)


class TestCapacityFallback:
    def _peaks(self, engine, n):
        """Live-byte high-water marks of each member alone and of the
        fold, on a device too large to refuse either."""
        solo = []
        for request in _requests(engine, n):
            device = VirtualDevice(capacity_bytes=1 << 40)
            LobsterSession(engine, pool=DevicePool(devices=[device])).run_batch(
                [request.database]
            )
            solo.append(device.profile.peak_arena_bytes)
        device = VirtualDevice(capacity_bytes=1 << 40)
        results = LobsterSession(engine, pool=DevicePool(devices=[device])).run_batch(
            [request.database for request in _requests(engine, n)]
        )
        assert results[0].fold_size == n
        return max(solo), device.profile.peak_arena_bytes

    def test_a_fold_that_does_not_fit_runs_back_to_back(self):
        engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        each, fold = self._peaks(engine, 4)
        assert each < fold
        capacity = each  # every member fits alone; the fold does not

        def serve(engine):
            pool = DevicePool(devices=[VirtualDevice(capacity_bytes=capacity)])
            requests = _requests(engine, 4)
            report = Scheduler(pool, classes=_classes()).run(requests)
            return report, requests, pool

        report, requests, pool = serve(engine)
        never_folds = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        never_folds._twin = False  # the back-to-back path, as the oracle
        oracle, oracle_requests, oracle_pool = serve(never_folds)
        assert report.completed == 4
        assert all(o.result.fold_size == 1 for o in report.outcomes)
        assert _timeline(report) == _timeline(oracle)
        for request, expected in zip(requests, oracle_requests):
            assert_same_state(request.database, expected.database)
        # The abandoned fold left no charge on the device.
        busy, oracle_busy = (
            p.devices[0].profile.busy_seconds for p in (pool, oracle_pool)
        )
        assert busy == oracle_busy
        assert busy == pytest.approx(sum(o.service_s for o in report.outcomes), rel=1e-12)

    def test_an_abandoned_fold_leaves_no_allocation_site_warm(self):
        engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        each, _ = self._peaks(engine, 4)
        never_folds = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        never_folds._twin = False
        lanes = []
        for runner in (engine, never_folds):
            device = VirtualDevice(capacity_bytes=each)
            session = LobsterSession(runner, pool=DevicePool(devices=[device]))
            results = session.run_batch([r.database for r in _requests(runner, 4)])
            assert all(result.fold_size == 1 for result in results)
            lanes.append(session._interpreters[0]._seen_sites)
        assert lanes[0] == lanes[1]

    def test_an_abandoned_fold_leaves_no_span_behind(self):
        """The trace is rolled back with the device: each rerun's run span
        lies exactly where the scheduler's outcome puts it, the errored
        fold's spans are gone, and one instant says why the batch ran
        back to back."""
        engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", cache=ProgramCache())
        each, _ = self._peaks(engine, 4)
        tracer = Tracer()
        pool = DevicePool(devices=[VirtualDevice(capacity_bytes=each)])
        report = Scheduler(pool, classes=_classes(), tracer=tracer).run(_requests(engine, 4))
        assert report.completed == 4
        assert all(o.result.fold_size == 1 for o in report.outcomes)
        assert not [span for span in tracer.spans if "error" in span.attrs]
        runs = [span for span in tracer.spans if span.name == "engine.run"]
        finishes = [o.finish_s for o in report.outcomes]
        # Back to back: each run starts where its predecessor finished.
        assert [run.start_s for run in runs] == [report.outcomes[0].start_s] + finishes[:-1]
        assert [run.end_s for run in runs] == finishes
        for run, outcome in zip(runs, report.outcomes):
            assert run.duration_s == pytest.approx(outcome.service_s, rel=1e-12)
        (batch,) = [span for span in tracer.spans if span.name == "serve.batch"]
        assert all(run.parent_id == batch.span_id for run in runs)
        (fallback,) = [span for span in tracer.spans if span.name == "fold.fallback"]
        assert fallback.kind == "instant" and fallback.parent_id == batch.span_id
        assert fallback.start_s == fallback.end_s == batch.start_s
        assert fallback.attrs == {"reason": "device_oom", "size": 4}
        validate_trace_events(tracer.to_trace_events())


class TestQueryBySample:
    def test_matches_the_per_row_split(self):
        engine = LobsterEngine(TC_PROGRAM, provenance="minmaxprob", batched=True)
        database = engine.create_database()
        rng = np.random.default_rng(6)
        for sample in (0, 2, 3, 7):  # samples 1, 4-6 hold nothing
            edges = sorted({(int(a), int(b)) for a, b in rng.integers(0, 6, size=(6, 2))})
            engine.add_batch_facts(
                database, "path", sample, edges, probs=list(rng.uniform(0.1, 0.9, len(edges)))
            )
        engine.run(database)
        rows, probs = database.result_probs("path")
        expected: dict[int, dict[tuple, float]] = {}
        for row, prob in zip(rows, probs):
            expected.setdefault(int(row[0]), {})[tuple(row[1:])] = float(prob)
        got = engine.query_by_sample(database, "path")
        assert got == expected and list(got) == list(expected)
