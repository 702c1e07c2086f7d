"""The stream/ subsystem: sources, windows, views, subscriptions, and
the serve-clock StreamScheduler.

Two laws anchor everything:

* **Bitwise fidelity** — after every tick, the maintained view equals a
  cold from-scratch run of the same live fact set;
* **Conservation** — every tick's emitted view delta satisfies
  ``view_before ⊎ inserts ∖ retracts == view_after``, so replaying the
  delta log from tick 0 reconstructs the final view exactly.
"""

from __future__ import annotations

import pytest

from repro import (
    LobsterEngine,
    MaterializedView,
    SlidingWindow,
    StaleViewError,
    StreamScheduler,
    TumblingWindow,
)
from repro.dist import DevicePool
from repro.serve import MetricsRegistry, Scheduler
from repro.stream import RelationStream, TickDelta, graph_edge_stream, replay_deltas

TC = """
rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
query path
"""

EDGES = [(i, i + 1) for i in range(12)] + [(0, 5), (3, 9), (2, 7), (6, 11)]


def make_window(size=5, per_tick=2, seed=3, cls=SlidingWindow, probs=None):
    return cls(
        RelationStream("edge", EDGES, per_tick, seed=seed, prob_range=probs),
        size,
    )


class TestSources:
    def test_batches_are_pure_functions_of_tick(self):
        stream = RelationStream("edge", EDGES, 3, seed=9)
        assert stream.batch(4) == stream.batch(4)
        assert stream.batch(0) != stream.batch(1)

    def test_probs_stable_across_reinsertion(self):
        stream = RelationStream("edge", EDGES, 2, seed=9, prob_range=(0.2, 1.0))
        first_cycle = {e.row: e.prob for t in range(20) for e in stream.batch(t)}
        second_cycle = {e.row: e.prob for t in range(20, 40) for e in stream.batch(t)}
        assert first_cycle == second_cycle

    def test_graph_edge_stream_over_corpus(self):
        stream = graph_edge_stream("SF.cedge", per_tick=4, seed=1)
        assert len(stream.batch(0)) == 4
        assert all(event.relation == "edge" for event in stream.batch(7))


class TestWindows:
    def test_sliding_window_expires_after_size_ticks(self):
        window = make_window(size=3, per_tick=1)
        inserted_at = {}
        for tick in range(10):
            delta = window.advance()
            for rows, _ in delta.inserts.values():
                for row in rows:
                    inserted_at[row] = tick
            for rows in delta.retracts.values():
                for row in rows:
                    assert tick - inserted_at.pop(row) == 3

    def test_reinsert_extends_life_instead_of_duplicating(self):
        # Two rows cycling through a size-3 window with per_tick=1 over a
        # 2-row stream: every row re-inserts before expiring, so no
        # retraction ever fires.
        window = SlidingWindow(
            RelationStream("edge", [(0, 1), (1, 2)], 1, seed=0), size=3
        )
        for _ in range(12):
            delta = window.advance()
            assert not delta.retracts
        assert window.live_count == 2

    def test_tumbling_window_clears_whole_epochs(self):
        window = TumblingWindow(
            RelationStream("edge", EDGES, 2, seed=5), size=4
        )
        retract_ticks = set()
        for tick in range(16):
            delta = window.advance()
            if delta.retracts:
                retract_ticks.add(tick)
        assert retract_ticks <= {4, 8, 12}

    def test_reset_replays_identically(self):
        window = make_window()
        first = [window.advance() for _ in range(12)]
        window.reset()
        second = [window.advance() for _ in range(12)]
        for a, b in zip(first, second):
            assert a.inserts == b.inserts and a.retracts == b.retracts

    def test_merge_cancels_insert_then_retract(self):
        early = TickDelta(0, inserts={"edge": ([(0, 1), (1, 2)], None)})
        late = TickDelta(1, retracts={"edge": [(0, 1)]})
        merged = early.merged_with(late)
        assert merged.inserts["edge"][0] == [(1, 2)]
        assert "edge" not in merged.retracts
        assert merged.ticks_covered == 2

    def test_merge_keeps_both_on_retract_then_reinsert(self):
        # The old live instance must still be retracted before the fresh
        # insert lands, or the coalesced tick leaves a duplicate behind.
        early = TickDelta(0, retracts={"edge": [(0, 1)]})
        late = TickDelta(1, inserts={"edge": ([(0, 1)], [0.7])})
        merged = early.merged_with(late)
        assert merged.inserts["edge"] == ([(0, 1)], [0.7])
        assert merged.retracts["edge"] == [(0, 1)]

    def test_coalesced_ticks_match_sequential_for_nonidempotent_oplus(self):
        # Regression: dropping the retract half of a retract-then-
        # reinsert pair leaves two instances of the row, which addmult-
        # prob's ⊕ counts twice.
        engine_seq = LobsterEngine("rel q(x) :- a(x).", provenance="addmultprob")
        engine_co = LobsterEngine("rel q(x) :- a(x).", provenance="addmultprob")
        first = TickDelta(0, inserts={"a": ([(1,)], [0.5])})
        second = TickDelta(1, retracts={"a": [(1,)]})
        third = TickDelta(2, inserts={"a": ([(1,)], [0.5])})
        sequential = MaterializedView(engine_seq, relations=["q"])
        for delta in (first, second, third):
            sequential.apply(delta)
        coalesced = MaterializedView(engine_co, relations=["q"])
        coalesced.apply(first)
        coalesced.apply(second.merged_with(third))
        assert sequential.result("q") == coalesced.result("q") == {(1,): 0.5}

    def test_mixed_discrete_and_probabilistic_batch(self):
        # A per-row None prob marks a discrete fact, not probability 0.
        engine = LobsterEngine(TC, provenance="minmaxprob")
        view = MaterializedView(engine)
        delta = TickDelta(0, inserts={"edge": ([(0, 1), (1, 2)], [None, 0.4])})
        view.apply(delta)
        result = view.result("path")
        assert result[(0, 1)] == pytest.approx(1.0)  # discrete = certain
        assert result[(1, 2)] == pytest.approx(0.4)
        assert result[(0, 2)] == pytest.approx(0.4)


class TestMaterializedView:
    def test_every_tick_matches_cold(self):
        window = make_window()
        view = MaterializedView(LobsterEngine(TC))
        live: set[tuple] = set()
        for _ in range(18):
            delta = window.advance()
            for rows in delta.retracts.values():
                live.difference_update(rows)
            for rows, _ in delta.inserts.values():
                live.update(rows)
            view.apply(delta)
            cold_engine = LobsterEngine(TC)
            cold_db = cold_engine.create_database()
            cold_db.add_facts("edge", sorted(live))
            cold_engine.run(cold_db)
            assert set(view.result("path")) == set(cold_db.result("path").rows())

    def test_probabilistic_view_matches_cold(self):
        window = make_window(probs=(0.3, 1.0))
        view = MaterializedView(LobsterEngine(TC, provenance="minmaxprob"))
        live: dict[tuple, float] = {}
        for _ in range(14):
            delta = window.advance()
            for rows in delta.retracts.values():
                for row in rows:
                    live.pop(row, None)
            for rows, probs in delta.inserts.values():
                live.update(zip(rows, probs))
            view.apply(delta)
            cold_engine = LobsterEngine(TC, provenance="minmaxprob")
            cold_db = cold_engine.create_database()
            cold_db.add_facts(
                "edge", sorted(live), probs=[live[r] for r in sorted(live)]
            )
            cold_engine.run(cold_db)
            cold = cold_engine.query_probs(cold_db, "path")
            warm = view.result("path")
            assert set(warm) == set(cold)
            for row, prob in warm.items():
                assert prob == pytest.approx(cold[row], abs=1e-9)

    def test_conservation_law_per_tick(self):
        window = make_window()
        view = MaterializedView(LobsterEngine(TC))
        state = view.result("path")
        for _ in range(15):
            before = dict(state)
            delta = view.apply(window.advance())
            state = replay_deltas({"path": before}, [delta])["path"]
            assert state == view.result("path")

    def test_subscription_replay_reconstructs_final_view(self):
        window = make_window()
        view = MaterializedView(LobsterEngine(TC))
        subscription = view.subscribe()
        for _ in range(16):
            view.apply(window.advance())
        assert subscription.replay()["path"] == view.result("path")
        polled = subscription.poll()
        assert len(polled) == 16
        assert subscription.poll() == []  # drained
        assert replay_deltas(view.baseline(), polled)["path"] == view.result("path")

    def test_push_callbacks_see_every_delta(self):
        window = make_window()
        view = MaterializedView(LobsterEngine(TC))
        pushed = []
        view.subscribe(callback=pushed.append)
        applied = [view.apply(window.advance()) for _ in range(6)]
        assert pushed == applied

    def test_view_with_preloaded_baseline(self):
        engine = LobsterEngine(TC)
        db = engine.create_database()
        db.add_facts("edge", [(100, 101), (101, 102)])
        engine.run(db)
        view = MaterializedView(engine, database=db)
        subscription = view.subscribe()
        assert (100, 102) in view.result("path")
        window = make_window()
        for _ in range(8):
            view.apply(window.advance())
        assert subscription.replay()["path"] == view.result("path")
        assert (100, 102) in view.result("path")  # baseline rows persist

    def test_out_of_band_mutation_raises_stale(self):
        window = make_window()
        view = MaterializedView(LobsterEngine(TC))
        view.apply(window.advance())
        view.database.add_facts("edge", [(70, 71)])
        with pytest.raises(StaleViewError, match="outside the view"):
            view.apply(window.advance())
        view.refresh()
        view.apply(window.advance())  # healthy again
        assert (70, 71) in view.result("path")

    def test_refresh_invalidates_even_caught_up_subscriptions(self):
        # Regression: a fully caught-up cursor must still fail after a
        # refresh — the baseline changed out-of-band, so resuming the
        # delta stream would silently skip that change.
        window = make_window()
        view = MaterializedView(LobsterEngine(TC))
        view.apply(window.advance())
        subscription = view.subscribe()
        assert subscription.poll() == []  # caught up
        view.database.add_facts("edge", [(80, 81)])
        view.refresh()
        view.apply(window.advance())
        with pytest.raises(StaleViewError, match="refresh"):
            subscription.poll()

    def test_pruned_history_raises_stale_on_lagging_subscription(self):
        window = make_window()
        view = MaterializedView(LobsterEngine(TC), max_history=4)
        lagging = view.subscribe()
        caught_up = view.subscribe()
        for _ in range(4):
            view.apply(window.advance())
        assert len(caught_up.poll()) == 4
        for _ in range(4):
            view.apply(window.advance())
        with pytest.raises(StaleViewError, match="pruned"):
            lagging.poll()
        assert len(caught_up.poll()) == 4  # exactly the retained tail
        with pytest.raises(StaleViewError, match="replay"):
            lagging.replay()


class TestStreamScheduler:
    def build(self, pool=None, metrics=None, period_s=1e-4):
        scheduler = StreamScheduler(
            pool=pool or DevicePool(2, policy="least-loaded"),
            metrics=metrics or MetricsRegistry(),
        )
        view = MaterializedView(LobsterEngine(TC), name="tc")
        scheduler.register(view, make_window(), period_s=period_s)
        return scheduler, view

    def test_run_is_deterministic_for_a_seed(self):
        first, _ = self.build()
        second, _ = self.build()
        report_a = first.run(12)
        report_b = second.run(12)
        assert report_a.makespan_s == report_b.makespan_s
        assert report_a.passes == report_b.passes
        assert first.metrics.histogram(
            "stream.maintain_latency_s.tc"
        ) == second.metrics.histogram("stream.maintain_latency_s.tc")

    def test_update_latency_histogram_covers_every_pass(self):
        scheduler, _ = self.build()
        report = scheduler.run(10)
        histogram = scheduler.metrics.histogram("stream.maintain_latency_s.tc")
        assert histogram.count == report.passes
        assert histogram.p99 > 0.0
        assert report.ticks == 10

    def test_backlog_coalesces_into_net_deltas(self):
        scheduler, view = self.build(period_s=1e-12)
        scheduler.max_lag_ticks = 0.5
        report = scheduler.run(12)
        assert report.coalesced > 0
        assert report.ticks == 12 == report.passes + report.coalesced
        assert (
            scheduler.metrics.counter("stream.ticks_coalesced").value
            == report.coalesced
        )
        # Coalescing must not change the final answer.
        window = make_window()
        reference = MaterializedView(LobsterEngine(TC))
        for _ in range(12):
            reference.apply(window.advance())
        assert view.result("path") == reference.result("path")

    def test_maintenance_occupies_shared_devices(self):
        pool = DevicePool(1, policy="least-loaded")
        metrics = MetricsRegistry()
        scheduler, _ = self.build(pool=pool, metrics=metrics)
        report = scheduler.run(8)
        assert report.busy_until[0] > 0.0
        # A request drain seeded with the maintenance horizon starts its
        # devices busy: an immediate-arrival stream can't start before it.
        request_scheduler = Scheduler(pool=pool, metrics=metrics)
        engine = LobsterEngine(TC)
        from repro.serve import Request

        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        request_scheduler.submit(Request(engine, db, slo="batch", arrival_s=0.0))
        drained = request_scheduler.run(busy_until=report.busy_until)
        outcome = drained.outcomes[0]
        assert outcome.status == "completed"
        assert outcome.start_s >= report.busy_until[0]
