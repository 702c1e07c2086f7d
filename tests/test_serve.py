"""Serving-front-end invariants.

The four acceptance properties of the serving subsystem:

* deterministic replay — one seed, one latency histogram, bit for bit;
* conservation — no request lost or duplicated, even when submissions
  race from many threads;
* explicit shedding — a deadline-expired request ends as a ``shed``
  outcome with a reason, never a silent drop;
* result fidelity — micro-batched results bitwise-match a solo run of
  the same database on a fresh single-device engine.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    DevicePool,
    LoadGenerator,
    LobsterEngine,
    LobsterError,
    Request,
    Scheduler,
    SLOClass,
)
from repro.serve import COMPLETED, REJECTED, SHED, AdmissionController
from repro.serve.queue import RequestQueue
from repro.workloads.analytics import TRANSITIVE_CLOSURE

from _helpers import random_digraph


@pytest.fixture(scope="module")
def engine():
    return LobsterEngine(TRANSITIVE_CLOSURE, provenance="minmaxprob")


def make_database_factory(engine, n_nodes=16, n_edges=30):
    def make_database(rng, index):
        edges = random_digraph(rng, n_nodes, n_edges)
        db = engine.create_database()
        db.add_facts("edge", edges, probs=[0.9] * len(edges))
        return db, {"edges": edges}

    return make_database


def tight_classes(deadline_s=1.0, delay_s=1e-4, batch=4, limit=64):
    return {
        "interactive": SLOClass(
            "interactive",
            deadline_s=deadline_s,
            max_batch_delay_s=delay_s,
            max_batch_size=batch,
            queue_limit=limit,
            priority=0,
        )
    }


class TestSchedulerBasics:
    def test_all_requests_complete_at_low_load(self, engine):
        gen = LoadGenerator(
            engine,
            make_database_factory(engine),
            rate_hz=100.0,
            n_requests=12,
            seed=3,
        )
        scheduler = Scheduler(n_devices=2)
        report = scheduler.run(gen.generate())
        assert report.submitted == 12
        assert report.completed == 12
        assert report.rejected == report.shed == 0
        assert report.makespan_s > 0
        # Every outcome carries serve-clock timings.
        for outcome in report.outcomes:
            assert outcome.status == COMPLETED
            assert outcome.finish_s > outcome.start_s >= outcome.arrival_s >= 0
            assert outcome.latency_s > 0 and outcome.service_s > 0

    def test_results_are_correct_closures(self, engine):
        gen = LoadGenerator(
            engine,
            make_database_factory(engine, n_nodes=8, n_edges=12),
            rate_hz=200.0,
            n_requests=6,
            seed=11,
        )
        requests = gen.generate()
        report = Scheduler(n_devices=1).run(requests)
        by_ticket = {r.ticket: r for r in requests}
        for outcome in report.outcomes:
            request = by_ticket[outcome.ticket]
            rows = set(request.database.result("path").rows())
            edges = set(outcome.meta["edges"])
            closure = set(edges)
            while True:
                extra = {
                    (a, d)
                    for a, b in closure
                    for c, d in closure
                    if b == c and (a, d) not in closure
                }
                if not extra:
                    break
                closure |= extra
            assert rows == closure

    def test_micro_batches_coalesce(self, engine):
        # Simultaneous arrivals of one program coalesce up to the size
        # bound: 8 requests, max_batch_size=4 -> exactly 2 batches.
        classes = tight_classes(batch=4)
        scheduler = Scheduler(n_devices=1, classes=classes)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(8):
            db, meta = factory(rng, 0)
            scheduler.submit(Request(engine=engine, database=db, arrival_s=0.0))
        report = scheduler.run()
        assert report.completed == 8
        assert scheduler.metrics.counter("serve.batches").value == 2
        assert all(o.batch_size == 4 for o in report.outcomes)
        # The scheduler's per-program sessions keep no per-request
        # bookkeeping (long-lived serving must not grow without bound).
        assert all(len(s) == 0 for s in scheduler._sessions.values())

    def test_outcomes_are_per_drain(self, engine):
        # A reused scheduler keeps only the latest drain's outcomes —
        # history belongs to the returned reports.
        scheduler = Scheduler(n_devices=1)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(23)

        def one_request():
            db, _meta = factory(rng, 0)
            return Request(engine=engine, database=db, arrival_s=0.0)

        first = scheduler.run([one_request(), one_request()])
        second = scheduler.run([one_request()])
        assert len(first.outcomes) == 2 and len(second.outcomes) == 1
        assert set(scheduler.outcomes) == {o.ticket for o in second.outcomes}

    def test_unknown_slo_class_is_refused(self, engine):
        scheduler = Scheduler(n_devices=1)
        db = engine.create_database()
        with pytest.raises(LobsterError, match="unknown SLO class"):
            scheduler.submit(Request(engine=engine, database=db, slo="bulk"))

    def test_double_submit_of_one_request_is_refused(self, engine):
        scheduler = Scheduler(n_devices=1)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        request = Request(engine=engine, database=db)
        scheduler.submit(request)
        with pytest.raises(LobsterError, match="already submitted"):
            scheduler.submit(request)
        report = scheduler.run()
        assert report.submitted == 1 and report.completed == 1

    def test_bad_busy_until_does_not_eat_submitted_requests(self, engine):
        # Regression: validation must precede the intake drain, so a
        # caller can fix the argument and retry without losing work.
        scheduler = Scheduler(n_devices=2)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        scheduler.submit(Request(engine=engine, database=db))
        with pytest.raises(LobsterError, match="busy_until"):
            scheduler.run(busy_until=[0.0])  # wrong length
        report = scheduler.run(busy_until=[0.0, 0.0])
        assert report.submitted == 1 and report.completed == 1

    def test_engines_differing_in_max_iterations_get_separate_sessions(self):
        # Same compiled program, different execution budget: coalescing
        # them through one session would run requests under the wrong
        # engine's max_iterations.
        a = LobsterEngine(TRANSITIVE_CLOSURE, provenance="unit")
        b = LobsterEngine(
            TRANSITIVE_CLOSURE, provenance="unit", max_iterations=7777
        )
        assert a.compiled.key == b.compiled.key  # cache shares the artifact
        scheduler = Scheduler(n_devices=1)
        for eng in (a, b):
            db = eng.create_database()
            db.add_facts("edge", [(0, 1), (1, 2)])
            scheduler.submit(Request(engine=eng, database=db, arrival_s=0.0))
        report = scheduler.run()
        assert report.completed == 2
        assert len(scheduler._sessions) == 2


class TestDeterministicReplay:
    def test_same_seed_identical_latency_histogram(self, engine):
        def run_once():
            gen = LoadGenerator(
                engine,
                make_database_factory(engine),
                rate_hz=2000.0,
                n_requests=30,
                seed=42,
                pattern="bursty",
            )
            scheduler = Scheduler(n_devices=2)
            return scheduler.run(gen.generate())

        first, second = run_once(), run_once()
        assert first.latency_histogram("interactive") == second.latency_histogram(
            "interactive"
        )
        # The full outcome stream replays identically too.
        key = lambda o: (o.ticket, o.status, o.start_s, o.finish_s, o.service_s)
        assert [key(o) for o in first.outcomes] == [key(o) for o in second.outcomes]

    def test_different_seed_differs(self, engine):
        def run_once(seed):
            gen = LoadGenerator(
                engine,
                make_database_factory(engine),
                rate_hz=2000.0,
                n_requests=30,
                seed=seed,
            )
            return Scheduler(n_devices=2).run(gen.generate())

        assert run_once(1).latency_histogram("interactive") != run_once(
            2
        ).latency_histogram("interactive")


class TestConservation:
    def test_no_request_lost_or_duplicated_under_concurrent_submit(self, engine):
        scheduler = Scheduler(n_devices=2, classes=tight_classes())
        factory = make_database_factory(engine, n_nodes=6, n_edges=8)
        n_threads, per_thread = 8, 16
        errors = []

        def submit_many(thread_index):
            import numpy as np

            rng = np.random.default_rng(thread_index)
            try:
                for i in range(per_thread):
                    db, meta = factory(rng, i)
                    scheduler.submit(
                        Request(
                            engine=engine,
                            database=db,
                            arrival_s=float(i) * 1e-4,
                            meta=meta,
                        )
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_many, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        report = scheduler.run()
        total = n_threads * per_thread
        assert report.submitted == total
        assert report.completed + report.rejected + report.shed == total
        tickets = [o.ticket for o in report.outcomes]
        assert len(tickets) == len(set(tickets)) == total


class TestSheddingAndAdmission:
    def test_deadline_expired_requests_are_shed_not_dropped(self, engine):
        # One giant burst at t=0 with a deadline far below the time the
        # queue needs to drain on one device: the tail must be *shed*,
        # with an explicit reason, and the books must balance.
        classes = tight_classes(deadline_s=3e-4, batch=1, limit=500)
        scheduler = Scheduler(n_devices=1, classes=classes)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(5)
        n = 40
        for _ in range(n):
            db, _meta = factory(rng, 0)
            scheduler.submit(Request(engine=engine, database=db, arrival_s=0.0))
        report = scheduler.run()
        assert report.completed + report.rejected + report.shed == n
        assert report.shed > 0
        shed = [o for o in report.outcomes if o.status == SHED]
        for outcome in shed:
            assert "deadline expired" in outcome.reason
        assert (
            scheduler.metrics.counter("serve.shed.interactive").value
            == report.shed
        )

    def test_queue_limit_rejects_with_reason(self, engine):
        classes = tight_classes(deadline_s=10.0, batch=1, limit=4)
        scheduler = Scheduler(n_devices=1, classes=classes)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(9)
        for _ in range(12):
            db, _meta = factory(rng, 0)
            scheduler.submit(Request(engine=engine, database=db, arrival_s=0.0))
        report = scheduler.run()
        rejected = [o for o in report.outcomes if o.status == REJECTED]
        assert rejected
        for outcome in rejected:
            assert "queue full" in outcome.reason
        assert report.completed + report.rejected + report.shed == 12

    def test_infeasible_deadline_rejected_at_the_door(self, engine):
        # Warm the estimator so admission can price the backlog, then
        # offer a burst whose tail cannot possibly meet its deadline.
        classes = tight_classes(deadline_s=2e-4, batch=1, limit=10_000)
        scheduler = Scheduler(n_devices=1, classes=classes)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(13)
        db, _ = factory(rng, 0)
        scheduler.run([Request(engine=engine, database=db, arrival_s=0.0)])
        for _ in range(60):
            db, _meta = factory(rng, 0)
            scheduler.submit(Request(engine=engine, database=db, arrival_s=0.0))
        report = scheduler.run()
        reasons = {o.reason for o in report.outcomes if o.status == REJECTED}
        assert any("deadline infeasible" in r for r in reasons)

    def test_batches_backfill_past_shed_requests(self, engine):
        # Head-of-group requests with blown deadlines must not shrink
        # the dispatched batch: viable peers backfill their slots.
        # A higher-priority blocker class wins the only device at t=0;
        # everything is admitted at t=0 (the device still looks free, so
        # feasibility cannot reject the doomed requests at the door),
        # and by the time the device frees the tiny deadlines are blown.
        classes = {
            "blocker": SLOClass(
                "blocker", deadline_s=10.0, max_batch_delay_s=0.0,
                max_batch_size=1, queue_limit=8, priority=0,
            ),
            "interactive": SLOClass(
                "interactive", deadline_s=10.0, max_batch_delay_s=0.0,
                max_batch_size=3, queue_limit=64, priority=1,
            ),
        }
        scheduler = Scheduler(n_devices=1, classes=classes)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(29)
        blocker_engine = LobsterEngine(TRANSITIVE_CLOSURE, provenance="unit")
        blocker = blocker_engine.create_database()
        blocker.add_facts("edge", [(i, i + 1) for i in range(30)])
        scheduler.submit(
            Request(
                engine=blocker_engine, database=blocker,
                slo="blocker", arrival_s=0.0,
            )
        )
        # Two doomed requests (tiny deadline) at the head of the group,
        # three viable ones behind them.
        for deadline in (1e-6, 1e-6, None, None, None):
            db, _meta = factory(rng, 0)
            scheduler.submit(
                Request(
                    engine=engine,
                    database=db,
                    arrival_s=0.0,
                    deadline_s=deadline,
                )
            )
        report = scheduler.run()
        assert report.shed == 2
        late = [
            o
            for o in report.outcomes
            if o.status == COMPLETED and o.slo == "interactive"
        ]
        assert len(late) == 3
        # One full backfilled batch of 3 — not a size-1 batch headed by
        # the first viable request plus a size-2 straggler batch.
        assert all(o.batch_size == 3 for o in late)

    def test_lower_priority_backlog_does_not_reject_interactive(self, engine):
        # Deadline feasibility only counts work that dispatches at or
        # before the request's priority: a deep batch-class backlog must
        # not push interactive traffic into rejection.
        classes = {
            "interactive": SLOClass(
                "interactive", deadline_s=0.005, max_batch_delay_s=0.0,
                max_batch_size=4, queue_limit=64, priority=0,
            ),
            "batch": SLOClass(
                "batch", deadline_s=60.0, max_batch_delay_s=0.0,
                max_batch_size=4, queue_limit=10_000, priority=1,
            ),
        }
        controller = AdmissionController(classes)
        queue = RequestQueue(classes)
        db = engine.create_database()
        key = Request(engine=engine, database=db).program_key
        controller.estimator.observe(key, 0.001)  # 1ms per queued request
        for i in range(200):  # ~200ms of batch backlog
            queue.push(
                Request(
                    engine=engine, database=db, slo="batch",
                    arrival_s=0.0, ticket=i,
                )
            )
        interactive = Request(
            engine=engine, database=db, slo="interactive",
            arrival_s=0.0, ticket=500,
        )
        assert (
            controller.decide(interactive, now=0.0, queue=queue, free_at=[0.0])
            is None
        )
        # The same backlog ahead of a *batch*-class request does count.
        peer = Request(
            engine=engine, database=db, slo="batch",
            arrival_s=0.0, ticket=501, deadline_s=0.005,
        )
        reason = controller.decide(peer, now=0.0, queue=queue, free_at=[0.0])
        assert reason is not None and "deadline infeasible" in reason

    def test_backpressure_signal(self, engine):
        classes = tight_classes(limit=10)
        controller = AdmissionController(classes)
        queue = RequestQueue(classes)
        assert controller.backpressure(queue) == 0.0
        db = engine.create_database()
        for i in range(5):
            queue.push(Request(engine=engine, database=db, arrival_s=0.0, ticket=i))
        assert controller.backpressure(queue) == pytest.approx(0.5)


class TestResultFidelity:
    def test_micro_batched_results_bitwise_match_solo_runs(self, engine):
        gen = LoadGenerator(
            engine,
            make_database_factory(engine),
            rate_hz=5000.0,  # dense arrivals -> real coalescing
            n_requests=16,
            seed=21,
        )
        requests = gen.generate()
        report = Scheduler(n_devices=2).run(requests)
        assert report.completed == 16
        assert report.metrics.histogram("serve.batch_size").max > 1
        by_ticket = {r.ticket: r for r in requests}
        for outcome in report.outcomes:
            request = by_ticket[outcome.ticket]
            solo_engine = LobsterEngine(
                TRANSITIVE_CLOSURE, provenance="minmaxprob", cache=False
            )
            solo_db = solo_engine.create_database()
            edges = outcome.meta["edges"]
            solo_db.add_facts("edge", edges, probs=[0.9] * len(edges))
            solo_engine.run(solo_db)
            served_rows, served_probs = request.database.result_probs("path")
            solo_rows, solo_probs = solo_db.result_probs("path")
            assert served_rows == solo_rows
            assert list(served_probs) == list(solo_probs)  # bitwise, no approx


class TestLoadGenerator:
    def test_poisson_stream_is_deterministic(self, engine):
        factory = make_database_factory(engine)
        a = LoadGenerator(engine, factory, rate_hz=100.0, n_requests=20, seed=7)
        b = LoadGenerator(engine, factory, rate_hz=100.0, n_requests=20, seed=7)
        assert a.arrival_times() == b.arrival_times()
        edges_a = [r.meta["edges"] for r in a.generate()]
        edges_b = [r.meta["edges"] for r in b.generate()]
        assert edges_a == edges_b

    def test_arrivals_monotone_and_rate_plausible(self, engine):
        gen = LoadGenerator(
            engine,
            make_database_factory(engine),
            rate_hz=1000.0,
            n_requests=400,
            seed=3,
        )
        times = gen.arrival_times()
        assert all(b > a for a, b in zip(times, times[1:]))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e-3, rel=0.25)

    def test_bursty_pattern_clumps_arrivals(self, engine):
        factory = make_database_factory(engine)
        poisson = LoadGenerator(
            engine, factory, rate_hz=1000.0, n_requests=500, seed=5
        ).arrival_times()
        bursty = LoadGenerator(
            engine,
            factory,
            rate_hz=1000.0,
            n_requests=500,
            seed=5,
            pattern="bursty",
            burst_factor=6.0,
            duty_cycle=0.2,
        ).arrival_times()

        def cv_of_gaps(times):
            import numpy as np

            gaps = np.diff(np.array(times))
            return float(gaps.std() / gaps.mean())

        # A modulated process is strictly more variable than Poisson
        # (whose gap coefficient of variation is ~1).
        assert cv_of_gaps(bursty) > cv_of_gaps(poisson) * 1.3

    def test_class_mix_spans_classes(self, engine):
        gen = LoadGenerator(
            engine,
            make_database_factory(engine),
            rate_hz=100.0,
            n_requests=60,
            seed=2,
            class_mix={"interactive": 0.7, "batch": 0.3},
        )
        slos = {r.slo for r in gen.generate()}
        assert slos == {"interactive", "batch"}

    def test_invalid_parameters_raise(self, engine):
        factory = make_database_factory(engine)
        with pytest.raises(LobsterError):
            LoadGenerator(engine, factory, rate_hz=0.0, n_requests=5)
        with pytest.raises(LobsterError):
            LoadGenerator(
                engine, factory, rate_hz=1.0, n_requests=5, pattern="sawtooth"
            )
        with pytest.raises(LobsterError):
            LoadGenerator(
                engine,
                factory,
                rate_hz=1.0,
                n_requests=5,
                pattern="bursty",
                burst_factor=0.0,
            )
        with pytest.raises(LobsterError):
            LoadGenerator(
                engine,
                factory,
                rate_hz=1.0,
                n_requests=5,
                pattern="bursty",
                cycle_s=0.0,
            )

    def test_goodput_measures_the_busy_span_not_absolute_clock(self, engine):
        # A stream whose timestamps start at t=100s must report the same
        # goodput as the identical stream starting at t=0.
        def run_with_start(start_s):
            gen = LoadGenerator(
                engine,
                make_database_factory(engine),
                rate_hz=500.0,
                n_requests=12,
                seed=6,
                start_s=start_s,
            )
            return Scheduler(n_devices=1).run(gen.generate())

        at_zero, offset = run_with_start(0.0), run_with_start(100.0)
        assert offset.completed == at_zero.completed == 12
        assert offset.goodput_rps == pytest.approx(at_zero.goodput_rps)


class TestPriorities:
    def test_interactive_cuts_ahead_of_batch(self, engine):
        # Same program, both classes, one device, simultaneous arrivals:
        # interactive (priority 0) must dispatch before batch.
        classes = {
            "interactive": SLOClass(
                "interactive", deadline_s=10.0, max_batch_delay_s=0.0,
                max_batch_size=4, queue_limit=64, priority=0,
            ),
            "batch": SLOClass(
                "batch", deadline_s=10.0, max_batch_delay_s=0.0,
                max_batch_size=4, queue_limit=64, priority=1,
            ),
        }
        scheduler = Scheduler(n_devices=1, classes=classes)
        factory = make_database_factory(engine)
        import numpy as np

        rng = np.random.default_rng(17)
        for slo in ("batch", "interactive"):  # batch submitted first
            for _ in range(2):
                db, _meta = factory(rng, 0)
                scheduler.submit(
                    Request(engine=engine, database=db, slo=slo, arrival_s=0.0)
                )
        report = scheduler.run()
        interactive_finish = max(
            o.finish_s for o in report.outcomes if o.slo == "interactive"
        )
        batch_start = min(o.start_s for o in report.outcomes if o.slo == "batch")
        assert interactive_finish <= batch_start


class TestFailingRequest:
    """A request whose run raises must neither wedge the scheduler nor
    lose its neighbours: the error surfaces typed, every ticket of the
    drain still ends in exactly one outcome, and the next drain is
    served normally."""

    CHAIN = [(n, n + 1) for n in range(8)]

    def _request(self, engine, arrival_s, edges):
        db = engine.create_database()
        db.add_facts("edge", edges, probs=[0.9] * len(edges))
        return Request(engine, db, arrival_s=arrival_s)

    @pytest.mark.parametrize("failure", ["iteration-cap", "device-oom"])
    def test_drain_failure_sheds_the_rest_and_recovers(self, engine, failure):
        from repro import ExecutionError, Tracer, VirtualDevice

        if failure == "iteration-cap":
            pool = DevicePool(1)
            failing = LobsterEngine(
                TRANSITIVE_CLOSURE, provenance="minmaxprob", max_iterations=2
            )
        else:
            pool = DevicePool(devices=[VirtualDevice(capacity_bytes=4096)])
            failing = engine
        tracer = Tracer()
        # Arrivals further apart than the batching window: three batches.
        scheduler = Scheduler(pool, classes=tight_classes(), tracer=tracer)
        big = self.CHAIN if failure == "iteration-cap" else [
            (a, b) for a in range(40) for b in range(40) if a != b
        ]
        requests = [
            self._request(engine, 0.0, [(0, 1)]),
            self._request(failing, 1e-2, big),
            self._request(engine, 2e-2, [(1, 2)]),
        ]
        with pytest.raises(LobsterError) as raised:
            scheduler.run(requests)
        assert isinstance(raised.value, ExecutionError)

        tickets = [request.ticket for request in requests]
        assert sorted(scheduler.outcomes) == sorted(tickets)
        good, bad, late = (scheduler.outcomes[t] for t in tickets)
        assert good.status == COMPLETED
        for outcome in (bad, late):
            assert outcome.status == SHED
            assert outcome.reason.startswith("aborted: drain failed (")
            assert type(raised.value).__name__ in outcome.reason
        assert scheduler.backpressure == 0.0  # no queue left behind
        # (An OOM mid-variant leaves the interpreter's own iteration /
        # variant spans open; everything from engine.run up is closed.)
        assert not [
            s.name
            for s in tracer.spans
            if s.end_s is None and s.name not in ("iteration", "variant")
        ]

        # The same scheduler serves the next drain normally — including
        # the request that never arrived in the failed one.
        report = scheduler.run([self._request(engine, 0.0, [(1, 2)])])
        assert report.submitted == report.completed == 1
        assert report.rejected == report.shed == 0
