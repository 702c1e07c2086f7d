"""Latency–throughput curves for the online serving front-end.

The serving question is not "how many rows per second" but "what does
p99 latency do as offered load approaches capacity, and what happens
past it" — the load-mix-and-tail methodology of serving-systems
evaluation (cf. the SPEC CPU2026 representativeness discussion,
PAPERS.md).  This benchmark sweeps a seeded Poisson arrival stream of
transitive-closure queries over the scheduler at a ladder of offered
loads, for 1 and 4 devices, and asserts the canonical shapes:

* **the knee** — p99 latency rises as offered load crosses single-
  device capacity, and admission control engages (nonzero shed rate)
  past it; at low load nothing is shed;
* **scale-out** — micro-batching over 4 devices sustains a strictly
  higher offered load than 1 device under the same p99 bound;
* **fidelity** — every served result is bitwise identical to running
  the same database alone on a fresh single-device engine;
* **conservation** — no request is ever lost or duplicated, and p99 is
  nonzero at every operating point (the CI smoke gate).

Offered loads are expressed as multiples of measured single-device
capacity (1 / mean modeled service time at saturation, where every
micro-batch is full and folds into one fix point), so the curves keep
their shape if the cost model's constants change.  Everything runs on the
serve clock (simulated seconds); ``LOBSTER_BENCH_SCALE=tiny`` shrinks the
stream for CI.
"""

from __future__ import annotations

import pytest

from repro import DevicePool, LoadGenerator, LobsterEngine, Scheduler, SLOClass
from repro.workloads.analytics import TRANSITIVE_CLOSURE

from _harness import print_table, record, tiny_scale

TINY = tiny_scale()
N_NODES, N_EDGES = (10, 18) if TINY else (20, 45)
N_REQUESTS = 40 if TINY else 150
#: Deadline in units of mean service time.  Scaled down with the tiny
#: stream: overload only sheds once the backlog outgrows the deadline,
#: and a 40-request stream cannot build a 60-service-time backlog.
DEADLINE_MULT = 16.0 if TINY else 60.0
LOAD_MULTIPLES = [0.25, 0.5, 0.9, 1.5, 2.5]
DEVICE_COUNTS = [1, 4]
SEED = 31


def make_engine():
    return LobsterEngine(TRANSITIVE_CLOSURE, provenance="minmaxprob")


def make_factory(engine):
    def make_database(rng, index):
        edges = sorted(
            {
                (int(a), int(b))
                for a, b in rng.integers(0, N_NODES, size=(N_EDGES, 2))
                if a != b
            }
        )
        db = engine.create_database()
        db.add_facts("edge", edges, probs=[0.9] * len(edges))
        return db, {"edges": edges}

    return make_database


def calibrate_service_seconds(engine) -> float:
    """Mean modeled per-request service time of a coalescing burst —
    defines device capacity for the sweep.  A saturated device serves
    full micro-batches, each folded into one fix point and charging its
    members an equal share, so capacity is measured there: priced at a
    trickle of one-request batches, it would understate what the device
    sustains and put the knee past every offered load."""
    factory = make_factory(engine)
    gen = LoadGenerator(engine, factory, rate_hz=1e7, n_requests=12, seed=SEED)
    scheduler = Scheduler(n_devices=1)
    report = scheduler.run(gen.generate())
    assert report.completed == 12
    return report.metrics.histogram("serve.service_s").mean


def serving_classes(service_s: float) -> dict[str, SLOClass]:
    """One interactive class scaled to the measured service time, so the
    same shape assertions hold whatever the cost-model constants are."""
    return {
        "interactive": SLOClass(
            "interactive",
            deadline_s=DEADLINE_MULT * service_s,
            max_batch_delay_s=2.0 * service_s,
            max_batch_size=4,
            queue_limit=48,
            priority=0,
        )
    }


def run_point(engine, service_s, n_devices, multiple):
    capacity_hz = 1.0 / service_s  # single-device capacity
    rate = multiple * capacity_hz
    gen = LoadGenerator(
        engine, make_factory(engine), rate_hz=rate, n_requests=N_REQUESTS, seed=SEED
    )
    requests = gen.generate()
    scheduler = Scheduler(
        DevicePool(n_devices, policy="least-loaded"),
        classes=serving_classes(service_s),
    )
    report = scheduler.run(requests)
    return report, requests


@pytest.fixture(scope="module")
def sweep():
    engine = make_engine()
    service_s = calibrate_service_seconds(engine)
    points = {
        (n_devices, multiple): run_point(engine, service_s, n_devices, multiple)
        for n_devices in DEVICE_COUNTS
        for multiple in LOAD_MULTIPLES
    }
    return engine, service_s, points


def _rows(points, service_s, n_devices):
    rows = []
    for multiple in LOAD_MULTIPLES:
        report, _ = points[(n_devices, multiple)]
        hist = report.latency_histogram("interactive")
        batch = report.metrics.histogram("serve.batch_size")
        rows.append(
            [
                f"{multiple:.2f}x",
                f"{multiple / service_s:.0f}/s",
                report.completed,
                report.rejected + report.shed,
                f"{report.shed_rate * 100:.1f}%",
                f"{hist.p50 * 1e3:.3f}ms" if hist.count else "-",
                f"{hist.p99 * 1e3:.3f}ms" if hist.count else "-",
                f"{batch.mean:.2f}",
                f"{report.goodput_rps:.0f}/s",
            ]
        )
    return rows


def test_serving_latency_throughput(sweep, benchmark):
    engine, service_s, points = sweep

    def check():
        for n_devices in DEVICE_COUNTS:
            print_table(
                f"Serving — latency vs offered load, {n_devices} device(s)"
                + (" (tiny)" if TINY else ""),
                [
                    "offered",
                    "rate",
                    "done",
                    "refused",
                    "shed rate",
                    "p50",
                    "p99",
                    "batch",
                    "goodput",
                ],
                _rows(points, service_s, n_devices),
            )

        def report_at(n_devices, multiple):
            return points[(n_devices, multiple)][0]

        # (a) The knee: p99 grows as load crosses 1-device capacity ...
        low = report_at(1, 0.25).p99_latency_s("interactive")
        high = report_at(1, 1.5).p99_latency_s("interactive")
        assert high > low, (low, high)
        # ... and load shedding engages past capacity, never below it.
        assert report_at(1, 0.25).shed_rate == 0.0
        assert report_at(1, 2.5).shed_rate > 0.0
        # Shedding is explicit, not silent: every refused request ended
        # rejected-or-shed with a reason.
        overload = report_at(1, 2.5)
        refused = [o for o in overload.outcomes if o.status != "completed"]
        assert refused and all(o.reason for o in refused)

        # (b) Micro-batching over 4 devices sustains strictly more
        # offered load than 1 device at the same p99 bound.
        p99_bound = 20.0 * service_s

        def sustained(n_devices):
            ok = [
                multiple
                for multiple in LOAD_MULTIPLES
                if report_at(n_devices, multiple).shed_rate == 0.0
                and report_at(n_devices, multiple).p99_latency_s("interactive")
                <= p99_bound
            ]
            return max(ok) if ok else 0.0

        assert sustained(4) > sustained(1), (sustained(1), sustained(4))

        # Micro-batches actually coalesce under pressure.
        assert (
            points[(1, 2.5)][0].metrics.histogram("serve.batch_size").max > 1
        )

    record(benchmark, check)


def test_no_request_lost_and_p99_nonzero(sweep, benchmark):
    """The CI smoke gate: conservation at every operating point, and a
    meaningful (nonzero) p99 wherever anything completed."""
    engine, service_s, points = sweep

    def check():
        for (n_devices, multiple), (report, requests) in points.items():
            assert report.submitted == len(requests) == N_REQUESTS
            assert (
                report.completed + report.rejected + report.shed == N_REQUESTS
            ), (n_devices, multiple)
            tickets = [o.ticket for o in report.outcomes]
            assert len(tickets) == len(set(tickets)) == N_REQUESTS
            if report.completed:
                assert report.p99_latency_s("interactive") > 0.0

    record(benchmark, check)


def test_served_results_bitwise_match_solo_runs(sweep, benchmark):
    engine, service_s, points = sweep

    def check():
        report, requests = points[(4, 0.9)]
        by_ticket = {r.ticket: r for r in requests}
        solo_engine = LobsterEngine(
            TRANSITIVE_CLOSURE, provenance="minmaxprob", cache=False
        )
        checked = 0
        for outcome in report.outcomes:
            if outcome.status != "completed":
                continue
            request = by_ticket[outcome.ticket]
            solo_db = solo_engine.create_database()
            edges = outcome.meta["edges"]
            solo_db.add_facts("edge", edges, probs=[0.9] * len(edges))
            solo_engine.run(solo_db)
            served_rows, served_probs = request.database.result_probs("path")
            solo_rows, solo_probs = solo_db.result_probs("path")
            assert served_rows == solo_rows
            assert list(served_probs) == list(solo_probs)  # bitwise
            checked += 1
        assert checked == report.completed > 0

    record(benchmark, check)


def test_serving_benchmark_4_devices(benchmark):
    def run():
        engine = make_engine()
        service_s = calibrate_service_seconds(engine)
        run_point(engine, service_s, 4, 0.9)

    benchmark.pedantic(run, rounds=1, iterations=1)
