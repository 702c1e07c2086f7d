"""Tracing overhead and determinism gates for the obs/ subsystem.

Observability that perturbs the system under observation is worse than
none, so the tracer ships with two hard gates, both benchmarked here on
the serving workload (the hottest instrumented path):

* **off == free** — a scheduler constructed without a tracer and one
  constructed with the NULL_TRACER produce *bitwise identical* modeled
  results (latencies, busy seconds, makespan): the disabled
  instrumentation sites cost one attribute read and change nothing;
* **on < 5% wall overhead** — full span collection (without per-kernel
  spans, the opt-in firehose) costs under 5% host wall time against the
  untraced baseline at full benchmark size.  Wall time is measured over
  several trials with a warmup; the gate is skipped under
  ``LOBSTER_BENCH_SCALE=tiny`` where launch latency dominates and the ratio
  is noise;
* **determinism** — two same-seed traced runs export byte-identical
  Perfetto JSON (the replay property the whole obs/ design serves).
"""

from __future__ import annotations

import pytest

from repro import LoadGenerator, LobsterEngine, ProgramCache, Scheduler, Tracer
from repro.obs import NULL_TRACER, dumps_trace_events, validate_trace_events
from repro.obs import to_trace_events
from repro.workloads.analytics import TRANSITIVE_CLOSURE

from _harness import print_table, record, timed, tiny_scale

TINY = tiny_scale()
N_REQUESTS = 20 if TINY else 120
N_NODES, N_EDGES = (10, 20) if TINY else (18, 40)
WALL_TRIALS = 2 if TINY else 4
SEED = 29
OVERHEAD_GATE = 0.05


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
        return db, {}

    return make_database


def serve_once(tracer):
    """One full serving drain on a fresh engine + fresh program cache
    (so cache_hit span attributes match run to run)."""
    engine = LobsterEngine(
        TRANSITIVE_CLOSURE, provenance="minmaxprob", cache=ProgramCache()
    )
    gen = LoadGenerator(
        engine, make_factory(engine), rate_hz=3000.0, n_requests=N_REQUESTS,
        seed=SEED,
    )
    scheduler = Scheduler(n_devices=2, tracer=tracer)
    return scheduler.run(gen.generate())


def wall_measurement(tracer_factory, trials=WALL_TRIALS):
    """Multi-trial host wall time of a serving drain; one untimed warmup
    (shared harness path — same statistics as every other suite)."""
    return timed(lambda: serve_once(tracer_factory()), trials=trials, warmups=1)


@pytest.fixture(scope="module")
def measurements():
    untraced = serve_once(None)
    nulled = serve_once(NULL_TRACER)
    traced_tracer = Tracer(seed=SEED)
    traced = serve_once(traced_tracer)
    wall_off = wall_measurement(lambda: None)
    wall_on = wall_measurement(lambda: Tracer(seed=SEED))
    return untraced, nulled, traced, traced_tracer, wall_off, wall_on


def test_disabled_tracer_is_bitwise_free(measurements, benchmark):
    untraced, nulled, traced, _, _, _ = measurements

    def check():
        for other in (nulled, traced):
            assert other.completed == untraced.completed
            assert other.makespan_s == untraced.makespan_s
            assert [o.latency_s for o in other.outcomes] == [
                o.latency_s for o in untraced.outcomes
            ]
            assert [o.service_s for o in other.outcomes] == [
                o.service_s for o in untraced.outcomes
            ]
        print_table(
            "tracing neutrality (modeled results)",
            ["config", "completed", "makespan ms"],
            [
                [name, rep.completed, f"{rep.makespan_s * 1e3:.6f}"]
                for name, rep in (
                    ("untraced", untraced),
                    ("null tracer", nulled),
                    ("full tracing", traced),
                )
            ],
        )

    record(benchmark, check)


def test_wall_overhead_under_gate(measurements, benchmark):
    _, _, _, tracer, wall_off, wall_on = measurements

    def check():
        overhead = wall_on.seconds / wall_off.seconds - 1.0
        print_table(
            "tracing wall overhead",
            ["config", "wall time", "spans", "overhead"],
            [
                ["untraced", wall_off.label, "-", "-"],
                [
                    "traced",
                    wall_on.label,
                    len(tracer.spans),
                    f"{overhead * 100:+.1f}%",
                ],
            ],
        )
        assert tracer.spans  # the traced run really collected a timeline
        if TINY:
            pytest.skip("tiny inputs: wall ratio is launch-latency noise")
        assert overhead < OVERHEAD_GATE, (
            f"tracing overhead {overhead * 100:.1f}% exceeds "
            f"{OVERHEAD_GATE * 100:.0f}% gate"
        )

    record(benchmark, check)


def test_same_seed_runs_export_identical_json(measurements, benchmark):
    def check():
        a, b = Tracer(seed=SEED), Tracer(seed=SEED)
        serve_once(a)
        serve_once(b)
        blob_a, blob_b = dumps_trace_events(a.spans), dumps_trace_events(b.spans)
        assert blob_a == blob_b
        n_events = validate_trace_events(to_trace_events(a.spans))
        print_table(
            "trace determinism",
            ["run", "spans", "events", "json bytes"],
            [
                ["seed 29 / A", len(a.spans), n_events, len(blob_a)],
                ["seed 29 / B", len(b.spans), n_events, len(blob_b)],
            ],
        )

    record(benchmark, check)
