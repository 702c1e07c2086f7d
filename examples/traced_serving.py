"""End-to-end tracing quickstart: one span timeline from request to kernel.

A :class:`~repro.obs.Tracer` shared by the serving scheduler and the
engines under it records every layer of one run — request lanes
(admission, queue wait, batch wait, execute), device micro-batch lanes,
the engine's stratum/iteration/variant tree, and (opt-in) individual
kernel spans — all on the *modeled* clocks.  No host wall time enters a
span, so the same seed prints this report and exports byte-identical
Perfetto JSON on every machine, every run.

The script serves a short transitive-closure stream, prints the
aggregated profile and one request's latency accounting, and writes a
Chrome trace-event file you can open at https://ui.perfetto.dev.

Usage::

    python examples/traced_serving.py [trace-output.json]
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro import (
    LoadGenerator,
    LobsterEngine,
    ProgramCache,
    Scheduler,
    SLOClass,
    Tracer,
)
from repro.obs import export_perfetto, profile, validate_trace_events
from repro.workloads.analytics import TRANSITIVE_CLOSURE

TINY = os.environ.get("LOBSTER_BENCH_SCALE") == "tiny"
N_REQUESTS = 12 if TINY else 40
SEED = 13


def make_database_factory(engine):
    def make_database(rng, index):
        n_nodes = 14
        pairs = rng.integers(0, n_nodes, size=(30, 2))
        edges = sorted({(int(a), int(b)) for a, b in pairs if a != b})
        db = engine.create_database()
        db.add_facts("edge", edges, probs=[0.9] * len(edges))
        return db

    return make_database


def serve_traced(tracer: Tracer):
    engine = LobsterEngine(
        TRANSITIVE_CLOSURE, provenance="minmaxprob", cache=ProgramCache()
    )
    classes = {
        "interactive": SLOClass(
            "interactive", deadline_s=0.05, max_batch_delay_s=0.0005,
            max_batch_size=4, queue_limit=64, priority=0,
        ),
    }
    generator = LoadGenerator(
        engine,
        make_database_factory(engine),
        rate_hz=2000.0,
        n_requests=N_REQUESTS,
        seed=SEED,
    )
    scheduler = Scheduler(n_devices=2, classes=classes, tracer=tracer)
    return scheduler.run(generator.generate())


def main() -> None:
    tracer = Tracer(seed=SEED)
    report = serve_traced(tracer)
    print(
        f"served {report.completed}/{report.submitted} requests over "
        f"{report.makespan_s * 1e3:.3f} modeled ms; "
        f"{len(tracer.spans)} spans collected\n"
    )

    # 1. The aggregated profile: where did the modeled time go?
    print(profile(tracer, title="traced serving profile"))

    # 2. Per-request accounting: the span children of one request lane
    # sum to exactly its reported latency — no dark time.
    outcome = report.outcomes[0]
    lane = next(
        s for s in tracer.spans
        if s.name == "serve.request" and s.attrs["ticket"] == outcome.ticket
    )
    children = [
        s for s in tracer.spans
        if s.parent_id == lane.span_id and s.kind != "instant"
    ]
    accounted = sum(s.duration_s for s in children)
    print(f"\nrequest #{outcome.ticket} latency accounting:")
    for span in children:
        print(f"  {span.name:<16} {span.duration_s * 1e6:>9.3f} us")
    print(f"  {'total':<16} {accounted * 1e6:>9.3f} us "
          f"(reported latency {outcome.latency_s * 1e6:.3f} us)")
    assert abs(accounted - outcome.latency_s) <= 1e-12

    # 3. Perfetto export — open the file at https://ui.perfetto.dev.
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        tempfile.mkdtemp(prefix="lobster-trace-"), "trace.json"
    )
    obj = export_perfetto(tracer.spans, path)
    n_events = validate_trace_events(obj)
    print(f"\nwrote {n_events} trace events to {path}")


if __name__ == "__main__":
    main()
