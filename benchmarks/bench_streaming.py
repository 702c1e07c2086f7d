"""Streaming IVM: per-tick maintain latency vs cold recompute.

Following the update-latency-distribution discipline of streaming-system
benchmarking (and SPEC CPU2026's insistence on reporting distributions,
not just end-state throughput — PAPERS.md), this benchmark drives two
long-lived materialized views through seeded sliding-window streams on
the serve clock and reports the **per-tick maintain latency** (p50 /
p95 / p99 of modeled service seconds, the quantity the serving layer
charges) against the cost of a cold from-scratch recompute of the same
database state:

* **sliding-window reachability** — the canonical streaming standing
  query: single-source reachability over a deep, stable backbone graph
  while a window of "observation tap" edges churns at its periphery.
  Cold recompute pays the backbone's whole iteration ladder every time;
  the DRed maintain pass touches only the churn's blast radius (its
  per-tick cost is flat in the backbone depth);
* **sliding-window TC** — the same churn under all-pairs transitive
  closure (a quadratic standing result), which must still be at least
  5x cheaper to maintain than to recompute at steady state;
* **static-analysis churn** — the 28-rule PSA taint analysis
  (minmaxprob) with the ``taint_source`` annotations churning (live
  analysis as code/annotation edits): a wide, shallow program where
  stratum skipping and delta seeding still win, but less dramatically —
  the benchmark reports the honest ratio and asserts a weaker floor.

Fidelity is asserted inline: after the measured ticks, the maintained
view must equal the cold run bit-for-bit (rows and probabilities).
Results go to a versioned markdown summary under ``benchmarks/results/``
(`streaming-<stamp>.md`).  ``LOBSTER_BENCH_SCALE=tiny`` shrinks sizes for
CI smoke.
"""

from __future__ import annotations

import datetime
import platform
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DevicePool,
    LobsterEngine,
    MaterializedView,
    SlidingWindow,
    StreamScheduler,
    __version__,
)
from repro.serve import MetricsRegistry
from repro.stream import RelationStream
from repro.workloads.analytics import TRANSITIVE_CLOSURE
from repro.workloads.static_analysis import PROGRAM as PSA_PROGRAM
from repro.workloads.static_analysis import psa_instance

from _harness import print_table, record, tiny_scale

TINY = tiny_scale()

#: Window-workload sizing: backbone depth drives the cold iteration
#: ladder; the window churns leaf edges (small blast radius).
TC_BACKBONE_N = 60 if TINY else 220
REACH_BACKBONE_N = 80 if TINY else 300
TC_WINDOW = 10 if TINY else 24
TC_PER_TICK = 2
TC_WARMUP = TC_WINDOW + 6
TC_MEASURE = 8 if TINY else 25
#: Acceptance floors for the small-churn window workloads.
TC_SPEEDUP_FLOOR = 1.2 if TINY else 5.0
REACH_SPEEDUP_FLOOR = 1.5 if TINY else 7.0

REACHABILITY = """
rel reach(y) :- source(y) or (reach(x) and edge(x, y)).
query reach
"""

PSA_SUBJECT = "sunflow-core" if TINY else "sunflow"
PSA_MEASURE = 6 if TINY else 12
PSA_SPEEDUP_FLOOR = 1.0 if TINY else 1.5

SEED = 17
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def percentiles(values) -> tuple[float, float, float]:
    values = np.asarray(values)
    return (
        float(np.median(values)),
        float(np.quantile(values, 0.95)),
        float(np.quantile(values, 0.99)),
    )


def steady_state_run(view, window, warmup, measure):
    """Warm the view to steady state (window full, allocation sites
    warm) through the stream scheduler, then measure per-tick maintain
    latency over ``measure`` further ticks."""
    scheduler = StreamScheduler(
        pool=DevicePool(1, policy="least-loaded"), metrics=MetricsRegistry()
    )
    scheduler.register(view, window, period_s=5e-3)
    scheduler.run(warmup)
    stream_report = scheduler.run(measure)
    assert stream_report.ticks == measure
    return [delta.service_seconds for delta in stream_report.deltas], stream_report


def cold_recompute_seconds(build_database, trials=3) -> float:
    """Median modeled cost of evaluating the current state from scratch
    (fresh database, cold allocation sites; the program cache keeps
    compilation out of both sides of the comparison)."""
    samples = []
    for _ in range(trials):
        engine, database = build_database()
        samples.append(engine.run(database).service_seconds)
    return float(np.median(samples))


def backbone_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n)] + [
        (i, i + 7) for i in range(0, n - 7, 9)
    ]


# ---------------------------------------------------------------------------
# Workload 1: sliding-window single-source reachability


@pytest.fixture(scope="module")
def reach_results():
    n = REACH_BACKBONE_N
    leaves = [(i, 1000 + i) for i in range(n)]
    engine = LobsterEngine(REACHABILITY)
    database = engine.create_database()
    database.add_facts("source", [(0,)])
    database.add_facts("edge", backbone_edges(n))
    engine.run(database)
    view = MaterializedView(engine, database=database, name="window_reach")
    window = SlidingWindow(
        RelationStream("edge", leaves, TC_PER_TICK, seed=SEED), TC_WINDOW
    )
    maintain, stream_report = steady_state_run(view, window, TC_WARMUP, TC_MEASURE)
    assert stream_report.maintained_fraction > 0.9

    live = window.live_rows("edge") + backbone_edges(n)

    def build_cold():
        cold_engine = LobsterEngine(REACHABILITY)
        cold_db = cold_engine.create_database()
        cold_db.add_facts("source", [(0,)])
        cold_db.add_facts("edge", sorted(live))
        return cold_engine, cold_db

    cold = cold_recompute_seconds(build_cold)
    cold_engine, cold_db = build_cold()
    cold_engine.run(cold_db)
    assert set(view.result("reach")) == set(cold_db.result("reach").rows())
    return maintain, cold


# ---------------------------------------------------------------------------
# Workload 2: sliding-window TC


@pytest.fixture(scope="module")
def tc_results():
    n = TC_BACKBONE_N
    backbone = backbone_edges(n)
    leaves = [(i, 1000 + i) for i in range(n)]

    engine = LobsterEngine(TRANSITIVE_CLOSURE)
    database = engine.create_database()
    database.add_facts("edge", backbone)
    engine.run(database)
    view = MaterializedView(engine, database=database, name="window_tc")
    window = SlidingWindow(
        RelationStream("edge", leaves, TC_PER_TICK, seed=SEED), TC_WINDOW
    )
    maintain, stream_report = steady_state_run(view, window, TC_WARMUP, TC_MEASURE)
    assert stream_report.maintained_fraction > 0.9  # retractions every tick

    live = window.live_rows("edge") + backbone

    def build_cold():
        cold_engine = LobsterEngine(TRANSITIVE_CLOSURE)
        cold_db = cold_engine.create_database()
        cold_db.add_facts("edge", sorted(live))
        return cold_engine, cold_db

    cold = cold_recompute_seconds(build_cold)
    # Bitwise fidelity of the maintained view at the measurement's end.
    cold_engine, cold_db = build_cold()
    cold_engine.run(cold_db)
    assert set(view.result("path")) == set(cold_db.result("path").rows())
    return maintain, cold


# ---------------------------------------------------------------------------
# Workload 3: static-analysis annotation churn


@pytest.fixture(scope="module")
def psa_results():
    instance = psa_instance(PSA_SUBJECT)
    churn_rel = "taint_source"
    base_rows = instance["probabilistic"][churn_rel][0]

    def load_persistent(database):
        for name, rows in instance["discrete"].items():
            database.add_facts(name, rows)
        for name, (rows, probs) in instance["probabilistic"].items():
            if name == churn_rel:
                continue
            database.add_facts(name, rows, probs=list(probs))

    engine = LobsterEngine(PSA_PROGRAM, provenance="minmaxprob")
    database = engine.create_database()
    load_persistent(database)
    engine.run(database)
    view = MaterializedView(engine, database=database, name="psa_churn")
    stream = RelationStream(
        churn_rel, base_rows, 1, seed=SEED, prob_range=(0.7, 1.0)
    )
    window = SlidingWindow(stream, max(2, len(stream) - 2))
    maintain, stream_report = steady_state_run(
        view, window, len(stream) + 4, PSA_MEASURE
    )
    assert stream_report.maintained_fraction > 0.9

    probs = {
        event.row: event.prob
        for tick in range(4 * len(stream))
        for event in stream.batch(tick)
    }
    live = window.live_rows(churn_rel)

    def build_cold():
        cold_engine = LobsterEngine(PSA_PROGRAM, provenance="minmaxprob")
        cold_db = cold_engine.create_database()
        load_persistent(cold_db)
        cold_db.add_facts(churn_rel, live, probs=[probs[r] for r in live])
        return cold_engine, cold_db

    cold = cold_recompute_seconds(build_cold)
    cold_engine, cold_db = build_cold()
    cold_engine.run(cold_db)
    for relation in ("alarm_critical", "alarm_major", "alarm_minor"):
        warm = view.result(relation)
        reference = cold_engine.query_probs(cold_db, relation)
        assert set(warm) == set(reference), relation
        for row, prob in warm.items():
            assert prob == pytest.approx(reference[row], abs=1e-9)
    return maintain, cold


# ---------------------------------------------------------------------------


def write_summary(rows: list[list[str]]) -> None:
    stamp = datetime.datetime.now()
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"streaming-{stamp:%Y%m%d-%H%M%S}.md"
    lines = [
        f"# Streaming IVM summary — {stamp:%Y-%m-%d %H:%M:%S}",
        "",
        f"- lobster-repro version: `{__version__}`",
        f"- Python: `{platform.python_version()}` on `{platform.platform()}`",
        f"- mode: {'tiny (smoke sizes)' if TINY else 'full'}",
        "",
        "Per-tick maintain latency (modeled serve-clock seconds) at steady",
        "state vs a cold from-scratch recompute of the same database state.",
        "",
        "| workload | maintain p50 | p95 | p99 | cold p50 | speedup |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    lines.append("")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


def test_streaming_update_latency(reach_results, tc_results, psa_results, benchmark):
    def check():
        table = []
        summary_rows = []
        for name, (maintain, cold), floor in (
            ("sliding-window reachability", reach_results, REACH_SPEEDUP_FLOOR),
            ("sliding-window TC", tc_results, TC_SPEEDUP_FLOOR),
            ("static-analysis churn", psa_results, PSA_SPEEDUP_FLOOR),
        ):
            p50, p95, p99 = percentiles(maintain)
            speedup = cold / p50
            table.append(
                [
                    name,
                    f"{p50 * 1e6:.0f}us",
                    f"{p95 * 1e6:.0f}us",
                    f"{p99 * 1e6:.0f}us",
                    f"{cold * 1e6:.0f}us",
                    f"{speedup:.1f}x",
                ]
            )
            summary_rows.append(table[-1])
            assert p99 > 0.0
            assert speedup >= floor, (
                f"{name}: maintain p50 {p50 * 1e6:.0f}us vs cold "
                f"{cold * 1e6:.0f}us = {speedup:.1f}x < {floor}x floor"
            )
        print_table(
            "Streaming IVM — per-tick maintain latency vs cold recompute",
            ["workload", "maintain p50", "p95", "p99", "cold p50", "speedup"],
            table,
        )
        write_summary(summary_rows)

    record(benchmark, check)


def test_streaming_benchmark_tick(tc_results, benchmark):
    """pytest-benchmark hook: one steady-state maintain tick's cost is
    already captured in the fixture; re-run a tiny end-to-end slice."""

    def run():
        engine = LobsterEngine(TRANSITIVE_CLOSURE)
        view = MaterializedView(engine, name="bench_tick")
        window = SlidingWindow(
            RelationStream("edge", [(i, i + 1) for i in range(20)], 2, seed=1), 5
        )
        for _ in range(8):
            view.apply(window.advance())

    benchmark.pedantic(run, rounds=2, iterations=1)
