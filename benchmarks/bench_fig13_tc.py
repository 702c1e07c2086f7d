"""Fig. 13: Transitive Closure speedup over Soufflé — Lobster vs FVLog.

The paper runs TC on SNAP graphs and reports both GPU systems' speedups
over the multicore-CPU Soufflé.  Expected shape: both GPU engines beat
Soufflé consistently; Lobster generally matches or beats FVLog thanks to
APM-level optimizations (FVLog has no IR).
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine
from repro.baselines import FVLogEngine, SouffleEngine
from repro.workloads.analytics import TRANSITIVE_CLOSURE
from repro.workloads.graphs import load_graph

from _harness import geomean as geomean_ratio
from _harness import record, Measurement, print_table, speedup, timed

#: Subset of Fig. 13's graphs, ordered as in the paper.
GRAPHS = [
    "Gnu31",
    "p2p-Gnu24",
    "com-dblp",
    "p2p-Gnu25",
    "loc-Brightkite",
    "cit-HepTh",
    "usroad",
    "p2p-Gnu30",
    "SF.cedge",
    "fe-body",
    "fe-sphere",
]


# Every trial evaluates a fresh, untimed-built database: re-running a
# fixpointed db measures the warm incremental path, not Fig. 13's cold
# evaluation, and timing db construction would charge setup to the engine.

def run_lobster(edges) -> Measurement:
    def setup():
        engine = LobsterEngine(TRANSITIVE_CLOSURE, provenance="unit")
        db = engine.create_database()
        db.add_facts("edge", edges)
        return engine, db

    return timed(lambda state: state[0].run(state[1]), setup=setup)


def run_fvlog(edges) -> Measurement:
    def setup():
        engine = FVLogEngine(TRANSITIVE_CLOSURE)
        db = engine.create_database()
        db.add_facts("edge", edges)
        return engine, db

    return timed(lambda state: state[0].run(state[1]), setup=setup)


def run_souffle(edges) -> Measurement:
    def setup():
        engine = SouffleEngine(TRANSITIVE_CLOSURE)
        db = engine.create_database()
        db.setdefault("edge", set()).update(edges)
        return engine, db

    return timed(lambda state: state[0].run(state[1]), setup=setup)


@pytest.fixture(scope="module")
def results():
    rows = {}
    for name in GRAPHS:
        edges = load_graph(name)
        rows[name] = (
            len(edges),
            run_souffle(edges),
            run_lobster(edges),
            run_fvlog(edges),
        )
    return rows


def test_fig13_speedup_over_souffle(results, benchmark):
    def check():
        table = []
        lobster_wins = 0
        for name, (n_edges, souffle, lobster, fvlog) in results.items():
            table.append(
                [
                    name,
                    n_edges,
                    souffle.label,
                    lobster.label,
                    fvlog.label,
                    speedup(souffle, lobster),
                    speedup(souffle, fvlog),
                ]
            )
            if lobster.seconds and souffle.seconds and lobster.seconds < souffle.seconds:
                lobster_wins += 1
        print_table(
            "Fig. 13 — Transitive Closure, speedup over Souffle",
            ["graph", "|E|", "souffle", "lobster", "fvlog", "lob x", "fv x"],
            table,
        )
        # Shape: Lobster beats the CPU engine on the large majority of graphs.
        assert lobster_wins >= len(results) - 2


    record(benchmark, check)

def test_fig13_lobster_competitive_with_fvlog(results, benchmark):
    def check():
        """Lobster's IR optimizations keep it at least at FVLog's level on
        most graphs (geomean over finished runs — a typed Ratio, so
        unmeasurable cells are explicit)."""
        ratios = [
            speedup(fvlog, lobster)
            for (_, _, lobster, fvlog) in results.values()
        ]
        geomean = geomean_ratio(ratios)
        assert geomean.ok, "no graph finished on both engines"
        print(f"Lobster vs FVLog geomean advantage on TC: {geomean}")
        assert geomean.value >= 0.9  # at worst within 10% of the no-IR engine


    record(benchmark, check)

def test_fig13_benchmark_tc_lobster(benchmark):
    edges = load_graph("fe-sphere")

    def run():
        engine = LobsterEngine(TRANSITIVE_CLOSURE, provenance="unit")
        db = engine.create_database()
        db.add_facts("edge", edges)
        engine.run(db)

    benchmark.pedantic(run, rounds=2, iterations=1)
