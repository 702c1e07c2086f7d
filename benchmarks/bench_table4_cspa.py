"""Table 4: CSPA runtimes — Lobster vs FVLog on httpd/linux/postgres.

The paper reports the two engines approximately matched, with Lobster
holding a modest geometric-mean advantage (1.27x) attributed to APM-level
optimizations.
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine
from repro.baselines import FVLogEngine
from repro.workloads.analytics import CSPA, cspa_instance

from _harness import geomean as geomean_ratio
from _harness import record, print_table, speedup, timed

SUBJECTS = ["httpd", "linux", "postgres"]


def load(engine, subject):
    facts = cspa_instance(subject)
    db = engine.create_database()
    db.add_facts("assign", facts["assign"])
    db.add_facts("dereference", facts["dereference"])
    return db


@pytest.fixture(scope="module")
def results():
    rows = {}
    for subject in SUBJECTS:
        # Fresh engine + database per trial, built untimed — a
        # fixpointed db re-runs warm.
        def setup_lobster():
            lobster = LobsterEngine(CSPA, provenance="unit")
            return lobster, load(lobster, subject)

        def setup_fvlog():
            fvlog = FVLogEngine(CSPA)
            return fvlog, load(fvlog, subject)

        run = lambda state: state[0].run(state[1])
        rows[subject] = (timed(run, setup=setup_lobster), timed(run, setup=setup_fvlog))
    return rows


def test_table4_cspa(results, benchmark):
    def check():
        table = [
            [subject, lobster.label, fvlog.label, speedup(fvlog, lobster)]
            for subject, (lobster, fvlog) in results.items()
        ]
        print_table(
            "Table 4 — CSPA runtime",
            ["dataset", "lobster", "fvlog", "lobster adv."],
            table,
        )
        # Shape: approximately matched with a Lobster geomean edge
        # (typed geomean; an unmeasurable subject fails loudly instead
        # of being skipped).
        ratios = [
            speedup(fvlog, lobster) for lobster, fvlog in results.values()
        ]
        assert all(r.ok for r in ratios), [r.status for r in ratios]
        geomean = geomean_ratio(ratios)
        print(
            f"CSPA geomean Lobster advantage: {geomean} (paper: 1.27x)"
        )
        assert geomean.value > 0.9


    record(benchmark, check)

def test_table4_benchmark_cspa_lobster(benchmark):
    def run():
        engine = LobsterEngine(CSPA, provenance="unit")
        db = load(engine, "httpd")
        engine.run(db)

    benchmark.pedantic(run, rounds=2, iterations=1)
