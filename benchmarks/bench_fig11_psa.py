"""Fig. 11: Probabilistic Static Analysis speedup over Scallop, plus the
§6.4 ProbLog exact-inference timeout observation.

Expected shape: Lobster beats the tuple-at-a-time Scallop baseline on
every subject, with larger margins on larger subjects; ProbLog's exact
inference exceeds any reasonable budget on all but trivial instances.
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine
from repro.baselines import ProbLogEngine, ScallopInterpreter
from repro.workloads import static_analysis

from _harness import record, print_table, speedup, timed

SUBJECTS = list(static_analysis.SUBJECTS)


@pytest.fixture(scope="module")
def results():
    rows = {}
    for subject in SUBJECTS:
        instance = static_analysis.psa_instance(subject)

        # Fresh database per trial, built untimed — a fixpointed db
        # re-runs warm, and populating shouldn't be charged to the engine.
        def setup_lobster():
            lobster = LobsterEngine(static_analysis.PROGRAM, provenance="minmaxprob")
            ldb = lobster.create_database()
            static_analysis.populate_database(ldb, instance)
            return lobster, ldb

        def setup_scallop():
            scallop = ScallopInterpreter(
                static_analysis.PROGRAM, provenance="minmaxprob", timeout_seconds=120
            )
            sdb = scallop.create_database()
            static_analysis.populate_database(sdb, instance)
            return scallop, sdb

        run = lambda state: state[0].run(state[1])
        rows[subject] = (timed(run, setup=setup_scallop), timed(run, setup=setup_lobster))
    return rows


def test_fig11_psa_speedup(results, benchmark):
    def check():
        table = [
            [subject, scallop.label, lobster.label, speedup(scallop, lobster)]
            for subject, (scallop, lobster) in results.items()
        ]
        print_table(
            "Fig. 11 — Probabilistic Static Analysis, speedup over Scallop",
            ["subject", "scallop", "lobster", "speedup"],
            table,
        )
        # Typed ratios: unmeasurable subjects are explicit (ratio.ok is
        # False), and the shape assertion cannot pass vacuously.
        ratios = {
            subject: speedup(scallop, lobster)
            for subject, (scallop, lobster) in results.items()
        }
        assert any(r.ok for r in ratios.values()), "no subject measurable"
        for subject, ratio in ratios.items():
            if ratio.ok:
                assert ratio.value > 1.0, subject


    record(benchmark, check)

def test_problog_exact_inference_times_out(benchmark):
    def check():
        """§6.4: ProbLog hits the budget on PSA (exact WMC is exponential)."""
        instance = static_analysis.psa_instance("sunflow-core")
        problog = ProbLogEngine(static_analysis.PROGRAM, timeout_seconds=5.0)
        pdb = problog.create_database()
        static_analysis.populate_database(pdb, instance)
        measurement = timed(lambda: problog.run(pdb))
        print(f"ProbLog on sunflow-core: {measurement.label}")
        assert measurement.status == "timeout"


    record(benchmark, check)

def test_problog_finishes_on_trivial_instance(benchmark):
    def check():
        """Sanity: the exact engine is correct where it is tractable."""
        problog = ProbLogEngine(
            "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
            timeout_seconds=30,
        )
        pdb = problog.create_database()
        pdb.add_facts("edge", [(0, 1), (1, 2)], probs=[0.5, 0.5])
        problog.run(pdb)
        assert problog.query_prob(pdb, "path", (0, 2)) == pytest.approx(0.25)


    record(benchmark, check)

def test_fig11_benchmark_psa_lobster(benchmark):
    instance = static_analysis.psa_instance("sunflow-core")

    def run():
        engine = LobsterEngine(static_analysis.PROGRAM, provenance="minmaxprob")
        db = engine.create_database()
        static_analysis.populate_database(db, instance)
        engine.run(db)

    benchmark.pedantic(run, rounds=2, iterations=1)
