"""Fig. 12: RNA SSP speedup over Scallop as a function of sequence length.

The paper's shape: at the shortest length (28) the GPU engine's fixed
overheads make it comparable to (even slightly slower than) Scallop; the
speedup then grows with sequence length, reaching orders of magnitude on
long sequences.  We sweep a scaled-down length range and assert the
speedup is increasing and crosses 1x early.
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine
from repro.baselines import ScallopInterpreter
from repro.workloads import rna

from _harness import record, print_table, speedup, timed

#: Scaled-down ArchiveII sweep (the CPU baseline is the time sink).
LENGTHS = [28, 40, 52, 64]


@pytest.fixture(scope="module")
def results():
    rows = []
    for length in LENGTHS:
        instance = rna.generate_instance(length, seed=length)

        # Fresh database per trial, built untimed — a fixpointed db
        # re-runs warm.
        def setup_lobster():
            lobster = LobsterEngine(
                rna.PROGRAM, provenance="prob-top-1-proofs", proof_capacity=128
            )
            ldb = lobster.create_database()
            rna.populate_database(ldb, instance)
            return lobster, ldb

        def setup_scallop():
            scallop = ScallopInterpreter(
                rna.PROGRAM, provenance="top-k-proofs", k=1, timeout_seconds=600
            )
            sdb = scallop.create_database()
            rna.populate_database(sdb, instance)
            return scallop, sdb

        run = lambda state: state[0].run(state[1])
        scallop_m = timed(run, setup=setup_scallop)
        lobster_m = timed(run, setup=setup_lobster)
        rows.append((length, scallop_m, lobster_m))
    return rows


def test_fig12_rna_speedup_grows_with_length(results, benchmark):
    def check():
        table = []
        speedups = []
        for length, scallop, lobster in results:
            ratio = speedup(scallop, lobster)
            # A *baseline* timeout at the long end means "effectively
            # infinite" speedup — the paper's orders-of-magnitude regime.
            # A Lobster failure is a 0x speedup, never silently inf.
            if ratio.ok:
                speedups.append(ratio.value)
            elif ratio.status.startswith("baseline-"):
                speedups.append(float("inf"))
            else:
                speedups.append(0.0)
            table.append([length, scallop.label, lobster.label, str(ratio)])
        print_table(
            "Fig. 12 — RNA SSP, speedup over Scallop vs sequence length",
            ["length", "scallop", "lobster", "speedup"],
            table,
        )
        # Shape 1: the speedup grows with sequence length overall.
        assert speedups[-1] > speedups[0]
        # Shape 2: by the end of the sweep Lobster is clearly ahead.
        assert speedups[-1] > 2.0


    record(benchmark, check)

def test_fig12_benchmark_rna_lobster(benchmark):
    instance = rna.generate_instance(52, seed=52)

    def run():
        engine = LobsterEngine(
            rna.PROGRAM, provenance="prob-top-1-proofs", proof_capacity=128
        )
        db = engine.create_database()
        rna.populate_database(db, instance)
        engine.run(db)

    benchmark.pedantic(run, rounds=2, iterations=1)
