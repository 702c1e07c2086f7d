"""Fig. 9: neurosymbolic inference speedup over Scallop.

The neural component is pretrained (simulated); only the symbolic engine
differs.  The paper's shape: Lobster wins on all four tasks — CLUTRR by
the largest margin, HWF by the smallest.
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine, ProgramCache
from repro.baselines import ScallopInterpreter
from repro.workloads import clutrr, hwf, pacman, pathfinder

from _harness import record, print_table, speedup, timed


def run_pathfinder(engine_kind: str):
    samples = pathfinder.make_dataset(6, 6, seed=1)

    def run():
        for index, instance in enumerate(samples):
            probs = pathfinder.pretrained_edge_probs(instance, seed=index)
            if engine_kind == "lobster":
                engine = LobsterEngine(
                    pathfinder.PROGRAM,
                    provenance="diff-top-1-proofs",
                    proof_capacity=128,
                )
                db = engine.create_database()
                pathfinder.populate_database(db, instance, probs)
                engine.run(db)
            else:
                engine = ScallopInterpreter(
                    pathfinder.PROGRAM, provenance="top-k-proofs", k=1
                )
                db = engine.create_database()
                pathfinder.populate_database(db, instance, probs)
                engine.run(db)

    return timed(run)


def run_pacman(engine_kind: str):
    samples = pacman.make_dataset(8, 4, seed=2)

    def run():
        for index, instance in enumerate(samples):
            probs = pacman.pretrained_safety_probs(instance, seed=index)
            if engine_kind == "lobster":
                engine = LobsterEngine(
                    pacman.PROGRAM, provenance="diff-top-1-proofs", proof_capacity=256
                )
                db = engine.create_database()
                pacman.populate_database(db, instance, probs)
                engine.run(db)
            else:
                engine = ScallopInterpreter(
                    pacman.PROGRAM, provenance="top-k-proofs", k=1
                )
                db = engine.create_database()
                pacman.populate_database(db, instance, probs)
                engine.run(db)

    return timed(run)


def run_hwf(engine_kind: str):
    samples = hwf.make_dataset(9, 4, seed=3)

    def run():
        for instance in samples:
            if engine_kind == "lobster":
                engine = LobsterEngine(
                    hwf.PROGRAM, provenance="diff-top-1-proofs", proof_capacity=32
                )
                db = engine.create_database()
                hwf.populate_database(db, instance, beam=2)
                engine.run(db)
            else:
                engine = ScallopInterpreter(hwf.PROGRAM, provenance="top-k-proofs", k=1)
                db = engine.create_database()
                hwf.populate_database(db, instance, beam=2)
                engine.run(db)

    return timed(run)


def run_clutrr(engine_kind: str):
    samples = clutrr.make_dataset(10, 6, seed=4)

    def run():
        for instance in samples:
            if engine_kind == "lobster":
                engine = LobsterEngine(
                    clutrr.PROGRAM, provenance="diff-top-1-proofs", proof_capacity=32
                )
                db = engine.create_database()
                clutrr.populate_database(db, instance, beam=3)
                engine.run(db)
            else:
                engine = ScallopInterpreter(
                    clutrr.PROGRAM, provenance="top-k-proofs", k=1
                )
                db = engine.create_database()
                clutrr.populate_database(db, instance, beam=3)
                engine.run(db)

    return timed(run)


TASKS = {
    "CLUTRR": run_clutrr,
    "HWF": run_hwf,
    "Pathfinder": run_pathfinder,
    "Pacman": run_pacman,
}


@pytest.fixture(scope="module")
def results():
    rows = {}
    for name, runner in TASKS.items():
        rows[name] = (runner("scallop"), runner("lobster"))
    return rows


def test_fig9_inference_speedups(results, benchmark):
    def check():
        table = [
            [task, scallop.label, lobster.label, speedup(scallop, lobster)]
            for task, (scallop, lobster) in results.items()
        ]
        print_table(
            "Fig. 9 — Neurosymbolic inference, speedup over Scallop",
            ["task", "scallop", "lobster", "speedup"],
            table,
        )
        # Shape: Lobster wins every task (typed ratio — an OOM/timeout on
        # either side fails loudly instead of skipping the comparison).
        for task, (scallop, lobster) in results.items():
            ratio = speedup(scallop, lobster)
            assert ratio.ok, f"{task}: {ratio.status}"
            assert ratio.value > 1.0, task


    record(benchmark, check)

def test_fig9_warm_path_zero_recompilation(benchmark):
    """Warm-path mode: per-sample engine construction hits the program
    cache, so steady-state serving pays zero recompilation (the SPEC
    CPU2026-style compile-vs-throughput split)."""
    cache = ProgramCache()
    samples = pathfinder.make_dataset(6, 4, seed=11)

    def serve_one(index, instance):
        probs = pathfinder.pretrained_edge_probs(instance, seed=index)
        engine = LobsterEngine(
            pathfinder.PROGRAM,
            provenance="diff-top-1-proofs",
            proof_capacity=128,
            cache=cache,
        )
        db = engine.create_database()
        pathfinder.populate_database(db, instance, probs)
        return engine.run(db)

    results = [serve_one(index, inst) for index, inst in enumerate(samples)]
    cold, warm = results[0], results[1:]

    assert cache.stats.misses == 1  # one compile for the whole serving loop
    assert cache.stats.hits == len(samples) - 1
    assert not cold.program_from_cache and cold.compile_seconds > 0.0
    for result in warm:
        assert result.program_from_cache  # zero recompilation
        assert result.compile_seconds == 0.0

    steady = sum(r.total_seconds for r in warm) / len(warm)
    print_table(
        "Fig. 9 warm path — compile once, serve many (Pathfinder)",
        ["phase", "seconds"],
        [
            ["compile (one-time)", f"{cold.compile_seconds:.4f}s"],
            ["first query (cold cache)", f"{cold.total_seconds:.4f}s"],
            ["steady state (per query)", f"{steady:.4f}s"],
        ],
    )

    def check():
        assert cache.stats.misses == 1

    record(benchmark, check)


def test_fig9_benchmark_pathfinder_inference(benchmark):
    instance = pathfinder.generate_instance(6, seed=7, positive=True)
    probs = pathfinder.pretrained_edge_probs(instance, seed=7)

    def run():
        engine = LobsterEngine(
            pathfinder.PROGRAM, provenance="diff-top-1-proofs", proof_capacity=128
        )
        db = engine.create_database()
        pathfinder.populate_database(db, instance, probs)
        engine.run(db)

    benchmark.pedantic(run, rounds=3, iterations=1)
