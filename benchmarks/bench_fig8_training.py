"""Fig. 8 / Fig. 3e: end-to-end training-time speedup over Scallop.

Short fixed-step training runs (both engines execute identical programs
and see identical data, so per-step work is the honest comparison; the
paper trains to convergence, which scales both sides equally).

Expected shape: Lobster ahead on every task; Pacman by far the most
(heaviest symbolic component), the others more modest because neural time
(identical for both) dilutes the symbolic speedup — Amdahl's law, §6.3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LobsterEngine
from repro.baselines import ScallopInterpreter
from repro.workloads import clutrr, hwf, pacman, pathfinder

from _harness import record, print_table, speedup, timed
from _train import lobster_train_step, scallop_train_step

STEPS = 3


def train_task(engine_kind, program, provenance_capacity, samples, populate, relation):
    """Time STEPS sweeps of symbolic forward+backward over the samples."""

    if engine_kind == "lobster":
        engine = LobsterEngine(
            program, provenance="diff-top-1-proofs", proof_capacity=provenance_capacity
        )
        step = lobster_train_step
    else:
        engine = ScallopInterpreter(program, provenance="top-k-proofs", k=1)
        step = scallop_train_step

    def run():
        for _ in range(STEPS):
            for instance_probs, instance_populate in samples:
                step(engine, instance_populate, relation, instance_probs)

    return timed(run)


def pathfinder_samples(n, grid=5):
    out = []
    for index in range(n):
        instance = pathfinder.generate_instance(grid, seed=100 + index, positive=True)
        probs = pathfinder.pretrained_edge_probs(instance, noise=0.4, seed=index)

        def populate(db, p, instance=instance):
            return pathfinder.populate_database(db, instance, p)

        out.append((probs, populate))
    return out


def pacman_samples(n, grid=9):
    out = []
    for index in range(n):
        instance = pacman.generate_instance(grid, seed=200 + index)
        probs = pacman.pretrained_safety_probs(instance, noise=0.3, seed=index)

        def populate(db, p, instance=instance):
            return pacman.populate_database(db, instance, p)

        out.append((probs, populate))
    return out


def hwf_samples(n, length=13):
    out = []
    for index in range(n):
        instance = hwf.generate_instance(length, seed=300 + index)

        def populate(db, p, instance=instance):
            ids, _, _ = hwf.populate_database(db, instance, beam=2)
            return ids

        # Trained quantity: the classifier's per-candidate probabilities.
        probs = np.zeros(0)  # facts carry their own probs via populate
        out.append((probs, populate))
    return out


def clutrr_samples(n, chain=8):
    out = []
    for index in range(n):
        instance = clutrr.generate_instance(chain, seed=400 + index)

        def populate(db, p, instance=instance):
            ids, _, _ = clutrr.populate_database(db, instance, beam=2)
            return ids

        out.append((np.zeros(0), populate))
    return out


TASKS = {
    "CLUTRR": (clutrr.PROGRAM, 32, clutrr_samples(3), "answer"),
    "HWF": (hwf.PROGRAM, 32, hwf_samples(3), "has_result"),
    "Pathfinder": (pathfinder.PROGRAM, 64, pathfinder_samples(3), "endpoints_connected"),
    "Pacman": (pacman.PROGRAM, 256, pacman_samples(3), "success"),
}


@pytest.fixture(scope="module")
def results():
    out = {}
    for task, (program, capacity, samples, relation) in TASKS.items():
        out[task] = (
            train_task("scallop", program, capacity, samples, None, relation),
            train_task("lobster", program, capacity, samples, None, relation),
        )
    return out


def test_fig8_training_speedups(results, benchmark):
    def check():
        table = [
            [task, scallop.label, lobster.label, speedup(scallop, lobster)]
            for task, (scallop, lobster) in results.items()
        ]
        print_table(
            "Fig. 8 — End-to-end training, speedup over Scallop",
            ["task", "scallop", "lobster", "speedup"],
            table,
        )
        for task, (scallop, lobster) in results.items():
            ratio = speedup(scallop, lobster)
            assert ratio.ok, f"{task}: {ratio.status}"
            assert ratio.value > 1.0, task


    record(benchmark, check)

def test_fig3e_pathfinder_training_time(results, benchmark):
    def check():
        scallop, lobster = results["Pathfinder"]
        print_table(
            "Fig. 3e — Pathfinder training time",
            ["engine", "time"],
            [["Scallop", scallop.label], ["Lobster", lobster.label]],
        )
        assert lobster.seconds < scallop.seconds


    record(benchmark, check)

def test_fig8_benchmark_pacman_step(benchmark):
    engine = LobsterEngine(
        pacman.PROGRAM, provenance="diff-top-1-proofs", proof_capacity=256
    )
    instance = pacman.generate_instance(6, seed=1)
    probs = pacman.pretrained_safety_probs(instance, seed=1)

    def run():
        lobster_train_step(
            engine,
            lambda db, p: pacman.populate_database(db, instance, p),
            "success",
            probs,
        )

    benchmark.pedantic(run, rounds=3, iterations=1)
