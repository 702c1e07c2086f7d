"""Fig. 10: scalability on Pacman (a) and Pathfinder (b) with the
optimization ablation.

The paper scales the maze/grid size, measures *symbolic computation time
only*, and reports speedup over Scallop per optimization configuration.
Expected shapes:

* speedup over Scallop grows with problem size (then plateaus);
* disabling the optimizations degrades Lobster, most visibly at larger
  sizes ("Both" >= "None").

Two arms remain expressible.  "Both" is the default engine on a default
device.  "None" runs on ``VirtualDevice(reuse_buffers=False)`` with
static hash-index reuse off: it pays the simulated allocation latency
and re-hashes every static join side.  The paper's single arms have no
counterpart here — stratum offload scheduling always plans one device
window, and buffer reuse alone is the device setting ("Alloc" would be
"Both").  Our total time is host wall time plus the device cost model's
simulated transfer and allocation overheads (``total_seconds``).
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine, OptimizationConfig, VirtualDevice
from repro.baselines import ScallopInterpreter
from repro.workloads import pacman, pathfinder

from _harness import print_table, record, timed

#: Arm name -> (engine optimizations, the device's ``reuse_buffers``).
CONFIGS = {
    "None": (OptimizationConfig(static_indices=False), False),
    "Both": (OptimizationConfig(), True),
}

PACMAN_GRIDS = [5, 8, 11, 14]
PATHFINDER_GRIDS = [5, 8, 11, 14, 17]


def lobster_symbolic_seconds(program, provenance_capacity, populate, config) -> float:
    optimizations, reuse_buffers = config
    engine = LobsterEngine(
        program,
        provenance="diff-top-1-proofs",
        proof_capacity=provenance_capacity,
        device=VirtualDevice(reuse_buffers=reuse_buffers),
        optimizations=optimizations,
    )
    db = engine.create_database()
    populate(db)
    result = engine.run(db)
    return result.total_seconds


def scallop_symbolic_seconds(program, populate) -> float:
    # Fresh database per trial, built untimed — a fixpointed db
    # re-runs warm.
    def setup():
        interpreter = ScallopInterpreter(program, provenance="top-k-proofs", k=1)
        db = interpreter.create_database()
        populate(db)
        return interpreter, db

    return timed(lambda state: state[0].run(state[1]), setup=setup).seconds


def sweep(task_name, program, capacity, make_populate, grids):
    task = task_name.split()[0]  # "Pacman (Fig. 10a)" -> "Pacman"
    rows = []
    speedups = {name: [] for name in CONFIGS}
    for grid in grids:
        populate = make_populate(grid)
        scallop_s = scallop_symbolic_seconds(program, populate)
        row = [grid, f"{scallop_s:.3f}s"]
        for name, config in CONFIGS.items():
            lobster_s = lobster_symbolic_seconds(program, capacity, populate, config)
            ratio = scallop_s / lobster_s
            speedups[name].append(ratio)
            row.append(f"{ratio:.2f}x")
        rows.append(row)
    print_table(
        f"Fig. 10 — {task_name} scalability (speedup over Scallop per config)",
        ["grid", "scallop", *CONFIGS.keys()],
        rows,
    )
    return speedups


def make_pacman_populate(grid):
    instance = pacman.generate_instance(grid, seed=grid)
    probs = pacman.pretrained_safety_probs(instance, seed=grid)

    def populate(db):
        pacman.populate_database(db, instance, probs)

    return populate


def make_pathfinder_populate(grid):
    instance = pathfinder.generate_instance(grid, seed=grid, positive=True)
    # A moderately uncertain model keeps a grid-scaling fraction of
    # distractor edges alive past pruning, so the reasoning-chain size
    # grows with resolution — the scaling axis of Fig. 10b.
    probs = pathfinder.pretrained_edge_probs(instance, noise=0.35, seed=grid)

    def populate(db):
        # Identical pruning for every engine: confident-absent edges do
        # not enter the symbolic computation (§2's pipeline does the same
        # discretization step before reasoning).
        pathfinder.populate_database(db, instance, probs, min_prob=0.15)

    return populate


@pytest.mark.parametrize(
    "task_name, program, capacity, make_populate, grids",
    [
        ("Pacman (Fig. 10a)", pacman.PROGRAM, 300, make_pacman_populate, PACMAN_GRIDS),
        (
            "Pathfinder (Fig. 10b)",
            pathfinder.PROGRAM,
            128,
            make_pathfinder_populate,
            PATHFINDER_GRIDS,
        ),
    ],
)
def test_fig10_scalability_and_ablation(
    task_name, program, capacity, make_populate, grids, benchmark
):
    def check():
        speedups = sweep(task_name, program, capacity, make_populate, grids)
        # Shape 1: fully optimized Lobster beats Scallop at scale.
        assert speedups["Both"][-1] > 1.0
        # Shape 2: speedup grows from smallest to largest size.
        assert speedups["Both"][-1] > speedups["Both"][0]
        # Shape 3: at the largest size, full optimization beats none.
        assert speedups["Both"][-1] >= speedups["None"][-1]

    record(benchmark, check)


def test_fig10_benchmark_pacman_grid11(benchmark):
    populate = make_pacman_populate(11)

    def run():
        engine = LobsterEngine(
            pacman.PROGRAM, provenance="diff-top-1-proofs", proof_capacity=300
        )
        db = engine.create_database()
        populate(db)
        engine.run(db)

    benchmark.pedantic(run, rounds=2, iterations=1)
