"""Seeded input generators for the end-to-end benchmark.

Every function here is a pure function of its arguments: the same seed
gives the same inputs, on any machine, and nothing is read from
``repro.workloads`` — editing the library's own generators later cannot
silently change the load this benchmark applies.

One seeding policy throughout: an instance's **shape** (topology,
probabilities, arrival pattern) is drawn from ``shape_seed``, a constant
of the benchmark (:data:`SHAPE_SEED`), and ``seed`` **relabels** its
nodes.  The cost of a Datalog fix point is set by the shape — on CSPA at
n=80 ten topologies span 0.1 s to 5 s per run, and ten pools of 24
Pathfinder samples span +-10% — so a seed-drawn shape would make ten
seeds measure ten different problems, not one system.  Relabelling
keeps the work identical (the instances are isomorphic: same rows, same
iterations, same kernel launches) while changing every sort order,
packed key and hash slot.  The small *check instances* that are
compared against the reference interpreter pass ``shape_seed=seed`` and
do get a fresh shape per seed, so correctness never rests on one draw.
"""

from __future__ import annotations

import numpy as np

#: Topology of the single-instance workloads (see module docstring).
SHAPE_SEED = 2026

Edges = list[tuple[int, int]]


def _relabel(pairs, n: int, seed: int) -> Edges:
    perm = np.random.default_rng(seed).permutation(n)
    return sorted({(int(perm[a]), int(perm[b])) for a, b in pairs})


def _tagged(pairs, shape: np.random.Generator, perm) -> tuple[Edges, list[float]]:
    """Relabelled edges with probabilities.  One probability per distinct
    *structural* edge, drawn in structural order and carried through the
    relabelling — drawn per relabelled edge, the seed would move them."""
    distinct = sorted({(int(a), int(b)) for a, b in pairs})
    probs = shape.uniform(0.5, 1.0, size=len(distinct))
    rows = sorted(
        ((int(perm[a]), int(perm[b])), float(p)) for (a, b), p in zip(distinct, probs)
    )
    return [row for row, _ in rows], [p for _, p in rows]


def tc_graph(
    seed: int, n: int = 600, out_degree: int = 3, shape_seed: int = SHAPE_SEED
) -> Edges:
    """Random digraph: every node draws ``out_degree`` successors.

    At n=600, degree 3 this is one giant strongly connected component
    plus a fringe: ~1.8k edges close to ~340k ``path`` rows in ~12
    semi-naive iterations."""
    shape = np.random.default_rng(shape_seed)
    src = np.repeat(np.arange(n), out_degree)
    dst = shape.integers(0, n, size=n * out_degree)
    return _relabel(((a, b) for a, b in zip(src, dst) if a != b), n, seed)


def cspa_instance(
    seed: int, n: int = 80, shape_seed: int = SHAPE_SEED
) -> dict[str, tuple[Edges, list[float]]]:
    """Pointer-analysis fact base: ``assign`` (1.35 per variable, biased
    toward earlier variables like compiler IR) and ``dereference`` (0.3
    per variable), each edge carrying a probability.

    Probabilities belong to the shape, not the seed: under ``minmaxprob``
    they decide how often a tag improves and re-enters the frontier, so
    redrawing them moves the iteration count (16-20 at n=80)."""
    shape = np.random.default_rng(shape_seed)
    n_assign = int(n * 1.35)
    src = shape.integers(0, n, size=n_assign)
    dst = (src * shape.uniform(0.0, 1.0, size=n_assign)).astype(np.int64)
    n_deref = int(n * 0.3)
    pointers = shape.integers(0, n, size=n_deref)
    objects = shape.integers(0, n, size=n_deref)
    perm = np.random.default_rng(seed).permutation(n)
    return {
        "assign": _tagged(((a, b) for a, b in zip(src, dst) if a != b), shape, perm),
        "dereference": _tagged(zip(pointers, objects), shape, perm),
    }


def lattice_edges(grid: int) -> Edges:
    """Directed 4-neighbour adjacency over a ``grid`` x ``grid`` lattice
    (both directions): 120 edges at grid 6."""
    edges: Edges = []
    for x in range(grid):
        for y in range(grid):
            cell = x * grid + y
            if x + 1 < grid:
                edges += [(cell, cell + grid), (cell + grid, cell)]
            if y + 1 < grid:
                edges += [(cell, cell + 1), (cell + 1, cell)]
    return edges


def pathfinder_samples(
    seed: int, grid: int = 6, count: int = 24, shape_seed: int = SHAPE_SEED
) -> list[dict]:
    """Pathfinder training samples: a dashed trail (self-avoiding lattice
    walk) whose edges a simulated perception model scores near 0.95 and
    every other lattice edge near 0.05, two endpoint cells, and the
    label (are the endpoints connected by dashes).  ``seed`` renumbers the
    cells of every sample.  Each sample is
    ``{"edges", "probs", "endpoints", "label"}``."""
    rng = np.random.default_rng(shape_seed)
    relabel = np.random.default_rng(seed)
    edges = lattice_edges(grid)
    index = {edge: i for i, edge in enumerate(edges)}
    samples = []
    for k in range(count):
        cell = int(rng.integers(0, grid * grid))
        walk, seen = [cell], {cell}
        for _ in range(grid + int(rng.integers(0, grid))):
            x, y = divmod(walk[-1], grid)
            steps = [
                nx * grid + ny
                for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if 0 <= nx < grid and 0 <= ny < grid and nx * grid + ny not in seen
            ]
            if not steps:
                break
            walk.append(int(rng.choice(steps)))
            seen.add(walk[-1])
        present = np.zeros(len(edges), dtype=bool)
        for a, b in zip(walk, walk[1:]):
            present[index[(a, b)]] = present[index[(b, a)]] = True
        off_trail = [c for c in range(grid * grid) if c not in seen]
        label = k % 2 == 0 or not off_trail
        other = walk[-1] if label else int(rng.choice(off_trail))
        logits = np.where(present, 3.0, -3.0) + rng.normal(0.0, 0.6, len(edges))
        perm = relabel.permutation(grid * grid)
        samples.append(
            {
                "edges": [(int(perm[a]), int(perm[b])) for a, b in edges],
                "probs": [float(p) for p in 1.0 / (1.0 + np.exp(-logits))],
                "endpoints": (int(perm[walk[0]]), int(perm[other])),
                "label": label,
            }
        )
    return samples


def serve_requests(
    seed: int,
    count: int = 75,
    nodes: int = 40,
    draws: int = 120,
    rate_hz: float = 2000.0,
    shape_seed: int = SHAPE_SEED,
) -> list[dict]:
    """One drain's request stream: ``count`` small probabilistic graphs
    (``draws`` edge draws over ``nodes`` nodes, ~115 distinct), a 70/30
    interactive/batch class mix, and bursty arrivals — a square wave that
    offers 4x the base rate for a quarter of every 20-arrival cycle and a
    5% trickle otherwise.  ``seed`` renumbers the nodes of every graph.
    Each request is ``{"edges", "probs", "slo", "arrival_s"}``."""
    rng = np.random.default_rng(shape_seed)
    relabel = np.random.default_rng(seed)
    cycle_s, duty, burst = 20.0 / rate_hz, 0.25, 4.0
    on_rate = rate_hz * burst
    off_rate = max(rate_hz * (1.0 - burst * duty) / (1.0 - duty), 0.05 * rate_hz)
    requests, t = [], 0.0
    for _ in range(count):
        pairs = rng.integers(0, nodes, size=(draws, 2))
        edges, probs = _tagged(
            ((a, b) for a, b in pairs if a != b), rng, relabel.permutation(nodes)
        )
        rate = on_rate if t % cycle_s < duty * cycle_s else off_rate
        t += float(rng.exponential(1.0 / rate))
        requests.append(
            {
                "edges": edges,
                "probs": probs,
                "slo": "interactive" if rng.random() < 0.7 else "batch",
                "arrival_s": t,
            }
        )
    return requests


def stream_instance(
    seed: int, backbone: int = 150, taps: int = 400, shape_seed: int = SHAPE_SEED
) -> dict:
    """A preloaded chain of ``backbone`` nodes (its closure is the large
    standing view) and ``taps`` leaf edges ``(b, leaf)`` from random
    backbone nodes to fresh leaf nodes — the rows that churn through
    the sliding window.  A tap at the chain's i-th node adds or removes
    ``i + 1`` ``path`` rows, so a tick touches a few hundred rows of a
    ~13k-row view.  Returns ``{"backbone", "backbone_probs", "taps"}``."""
    rng = np.random.default_rng(shape_seed)
    perm = np.random.default_rng(seed).permutation(backbone + taps)
    chain = [(int(perm[i]), int(perm[i + 1])) for i in range(backbone - 1)]
    return {
        "backbone": chain,
        "backbone_probs": [float(p) for p in rng.uniform(0.5, 0.95, len(chain))],
        "taps": [
            (int(perm[b]), int(perm[backbone + i]))
            for i, b in enumerate(rng.integers(0, backbone, size=taps))
        ],
    }
