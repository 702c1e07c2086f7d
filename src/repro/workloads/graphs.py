"""Synthetic graph corpus standing in for the SNAP datasets (§6.1).

The paper's discrete benchmarks run on SNAP graphs (p2p-Gnutella,
com-dblp, cit-HepTh, usroad, finite-element meshes, ...).  Those exact
files are not redistributable here, so each dataset name maps to a seeded
generator that preserves the *topology class* the original belongs to —
sparse P2P digraphs, preferential-attachment citation/social graphs,
community graphs, near-planar road grids, FE meshes, and the dense
financial vertex-separator graph — scaled down so a laptop run finishes.
Relative difficulty ordering between classes is what the Fig. 13 /
Table 3 shapes depend on, and that survives the down-scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Edges = list[tuple[int, int]]


def p2p_network(n: int, avg_out_degree: float, seed: int) -> Edges:
    """Gnutella-style sparse random digraph."""
    rng = np.random.default_rng(seed)
    m = int(n * avg_out_degree)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return sorted({(int(a), int(b)) for a, b in zip(src, dst) if a != b})


def citation_graph(n: int, refs_per_paper: int, seed: int) -> Edges:
    """Preferential-attachment DAG: papers cite earlier, popular papers."""
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    degree = np.ones(n)
    for paper in range(1, n):
        k = min(paper, refs_per_paper)
        weights = degree[:paper] / degree[:paper].sum()
        cited = rng.choice(paper, size=k, replace=False, p=weights)
        for target in cited:
            edges.add((paper, int(target)))
            degree[int(target)] += 1
    return sorted(edges)


def community_graph(n_communities: int, size: int, p_out: float, seed: int) -> Edges:
    """DBLP-style community graph: dense blocks, sparse bridges."""
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    n = n_communities * size
    for community in range(n_communities):
        base = community * size
        members = np.arange(base, base + size)
        for _ in range(size * 3):
            a, b = rng.choice(members, size=2, replace=False)
            edges.add((int(a), int(b)))
            edges.add((int(b), int(a)))
    n_bridges = int(n * p_out)
    for _ in range(n_bridges):
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def road_grid(side: int, seed: int, diagonal_fraction: float = 0.05) -> Edges:
    """usroad-style near-planar grid with sparse shortcuts."""
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()

    def node(x: int, y: int) -> int:
        return x * side + y

    for x in range(side):
        for y in range(side):
            if x + 1 < side:
                edges.add((node(x, y), node(x + 1, y)))
                edges.add((node(x + 1, y), node(x, y)))
            if y + 1 < side:
                edges.add((node(x, y), node(x, y + 1)))
                edges.add((node(x, y + 1), node(x, y)))
    for _ in range(int(side * side * diagonal_fraction)):
        x = int(rng.integers(0, side - 1))
        y = int(rng.integers(0, side - 1))
        edges.add((node(x, y), node(x + 1, y + 1)))
    return sorted(edges)


def fe_mesh(side: int, seed: int = 0) -> Edges:
    """Finite-element style triangular mesh (fe-sphere / fe-body class)."""
    edges: set[tuple[int, int]] = set()

    def node(x: int, y: int) -> int:
        return x * side + y

    for x in range(side):
        for y in range(side):
            for dx, dy in ((1, 0), (0, 1), (1, 1)):
                nx, ny = x + dx, y + dy
                if nx < side and ny < side:
                    edges.add((node(x, y), node(nx, ny)))
                    edges.add((node(nx, ny), node(x, y)))
    return sorted(edges)


def social_graph(n: int, attach: int, seed: int) -> Edges:
    """Barabási–Albert style social graph (Brightkite / ego-Facebook)."""
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    targets = list(range(attach))
    repeated: list[int] = list(range(attach))
    for source in range(attach, n):
        chosen = rng.choice(len(repeated), size=attach, replace=False)
        for index in chosen:
            target = repeated[int(index)]
            edges.add((source, target))
            edges.add((target, source))
            repeated.append(target)
        repeated.extend([source] * attach)
    return sorted(edges)


def financial_graph(n_blocks: int, block: int, fanout: int, seed: int) -> Edges:
    """vsp_finan-style: dense hub blocks with high fan-out separators.

    The structure drives large intermediate join results — this is the
    dataset class on which memory pressure decides winners in Table 3.
    """
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    n = n_blocks * block
    hubs = [b * block for b in range(n_blocks)]
    for b in range(n_blocks):
        base = b * block
        hub = hubs[b]
        for member in range(base, base + block):
            if member != hub:
                edges.add((hub, member))
                edges.add((member, hub))
    for hub in hubs:
        others = rng.integers(0, n, size=fanout)
        for target in others:
            if int(target) != hub:
                edges.add((hub, int(target)))
    return sorted(edges)


def chain_of_cliques(n_cliques: int, clique: int, seed: int = 0) -> Edges:
    """SF.cedge-like long sparse structure with local density."""
    edges: set[tuple[int, int]] = set()
    for c in range(n_cliques):
        base = c * clique
        for a in range(clique):
            for b in range(a + 1, clique):
                edges.add((base + a, base + b))
        if c + 1 < n_cliques:
            edges.add((base + clique - 1, base + clique))
    return sorted(edges)


# ---------------------------------------------------------------------------
# Named corpus


@dataclass(frozen=True)
class GraphSpec:
    name: str
    build: Callable[[], Edges]
    kind: str


def _corpus() -> dict[str, GraphSpec]:
    specs = [
        GraphSpec("Gnu31", lambda: p2p_network(900, 3.0, 31), "p2p"),
        GraphSpec("p2p-Gnu24", lambda: p2p_network(600, 3.0, 24), "p2p"),
        GraphSpec("p2p-Gnu25", lambda: p2p_network(650, 3.0, 25), "p2p"),
        GraphSpec("p2p-Gnu30", lambda: p2p_network(850, 3.0, 30), "p2p"),
        GraphSpec("com-dblp", lambda: community_graph(24, 28, 0.15, 7), "community"),
        GraphSpec("loc-Brightkite", lambda: social_graph(700, 3, 11), "social"),
        GraphSpec("ego-Facebook", lambda: social_graph(500, 4, 13), "social"),
        GraphSpec("cit-HepTh", lambda: citation_graph(800, 4, 17), "citation"),
        GraphSpec("cit-HepPh", lambda: citation_graph(900, 4, 19), "citation"),
        GraphSpec("CA-HepTH", lambda: citation_graph(600, 3, 23), "citation"),
        GraphSpec("usroad", lambda: road_grid(28, 3), "road"),
        GraphSpec("SF.cedge", lambda: chain_of_cliques(120, 5), "road"),
        GraphSpec("fe-body", lambda: fe_mesh(26), "mesh"),
        GraphSpec("fe-sphere", lambda: fe_mesh(22), "mesh"),
        GraphSpec("fc_ocean", lambda: fe_mesh(20), "mesh"),
        GraphSpec("vsp-finan", lambda: financial_graph(10, 60, 40, 41), "financial"),
    ]
    return {spec.name: spec for spec in specs}


CORPUS = _corpus()

#: Aliases for the paper's inconsistent dataset spellings.
ALIASES = {"vsp_finan": "vsp-finan", "fe_body": "fe-body", "Gnu31p2p": "Gnu31"}


def load_graph(name: str) -> Edges:
    """Materialize a named dataset (deterministic across calls)."""
    spec = CORPUS.get(ALIASES.get(name, name))
    if spec is None:
        known = ", ".join(sorted(CORPUS))
        raise KeyError(f"unknown graph {name!r}; known: {known}")
    return spec.build()
