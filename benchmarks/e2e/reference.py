"""Independent oracles: what every workload's output is compared to.

Nothing here calls the engine under test.  Graph closures are computed
directly (breadth-first search, max-min Floyd-Warshall); programs with
no closed form — CSPA, Pathfinder under top-1 proofs, and the ten
compiled programs — are evaluated by ``repro.baselines.ScallopInterpreter``,
a tuple-at-a-time interpreter that shares the Datalog front-end but none
of the RAM/APM/device/runtime code.  It needs minutes at full size, so it
runs on reduced *check instances* drawn by the same generator and seed.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

#: Tolerance for probabilities that went through different evaluation
#: orders (products of proof probabilities); max/min closures are exact.
PROB_TOL = 1e-9


def digest(*arrays) -> str:
    """Order-sensitive content hash of numpy arrays (result columns)."""
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.dtype).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def bfs_closure(edges) -> np.ndarray:
    """Transitive closure by one breadth-first search per source node.
    Returns the reachable ``(x, y)`` pairs (one or more edges apart) as
    an ``(n, 2)`` int64 array sorted lexicographically."""
    successors: dict[int, list[int]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    pairs = []
    for source in sorted(successors):
        seen: set[int] = set()
        frontier = deque(successors[source])
        while frontier:
            node = frontier.popleft()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(successors.get(node, ()))
        pairs.extend((source, target) for target in sorted(seen))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def widest_path_closure(edges, probs) -> dict[tuple[int, int], float]:
    """Max-min closure: ``(x, y) -> max over paths of the smallest edge
    probability`` — what ``path`` means under ``minmaxprob``.  Parallel
    edges keep the larger probability; a node reaches itself only
    through a cycle.  Exact: max and min never round."""
    nodes = sorted({node for edge in edges for node in edge})
    slot = {node: i for i, node in enumerate(nodes)}
    width = np.zeros((len(nodes), len(nodes)))
    for (a, b), prob in zip(edges, probs):
        width[slot[a], slot[b]] = max(width[slot[a], slot[b]], prob)
    for k in range(len(nodes)):
        np.maximum(width, np.minimum(width[:, k, None], width[None, k, :]), out=width)
    return {
        (nodes[i], nodes[j]): float(width[i, j])
        for i, j in zip(*np.nonzero(width))
    }


def same_probs(left: dict, right: dict, tol: float = 0.0) -> bool:
    """Whether two ``row -> probability`` maps agree (same rows, every
    probability within ``tol``)."""
    return left.keys() == right.keys() and all(
        abs(left[row] - right[row]) <= tol for row in left
    )


def scallop_probs(
    source: str,
    provenance: str,
    facts: dict[str, tuple[list[tuple], list[float] | None]],
    relations: list[str],
    **provenance_kwargs,
) -> dict[str, dict[tuple, float]]:
    """Evaluate ``source`` over ``facts`` (``relation -> (rows, probs)``)
    with the reference interpreter; returns ``relation -> row -> prob``
    for the requested relations."""
    from repro.baselines import ScallopInterpreter

    interpreter = ScallopInterpreter(source, provenance, **provenance_kwargs)
    database = interpreter.create_database()
    for relation, (rows, probs) in facts.items():
        database.add_facts(relation, rows, probs=probs)
    interpreter.run(database)
    return {
        relation: {
            row: database.prob(relation, row) for row in database.rows(relation)
        }
        for relation in relations
    }
