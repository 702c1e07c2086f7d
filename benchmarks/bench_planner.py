"""Cost-based vs. heuristic planning on skew — the join-order payoff.

Three workloads, each run under the syntactic heuristic planner and the
statistics-driven cost-based planner (``LobsterEngine(adaptive=True)``):

* **skewed join** — the motivating case: two large relations and one
  tiny filter relation.  The syntactic planner orders atoms by shared-
  variable counts, so it happily materializes the big x big intermediate
  before the tiny filter applies; the cost-based planner routes the join
  through the tiny relation first.  Gate: >= 1.5x on the modeled
  end-to-end steady-state cost (kernel + overhead seconds — the same
  simulated clock every other benchmark reads).
* **skewed CSPA** — the Graspan grammar over a fact base with one hub
  variable fanning out (heavy-hitter skew in ``assign``): the CMS inner
  product prices the hub join and the planner reorders around it.
* **skewed TC** — transitive closure over a hub-and-spokes graph plus a
  body variant with a selective ``anchor`` relation, exercising
  cost-based ordering inside a recursive stratum.

Identity of results between both planners is asserted for every
workload.  ``LOBSTER_BENCH_SCALE=tiny`` shrinks inputs for CI smoke runs
(the >= 1.5x gate is skipped there: tiny inputs are launch-latency
noise); a versioned markdown summary lands in ``benchmarks/results/``
via ``run_all.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LobsterEngine, ProgramCache
from repro.workloads.analytics import CSPA

from _harness import print_table, profile_metrics, record, report, tiny_scale

SUITE = "planner"

TINY = tiny_scale()

SKEWED_JOIN = """
rel hit(x, z) :- big_a(x, y) and big_b(y, z) and tiny(x).
query hit
"""

SKEWED_TC = """
rel reach(x, y) :- edge(x, y) and anchor(x).
rel reach(x, y) :- reach(x, z) and edge(z, y).
query reach
"""


def modeled_seconds(result) -> float:
    """The comparable steady-state cost: modeled device busy time."""
    return result.profile.busy_seconds


def skewed_join_facts():
    n = 1200 if TINY else 12_000
    domain = max(40, n // 20)
    rng = np.random.default_rng(7)
    big_a = [(int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))]
    big_b = [(int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))]
    tiny = [(i,) for i in range(3)]
    return {"big_a": big_a, "big_b": big_b, "tiny": tiny}


def skewed_cspa_facts():
    """A pointer-analysis fact base with a hub: one variable assigned
    from many places (the heavy hitter the CMS sees)."""
    n_vars = 30 if TINY else 70
    rng = np.random.default_rng(13)
    hub = 1
    assign = {(hub, int(v)) for v in rng.integers(2, n_vars, size=n_vars // 2)}
    src = rng.integers(1, n_vars, size=n_vars * 3)
    dst = (src * rng.uniform(0.0, 1.0, size=len(src))).astype(np.int64)
    assign |= {(int(a), int(b)) for a, b in zip(src, dst) if a != b}
    deref = {
        (int(a), int(b))
        for a, b in zip(
            rng.integers(0, n_vars, size=n_vars // 3),
            rng.integers(0, n_vars, size=n_vars // 3),
        )
    }
    return {"assign": sorted(assign), "dereference": sorted(deref)}


def skewed_tc_facts():
    n_spokes = 60 if TINY else 600
    rng = np.random.default_rng(21)
    edges = {(0, int(s)) for s in range(1, n_spokes)}  # hub fan-out
    chain = list(range(n_spokes, n_spokes + (20 if TINY else 120)))
    edges |= {(a, b) for a, b in zip(chain, chain[1:])}
    extra = rng.integers(1, n_spokes, size=n_spokes // 2)
    edges |= {(int(a), int(a) % 7 + 1) for a in extra}
    anchor = [(chain[0],)]
    return {"edge": sorted(edges), "anchor": anchor}


WORKLOADS = {
    "skewed-join": (SKEWED_JOIN, "hit", skewed_join_facts),
    "skewed-CSPA": (CSPA, "value_flow", skewed_cspa_facts),
    "skewed-TC": (SKEWED_TC, "reach", skewed_tc_facts),
}


def run_once(source, facts, adaptive: bool):
    cache = ProgramCache()
    engine = LobsterEngine(source, cache=cache, adaptive=adaptive)
    db = engine.create_database()
    for name, rows in facts.items():
        db.add_facts(name, rows)
    result = engine.run(db)
    return engine, db, result


@pytest.fixture(scope="module")
def results():
    out = {}
    for name, (source, query, loader) in WORKLOADS.items():
        facts = loader()
        _, hdb, heuristic = run_once(source, facts, adaptive=False)
        _, adb, cost_based = run_once(source, facts, adaptive=True)
        out[name] = (query, hdb, heuristic, adb, cost_based)
        for planner, result in (("heuristic", heuristic), ("cost-based", cost_based)):
            report(
                SUITE, f"{name}/{planner}",
                samples=[modeled_seconds(result)], unit="modeled_s",
                metrics=profile_metrics(result.profile),
                planner=planner, tiny=TINY,
            )
    return out


def test_cost_based_vs_heuristic(results, benchmark):
    def check():
        table = []
        for name, (query, hdb, heuristic, adb, cost_based) in results.items():
            h_s = modeled_seconds(heuristic)
            c_s = modeled_seconds(cost_based)
            feedback = cost_based.feedback
            table.append(
                [
                    name,
                    hdb.result(query).n_rows,
                    f"{h_s * 1e3:.3f}ms",
                    f"{c_s * 1e3:.3f}ms",
                    f"{h_s / c_s:.2f}x" if c_s else "-",
                    f"{feedback.max_drift():.1f}" if feedback else "-",
                ]
            )
        print_table(
            "Planner — cost-based vs heuristic (modeled busy seconds)"
            + (" (tiny)" if TINY else ""),
            ["workload", "rows", "heuristic", "cost-based", "speedup", "drift"],
            table,
        )

        # Identity: both planners derive the same relation, always.
        for name, (query, hdb, _, adb, _) in results.items():
            assert adb.result(query).rows() == hdb.result(query).rows(), name

        # The planner consulted statistics on every workload.
        for name, (_, _, _, _, cost_based) in results.items():
            assert cost_based.feedback is not None, name
            assert cost_based.feedback.stats_bucket is not None, name

        if not TINY:
            # The headline gate: >= 1.5x end-to-end on the skewed join.
            _, _, heuristic, _, cost_based = results["skewed-join"]
            speedup = modeled_seconds(heuristic) / modeled_seconds(cost_based)
            assert speedup >= 1.5, f"skewed-join speedup {speedup:.2f}x < 1.5x"
            # And the cost-based plan never loses on the other shapes.
            for name in ("skewed-CSPA", "skewed-TC"):
                _, _, h, _, c = results[name]
                assert modeled_seconds(c) <= modeled_seconds(h) * 1.10, name

    record(benchmark, check)


def test_replan_loop_converges(benchmark):
    """Serving-shaped loop: same program, drifting request shapes; the
    engine re-plans on bucket changes and the plan cache ends up holding
    one artifact per observed shape (not one per request)."""

    def run():
        cache = ProgramCache()
        engine = LobsterEngine(SKEWED_JOIN, cache=cache, adaptive=True)
        shapes = [60, 60, 60, 1500, 1500, 60] if TINY else [
            200, 200, 200, 6000, 6000, 200,
        ]
        rng = np.random.default_rng(3)
        replans = 0
        for n in shapes:
            db = engine.create_database()
            domain = max(20, n // 20)
            db.add_facts(
                "big_a",
                [(int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))],
            )
            db.add_facts(
                "big_b",
                [(int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))],
            )
            db.add_facts("tiny", [(1,), (2,)])
            result = engine.run(db)
            replans += bool(result.replanned)
        # Re-planning tracks shape *changes*, not request count.
        assert replans < len(shapes)
        assert replans >= 2  # small -> big -> small transitions

    record(benchmark, run)
