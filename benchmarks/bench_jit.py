"""Trace-JIT: fused kernels vs. the interpreter on a hot serving loop.

The serving scenario the JIT targets: one compiled program executed over
and over on same-shaped databases.  The interpreter launches one kernel
per APM instruction every run; after ``hot_runs`` warm executions the
trace-JIT records the instruction trace once and replays fused kernels —
one launch per join region instead of one per instruction, with no
intermediate-register round-trips.

Workloads: hot transitive closure (unit and minmaxprob provenance) and
hot CSPA.  For each, the same request loop runs on an interpreted engine
and a JIT'd engine; identity of results is asserted row-for-row and
tag-for-tag.  Gate: >= 2x on modeled device busy seconds for the unit-TC
loop (the deterministic simulated clock — wall time is reported as a
multi-trial mean +/- stddev but never gated).  ``LOBSTER_BENCH_SCALE=tiny``
shrinks inputs for CI smoke runs and skips the gate (tiny inputs are
launch-latency noise).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import JitConfig, LobsterEngine, ProgramCache
from repro.workloads.analytics import CSPA

from _harness import print_table, record, report, timed, tiny_scale

SUITE = "jit"

TINY = tiny_scale()

TC = """
rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
query path
"""

#: Runs per request loop: enough past the warm/record phases that the
#: steady state dominates the modeled totals.
N_RUNS = 4 if TINY else 8
HOT_RUNS = 2
WALL_TRIALS = 2 if TINY else 3


def tc_facts():
    n_nodes = 30 if TINY else 90
    n_edges = 70 if TINY else 260
    rng = np.random.default_rng(17)
    edges = {
        (int(a), int(b))
        for a, b in rng.integers(0, n_nodes, size=(n_edges, 2))
        if a != b
    }
    return {"edge": sorted(edges)}


def cspa_facts():
    n_vars = 25 if TINY else 60
    rng = np.random.default_rng(23)
    assign = {
        (int(a), int(b))
        for a, b in rng.integers(0, n_vars, size=(n_vars * 2, 2))
        if a != b
    }
    deref = {
        (int(a), int(b))
        for a, b in rng.integers(0, n_vars, size=(n_vars // 2, 2))
    }
    return {"assign": sorted(assign), "dereference": sorted(deref)}


WORKLOADS = {
    "hot-TC/unit": (TC, "path", "unit", tc_facts),
    "hot-TC/minmaxprob": (TC, "path", "minmaxprob", tc_facts),
    "hot-CSPA/unit": (CSPA, "value_flow", "unit", cspa_facts),
}


def fact_probs(provenance, facts):
    if provenance == "unit":
        return None
    rng = np.random.default_rng(5)
    return {
        name: (0.4 + 0.6 * rng.random(len(rows))).tolist()
        for name, rows in facts.items()
    }


def run_loop(source, provenance, facts, probs, jit):
    """One serving loop: N_RUNS same-shaped databases through one engine.
    Returns (last database, last result, steady-state modeled seconds)."""
    engine = LobsterEngine(
        source,
        provenance=provenance,
        cache=ProgramCache(),
        jit=JitConfig(hot_runs=HOT_RUNS) if jit else False,
    )
    db = result = None
    steady = []
    for i in range(N_RUNS):
        db = engine.create_database()
        for name, rows in facts.items():
            db.add_facts(name, rows, probs.get(name) if probs else None)
        result = engine.run(db)
        if i > HOT_RUNS:  # past warm + record: the JIT's steady state
            steady.append(result.profile.busy_seconds)
    return db, result, sum(steady)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name, (source, query, provenance, loader) in WORKLOADS.items():
        facts = loader()
        probs = fact_probs(provenance, facts)
        idb, ires, i_modeled = run_loop(source, provenance, facts, probs, jit=False)
        jdb, jres, j_modeled = run_loop(source, provenance, facts, probs, jit=True)
        # Wall clock goes through the shared multi-trial harness; the
        # modeled steady-state seconds are the gated numbers.
        i_wall = timed(
            lambda: run_loop(source, provenance, facts, probs, jit=False),
            trials=WALL_TRIALS,
        )
        j_wall = timed(
            lambda: run_loop(source, provenance, facts, probs, jit=True),
            trials=WALL_TRIALS,
        )
        report(
            SUITE, f"{name}/interp", samples=[i_modeled], unit="modeled_s",
            mode="interp", tiny=TINY,
        )
        report(
            SUITE, f"{name}/jit", samples=[j_modeled], unit="modeled_s",
            mode="jit", tiny=TINY,
        )
        report(SUITE, f"{name}/interp-wall", i_wall, mode="interp", tiny=TINY)
        report(SUITE, f"{name}/jit-wall", j_wall, mode="jit", tiny=TINY)
        out[name] = (query, idb, ires, i_modeled, i_wall, jdb, jres, j_modeled, j_wall)
    return out


def test_jit_vs_interpreter(results, benchmark):
    def check():
        table = []
        for name, (
            query, idb, ires, i_modeled, i_wall, jdb, jres, j_modeled, j_wall,
        ) in results.items():
            table.append(
                [
                    name,
                    idb.result(query).n_rows,
                    f"{i_modeled * 1e3:.3f}ms",
                    f"{j_modeled * 1e3:.3f}ms",
                    f"{i_modeled / j_modeled:.2f}x" if j_modeled else "-",
                    i_wall.label,
                    j_wall.label,
                ]
            )
        print_table(
            "Trace-JIT vs interpreter on hot loops (modeled busy seconds)"
            + (" (tiny)" if TINY else ""),
            [
                "workload",
                "rows",
                "interp",
                "jit",
                "speedup",
                "interp wall",
                "jit wall",
            ],
            table,
        )

        for name, (query, idb, _, _, _, jdb, jres, _, _) in results.items():
            # Identity: the JIT's contract is bitwise equality.
            itab, jtab = idb.result(query), jdb.result(query)
            assert itab.n_rows == jtab.n_rows, name
            for ic, jc in zip(itab.columns, jtab.columns):
                assert np.array_equal(ic, jc), name
            assert np.array_equal(itab.tags, jtab.tags), name
            # And the last run really went through the code cache.
            assert jres.jit and jres.jit_deopt is None, name

        # Fused kernels launch far fewer times than one-per-instruction.
        for name, (_, _, ires, _, _, _, jres, _, _) in results.items():
            assert (
                jres.profile.kernel_launches < ires.profile.kernel_launches
            ), name

        if not TINY:
            # The headline gate: >= 2x modeled on the hot unit-TC loop.
            (_, _, _, i_modeled, _, _, _, j_modeled, _) = results["hot-TC/unit"]
            ratio = i_modeled / j_modeled
            assert ratio >= 2.0, f"hot-TC/unit speedup {ratio:.2f}x < 2.0x"
            # And the JIT never loses on the other hot loops.
            for name in ("hot-TC/minmaxprob", "hot-CSPA/unit"):
                (_, _, _, i_m, _, _, _, j_m, _) = results[name]
                assert j_m <= i_m * 1.05, name

    record(benchmark, check)
