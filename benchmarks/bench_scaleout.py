"""Strong scaling of sharded execution — TC and CSPA at 1..8 shards.

For one fixed problem, ``LobsterEngine(shards=N)`` splits the semi-naive
frontier across N virtual devices; the *modeled* steady-state makespan
(`ExecutionResult.simulated_parallel_seconds`: the busiest shard's
kernel + transfer + exchange + allocation seconds) should fall as shards
are added, until cross-device exchange traffic — reported separately
through the merged :class:`DeviceProfile` — becomes the bottleneck.
This mirrors the strong-scaling methodology of the SPEC CPU2026
characterization work: controlled shard counts, one workload, the
communication term broken out.

Shape asserted: on a large transitive closure the makespan decreases
monotonically from 1 to 4 shards (the paper-adjacent scaling claim);
the 8-shard point is reported to show where exchange latency turns the
curve.  ``LOBSTER_BENCH_SCALE=tiny`` shrinks the workloads to smoke-test
the sharded paths (CI); the monotonicity assertion is skipped there —
latency terms dominate tiny deltas — but result identity is still
checked at every shard count.
"""

from __future__ import annotations

import pytest

from repro import LobsterEngine
from repro.workloads.analytics import CSPA, TRANSITIVE_CLOSURE, cspa_instance
from repro.workloads.graphs import load_graph, road_grid

from _harness import print_table, profile_metrics, record, report, tiny_scale

SUITE = "scaleout"

TINY = tiny_scale()
SHARD_COUNTS = [1, 2, 4, 8]


def tc_edges():
    if TINY:
        return road_grid(8, seed=3)
    return load_graph("fe-sphere")


def cspa_facts():
    # httpd is the smallest subject; it is already CI-friendly, so the
    # tiny switch only shrinks the TC graph.
    return cspa_instance("httpd")


def run_tc(shards: int):
    engine = LobsterEngine(TRANSITIVE_CLOSURE, provenance="unit", shards=shards)
    db = engine.create_database()
    db.add_facts("edge", tc_edges())
    result = engine.run(db)
    return result, db.result("path").n_rows


def run_cspa(shards: int):
    engine = LobsterEngine(CSPA, provenance="unit", shards=shards)
    db = engine.create_database()
    facts = cspa_facts()
    db.add_facts("assign", facts["assign"])
    db.add_facts("dereference", facts["dereference"])
    result = engine.run(db)
    return result, db.result("value_flow").n_rows


@pytest.fixture(scope="module")
def results():
    rows = {}
    for name, runner in (("TC", run_tc), ("CSPA", run_cspa)):
        rows[name] = {}
        for shards in SHARD_COUNTS:
            result, n_rows = runner(shards)
            rows[name][shards] = (result, n_rows)
            report(
                SUITE, f"{name}/shards{shards}",
                samples=[result.simulated_parallel_seconds], unit="modeled_s",
                metrics=profile_metrics(result.profile),
                shards=shards, rows=n_rows, tiny=TINY,
            )
    return rows


def _table_rows(per_shard):
    table = []
    base = per_shard[1][0].simulated_parallel_seconds
    for shards, (result, n_rows) in per_shard.items():
        profile = result.profile  # merged across the shard pool
        sim = result.simulated_parallel_seconds
        table.append(
            [
                shards,
                n_rows,
                f"{sim * 1e3:.3f}ms",
                f"{profile.kernel_seconds * 1e3:.3f}ms",
                f"{profile.exchange_seconds * 1e3:.3f}ms",
                f"{profile.exchange_bytes}",
                f"{base / sim:.2f}x" if sim else "-",
            ]
        )
    return table


def test_scaleout_strong_scaling(results, benchmark):
    def check():
        for workload, per_shard in results.items():
            print_table(
                f"Scale-out — {workload} strong scaling"
                + (" (tiny)" if TINY else ""),
                [
                    "shards",
                    "rows",
                    "sim makespan",
                    "kernel (sum)",
                    "exchange (sum)",
                    "exch bytes",
                    "speedup",
                ],
                _table_rows(per_shard),
            )

        # Correctness at every scale: identical result cardinality.
        for per_shard in results.values():
            counts = {n_rows for _, n_rows in per_shard.values()}
            assert len(counts) == 1

        tc = results["TC"]
        # Exchange cost exists exactly when there is more than one shard,
        # and is reported apart from host<->device transfer time.
        assert tc[1][0].profile.exchange_seconds == 0.0
        for shards in SHARD_COUNTS[1:]:
            assert tc[shards][0].profile.exchange_seconds > 0.0

        if not TINY:
            # Shape: makespan falls monotonically from 1 to 4 shards on
            # the large closure (at 8, exchange latency turns the curve).
            sims = [tc[n][0].simulated_parallel_seconds for n in (1, 2, 4)]
            assert sims[0] > sims[1] > sims[2], sims

    record(benchmark, check)


def test_scaleout_benchmark_tc_4shards(benchmark):
    def run():
        run_tc(4)

    benchmark.pedantic(run, rounds=1, iterations=1)
