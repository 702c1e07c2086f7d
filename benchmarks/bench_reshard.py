"""Skew-aware elastic resharding — strong scaling on a Zipf-skewed TC.

A static row-hash partitioner cannot react to key skew: its shard set is
fixed at provisioning time and its row basis ignores keys entirely.  The
:class:`~repro.serve.elastic.ElasticController` starts from the same
2-shard provisioning, observes the served databases' hot-key reports,
and — when the :class:`~repro.dist.ReshardPlanner`'s priced payback
beats the migration cost — grows the shard set and splits hot keys
across owner subsets.

Workload: :func:`~repro.workloads.graphs.zipf_overlap`, a block-overlap
DAG whose edge reuse makes transitive closure kernel-bound while the
rank-1 source concentrates a Zipf head of the derived mass on one join
key.  The sweep reports the static hash partitioner at 1/2/4/8 shards,
a keyed 8-shard map *without* splits (isolating what hot-key splitting
buys), and the elastic configuration.

Shape asserted (full sizes): elastic beats the static hash partitioner
at matched 2-shard provisioning by >= 1.5x modeled busy-seconds, never
loses at any static shard count, migrates exactly when payback exceeds
migration cost (a zero-payback controller declines every plan), and
never loses on the uniform (skew-free) variant of the same workload.
``LOBSTER_BENCH_SCALE=tiny`` shrinks the graph to smoke-test the elastic
paths (CI); latency floors dominate tiny deltas, so the ratio
assertions are skipped there — result identity and cost-gating are
still checked.
"""

from __future__ import annotations

import pytest

from repro import ElasticController, LobsterEngine, ShardMap
from repro.workloads.analytics import TRANSITIVE_CLOSURE
from repro.workloads.graphs import zipf_overlap

from _harness import print_table, profile_metrics, record, report, tiny_scale

SUITE = "reshard"

TINY = tiny_scale()
STATIC_SHARDS = [1, 2, 4, 8]
#: Both systems are provisioned with this many shards; only the elastic
#: one may grow past it.
PROVISIONED = 2
MAX_SHARDS = 8
#: Observed runs a migration must pay for itself within.
HORIZON_RUNS = 16
#: Stored-mass fraction above which a key counts as hot (the workload's
#: rank-2 source sits just above 1/64; rank-3 just below).
MASS_THRESHOLD = 1 / 64
WARMUP_RUNS = 4

GRAPH = (
    dict(n_blocks=12, mids=6, sinks=10, n_sources=64)
    if TINY
    else dict(n_blocks=64, mids=24, sinks=48, n_sources=512)
)


def skewed_edges():
    return zipf_overlap(**GRAPH)


def uniform_edges():
    return zipf_overlap(**GRAPH, skew=0.0)


def run_once(engine, edges):
    db = engine.create_database()
    db.add_facts("edge", edges)
    result = engine.run(db)
    return result, db.result("path").n_rows


def run_static(shards: int, edges):
    if shards == 1:
        engine = LobsterEngine(TRANSITIVE_CLOSURE, provenance="unit")
    else:
        engine = LobsterEngine(
            TRANSITIVE_CLOSURE, provenance="unit", shards=shards
        )
    return run_once(engine, edges)


def run_keyed_nosplit(shards: int, edges):
    engine = LobsterEngine(
        TRANSITIVE_CLOSURE,
        provenance="unit",
        shard_map=ShardMap(shards, key_columns={"path": 0}),
    )
    return run_once(engine, edges)


def run_elastic(edges, horizon_runs: int = HORIZON_RUNS):
    """Provision PROVISIONED keyed shards, let the controller observe a
    few served runs (migrating when the planner prices a win), then
    measure the steady state."""
    engine = LobsterEngine(
        TRANSITIVE_CLOSURE,
        provenance="unit",
        shard_map=ShardMap(PROVISIONED, key_columns={"path": 0}),
    )
    controller = ElasticController(
        engine,
        max_shards=MAX_SHARDS,
        horizon_runs=horizon_runs,
        mass_threshold=MASS_THRESHOLD,
    )
    for _ in range(WARMUP_RUNS):
        db = engine.create_database()
        db.add_facts("edge", edges)
        result = engine.run(db)
        controller.observe(db, result)
        controller.maybe_reshard()
    result, n_rows = run_once(engine, edges)
    return result, n_rows, controller


@pytest.fixture(scope="module")
def results():
    skew = skewed_edges()
    uniform = uniform_edges()
    out = {"skew": {}, "uniform": {}}

    for shards in STATIC_SHARDS:
        result, n_rows = run_static(shards, skew)
        out["skew"][f"static{shards}"] = (result, n_rows)
    result, n_rows = run_keyed_nosplit(MAX_SHARDS, skew)
    out["skew"]["keyed8-nosplit"] = (result, n_rows)
    result, n_rows, controller = run_elastic(skew)
    out["skew"]["elastic"] = (result, n_rows)
    out["controller"] = controller

    for shards in (PROVISIONED, MAX_SHARDS):
        result, n_rows = run_static(shards, uniform)
        out["uniform"][f"static{shards}"] = (result, n_rows)
    result, n_rows, uniform_controller = run_elastic(uniform)
    out["uniform"]["elastic"] = (result, n_rows)
    out["uniform_controller"] = uniform_controller

    # The zero-horizon controller prices every plan at zero payback: it
    # must decline them all and keep the provisioned layout.
    _, _, gated = run_elastic(skew, horizon_runs=0)
    out["gated_controller"] = gated

    for workload in ("skew", "uniform"):
        for name, (result, n_rows) in out[workload].items():
            attrs = dict(shards=result.shards, rows=n_rows, tiny=TINY)
            if name == "elastic":
                ctrl = out[
                    "controller" if workload == "skew" else "uniform_controller"
                ]
                shard_map = ctrl.engine.shard_map
                attrs["migrations"] = sum(p.migrate for p in ctrl.plans)
                attrs["splits"] = sum(
                    len(v) for v in shard_map.splits.values()
                )
            report(
                SUITE, f"{workload}/{name}",
                samples=[result.simulated_parallel_seconds],
                unit="modeled_s",
                metrics=profile_metrics(result.profile),
                **attrs,
            )
    return out


def _table_rows(cells, baseline_name):
    base = cells[baseline_name][0].simulated_parallel_seconds
    rows = []
    for name, (result, n_rows) in cells.items():
        profile = result.profile  # merged across the shard pool
        sim = result.simulated_parallel_seconds
        rows.append(
            [
                name,
                result.shards,
                n_rows,
                f"{sim * 1e3:.3f}ms",
                f"{profile.kernel_seconds * 1e3:.3f}ms",
                f"{profile.exchange_seconds * 1e3:.3f}ms",
                f"{base / sim:.2f}x" if sim else "-",
            ]
        )
    return rows


HEADER = [
    "config",
    "shards",
    "rows",
    "sim makespan",
    "kernel (sum)",
    "exchange (sum)",
    f"speedup vs static{PROVISIONED}",
]


def test_reshard_skewed_curve(results, benchmark):
    def check():
        skew = results["skew"]
        print_table(
            "Elastic resharding — Zipf-skewed TC"
            + (" (tiny)" if TINY else ""),
            HEADER,
            _table_rows(skew, f"static{PROVISIONED}"),
        )

        # Correctness at every configuration: identical result size
        # (bitwise identity across reshard schedules is pinned by the
        # hypothesis suite in tests/test_dist.py).
        assert len({n_rows for _, n_rows in skew.values()}) == 1

        controller = results["controller"]
        applied = [plan for plan in controller.plans if plan.migrate]
        final_map = controller.engine.shard_map
        # The controller scaled out and split the workload's hot key.
        assert applied, "elastic controller never migrated under skew"
        assert controller.engine.shards > PROVISIONED
        # Migration triggers only when priced payback beats the shuffle
        # cost of moving the rows.
        for plan in applied:
            assert plan.payback_s > plan.migration_s

        if not TINY:
            assert final_map.splits.get("path"), "hot key was never split"
            elastic = skew["elastic"][0].simulated_parallel_seconds
            static2 = skew[f"static{PROVISIONED}"][0].simulated_parallel_seconds
            # Headline: >= 1.5x over the static hash partitioner at
            # matched provisioning.
            assert static2 >= 1.5 * elastic, (static2, elastic)
            # And it never loses to *any* static shard count, including
            # the hot-key-blind keyed map at full scale.
            for name, (result, _) in skew.items():
                if name != "elastic":
                    assert result.simulated_parallel_seconds >= elastic, name

    record(benchmark, check)


def test_reshard_uniform_never_loses(results, benchmark):
    def check():
        uniform = results["uniform"]
        print_table(
            "Elastic resharding — uniform (skew-free) TC"
            + (" (tiny)" if TINY else ""),
            HEADER,
            _table_rows(uniform, f"static{PROVISIONED}"),
        )
        assert len({n_rows for _, n_rows in uniform.values()}) == 1
        if not TINY:
            elastic = uniform["elastic"][0].simulated_parallel_seconds
            for name, (result, _) in uniform.items():
                if name != "elastic":
                    assert result.simulated_parallel_seconds >= elastic, name

    record(benchmark, check)


def test_reshard_cost_gate(results, benchmark):
    def check():
        gated = results["gated_controller"]
        assert gated.plans, "zero-horizon controller never planned"
        assert not any(plan.migrate for plan in gated.plans)
        assert gated.engine.shards == PROVISIONED
        declined = gated.metrics.counter("reshard.declined").value
        assert declined == len(gated.plans)

    record(benchmark, check)


def test_reshard_benchmark_elastic(benchmark):
    def run():
        run_elastic(skewed_edges())

    benchmark.pedantic(run, rounds=1, iterations=1)
