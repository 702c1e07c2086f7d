"""Cost-based planning: ordering, equivalence, feedback, re-planning.

The planner contract has three legs:

* **determinism** — the syntactic heuristic breaks ties stably (original
  body order) so content-addressed plans never wobble;
* **equivalence** — every plan the cost-based path picks produces rows
  *and tags* bitwise identical to the heuristic plan, across semirings,
  on TC and CSPA (only operator order may change);
* **adaptivity** — observed statistics select the plan bucket, drift
  invalidates cached plans, and the serving loop re-plans transparently
  between batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DevicePool,
    LobsterEngine,
    LobsterSession,
    MetricsRegistry,
    ProgramCache,
    Request,
    Scheduler,
)
from repro.datalog import ast
from repro.provenance.registry import create as create_provenance
from repro.ram import planner
from repro.runtime.relation import StoredRelation
from repro.runtime.table import Table
from repro.stats import CostModel, StatsCatalog
from repro.workloads.analytics import CSPA
from _helpers import TC_PROGRAM, random_digraph

PROV_KWARGS = {"top-k-proofs-device": {"k": 2}}

SKEWED = """
rel hit(x, z) :- big_a(x, y) and big_b(y, z) and tiny(x).
query hit
"""


def tags_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def atom(pred: str, *vars_: str) -> ast.Atom:
    return ast.Atom(pred, tuple(ast.Var(v) for v in vars_))


def catalog_of(sizes: dict[str, list[tuple]]) -> StatsCatalog:
    prov = create_provenance("unit")
    relations = {}
    for name, rows in sizes.items():
        arity = len(rows[0]) if rows else 0
        rel = StoredRelation(name, tuple([np.dtype(np.int64)] * arity), prov)
        tags = prov.input_tags(np.full(len(rows), -1, dtype=np.int64))
        rel.advance(Table.from_rows(rows, rel.dtypes, tags))
        relations[name] = rel.enable_stats()
    return StatsCatalog(relations)


class TestTieBreaking:
    """order_atoms must break equal scores by original body position."""

    def test_equal_share_counts_keep_original_order(self):
        atoms = [atom("r", "x", "y"), atom("s", "y", "z"), atom("t", "y", "w")]
        ordered = planner.order_atoms(atoms)
        # s and t both share exactly {y} with the bound set after r; the
        # textually first (s) must win the tie.
        assert [a.predicate for a in ordered] == ["r", "s", "t"]

    def test_all_disconnected_atoms_stay_in_order(self):
        atoms = [atom("a", "x"), atom("b", "y"), atom("c", "z")]
        ordered = planner.order_atoms(atoms)
        assert [a.predicate for a in ordered] == ["a", "b", "c"]

    def test_tie_break_is_first_not_last(self):
        # Regression: a >= comparison would pick the *last* equal-score
        # atom and silently change every cached plan's content address.
        atoms = [
            atom("seed", "x"),
            atom("left", "x", "y"),
            atom("right", "x", "z"),
        ]
        ordered = planner.order_atoms(atoms)
        assert [a.predicate for a in ordered] == ["seed", "left", "right"]


class TestCostBasedOrdering:
    def test_tiny_relation_drives_order(self):
        atoms = [
            atom("big_a", "x", "y"),
            atom("big_b", "y", "z"),
            atom("tiny", "x"),
        ]
        rng = np.random.default_rng(0)
        catalog = catalog_of(
            {
                "big_a": [
                    (int(a), int(b))
                    for a, b in rng.integers(0, 100, size=(2000, 2))
                ],
                "big_b": [
                    (int(a), int(b))
                    for a, b in rng.integers(0, 100, size=(2000, 2))
                ],
                "tiny": [(1,), (2,)],
            }
        )
        plan = planner.plan_atoms(atoms, [], catalog)
        assert plan.used_stats
        order = [a.predicate for a in plan.order]
        # tiny must join before the big-big product materializes.
        assert order.index("tiny") < 2
        assert plan.estimated_rows is not None
        assert plan.estimated_cost is not None

    def test_no_stats_falls_back_to_heuristic(self):
        atoms = [atom("a", "x", "y"), atom("b", "y", "z")]
        for catalog in (None, StatsCatalog({})):
            plan = planner.plan_atoms(atoms, [], catalog)
            assert not plan.used_stats
            assert plan.estimated_rows is None
            assert [x.predicate for x in plan.order] == [
                x.predicate for x in planner.order_atoms(atoms)
            ]

    def test_greedy_path_beyond_dp_limit(self):
        chain = [atom(f"r{i}", f"v{i}", f"v{i+1}") for i in range(10)]
        rows = {
            f"r{i}": [(j, j + 1) for j in range(5 + 50 * i)] for i in range(10)
        }
        plan = planner.plan_atoms(chain, [], catalog_of(rows))
        assert plan.used_stats
        assert sorted(a.predicate for a in plan.order) == sorted(rows)
        # The smallest relation seeds the greedy chain.
        assert plan.order[0].predicate == "r0"

    def test_equal_cost_plans_are_deterministic(self):
        atoms = [atom("p", "x", "y"), atom("q", "y", "z")]
        rows = {"p": [(1, 2)] * 1, "q": [(2, 3)]}
        first = planner.plan_atoms(atoms, [], catalog_of(rows))
        second = planner.plan_atoms(atoms, [], catalog_of(rows))
        assert [a.predicate for a in first.order] == [
            a.predicate for a in second.order
        ]

    def test_comparison_selectivity_applies(self):
        atoms = [atom("r", "x", "y")]
        rows = {"r": [(i, i) for i in range(100)]}
        comparison = ast.Comparison("==", ast.Var("x"), ast.Var("y"))
        with_cmp = planner.plan_atoms(atoms, [comparison], catalog_of(rows))
        without = planner.plan_atoms(atoms, [], catalog_of(rows))
        assert with_cmp.estimated_rows < without.estimated_rows


def run_pair(source, provenance, loader, **engine_kwargs):
    """(heuristic db, cost-based db) after identical runs."""
    kwargs = PROV_KWARGS.get(provenance, {})
    cache = ProgramCache()
    heuristic = LobsterEngine(source, provenance=provenance, cache=cache, **kwargs)
    hdb = heuristic.create_database()
    loader(hdb)
    heuristic.run(hdb)

    adaptive = LobsterEngine(
        source,
        provenance=provenance,
        cache=cache,
        adaptive=True,
        **engine_kwargs,
        **kwargs,
    )
    adb = adaptive.create_database()
    loader(adb)
    result = adaptive.run(adb)
    return hdb, adb, result


class TestBitwiseEquivalence:
    """Cost-based plans must match heuristic plans row- and tag-wise."""

    @pytest.mark.parametrize(
        "provenance", ["unit", "minmaxprob", "top-k-proofs-device"]
    )
    def test_tc(self, provenance):
        rng = np.random.default_rng(11)
        edges = random_digraph(rng, 30, 120)
        probs = list(rng.uniform(0.05, 0.99, size=len(edges)))

        def load(db):
            db.add_facts(
                "edge", edges, probs=probs if provenance != "unit" else None
            )

        hdb, adb, result = run_pair(TC_PROGRAM, provenance, load)
        expected, actual = hdb.result("path"), adb.result("path")
        assert actual.rows() == expected.rows()
        assert tags_identical(actual.tags, expected.tags)
        assert result.feedback is not None
        assert result.feedback.stats_bucket is not None

    @pytest.mark.parametrize(
        "provenance", ["unit", "minmaxprob", "top-k-proofs-device"]
    )
    def test_cspa(self, provenance):
        rng = np.random.default_rng(5)
        src = rng.integers(1, 24, size=36)
        dst = (src * rng.uniform(0.0, 1.0, size=36)).astype(np.int64)
        assign = sorted({(int(a), int(b)) for a, b in zip(src, dst) if a != b})
        deref = sorted(
            {
                (int(a), int(b))
                for a, b in zip(
                    rng.integers(0, 24, size=8), rng.integers(0, 24, size=8)
                )
            }
        )
        probs = list(rng.uniform(0.1, 0.99, size=len(assign)))

        def load(db):
            db.add_facts(
                "assign", assign, probs=probs if provenance != "unit" else None
            )
            db.add_facts("dereference", deref)

        hdb, adb, _ = run_pair(CSPA, provenance, load)
        for predicate in ("value_flow", "memory_alias", "value_alias"):
            expected, actual = hdb.result(predicate), adb.result(predicate)
            assert actual.rows() == expected.rows()
            assert tags_identical(actual.tags, expected.tags)

    def test_skewed_join_identical_and_cheaper(self):
        rng = np.random.default_rng(3)
        big_a = [(int(a), int(b)) for a, b in rng.integers(0, 150, size=(2500, 2))]
        big_b = [(int(a), int(b)) for a, b in rng.integers(0, 150, size=(2500, 2))]
        tiny = [(i,) for i in range(3)]

        def load(db):
            db.add_facts("big_a", big_a)
            db.add_facts("big_b", big_b)
            db.add_facts("tiny", tiny)

        hdb, adb, result = run_pair(SKEWED, "unit", load)
        assert adb.result("hit").rows() == hdb.result("hit").rows()
        # The cost-based plan joins through tiny first: strictly fewer
        # modeled kernel-seconds than the syntactic big-big-first plan.
        heuristic = LobsterEngine(SKEWED, cache=ProgramCache())
        hdb2 = heuristic.create_database()
        load(hdb2)
        h_result = heuristic.run(hdb2)
        assert result.profile.kernel_seconds < h_result.profile.kernel_seconds


class TestAdaptiveReplanning:
    def test_first_run_selects_bucket_plan(self):
        cache = ProgramCache()
        engine = LobsterEngine(TC_PROGRAM, cache=cache, adaptive=True)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (2, 3)])
        result = engine.run(db)
        assert result.replanned  # compile-time plan -> bucket plan
        assert result.feedback.stats_bucket is not None
        assert result.feedback.rule_estimates
        assert result.feedback.rule_actuals

    def test_same_shape_reuses_plan(self):
        cache = ProgramCache()
        engine = LobsterEngine(TC_PROGRAM, cache=cache, adaptive=True)
        for i, expect_replan in ((0, True), (1, False)):
            db = engine.create_database()
            db.add_facts("edge", [(i, i + 1), (i + 1, i + 2)])
            result = engine.run(db)
            assert result.replanned is expect_replan
        assert cache.stats.hits >= 1  # second run's plan was a cache hit

    def test_bucket_drift_triggers_replan(self):
        cache = ProgramCache()
        engine = LobsterEngine(TC_PROGRAM, cache=cache, adaptive=True)
        small = engine.create_database()
        small.add_facts("edge", [(0, 1)])
        engine.run(small)
        big = engine.create_database()
        big.add_facts("edge", [(i, i + 1) for i in range(200)])
        result = engine.run(big)
        assert result.replanned  # order-of-magnitude jump -> new bucket

    def test_feedback_drift_invalidates_cached_plan(self):
        cache = ProgramCache()
        # A 1.01x threshold makes any estimation error count as drift.
        engine = LobsterEngine(
            TC_PROGRAM, cache=cache, adaptive=True, replan_drift=1.01
        )
        db = engine.create_database()
        db.add_facts("edge", [(i, i + 1) for i in range(40)])
        result = engine.run(db)
        assert result.feedback.max_drift() > 1.01
        assert cache.stats.invalidations >= 1
        # The invalidated bucket re-compiles on the next same-shape run.
        db2 = engine.create_database()
        db2.add_facts("edge", [(i, i + 1) for i in range(40)])
        misses_before = cache.stats.misses
        engine.run(db2)
        assert cache.stats.misses > misses_before

    def test_drift_invalidation_does_not_thrash(self):
        """Structural estimator error (same data, persistent drift) must
        invalidate at most once per plan key — a hot serving path cannot
        pay a full recompile per batch for a plan that will not change."""
        cache = ProgramCache()
        engine = LobsterEngine(
            TC_PROGRAM, cache=cache, adaptive=True, replan_drift=1.01
        )
        edges = [(i, i + 1) for i in range(40)]
        for _ in range(2):
            db = engine.create_database()
            db.add_facts("edge", edges)
            engine.run(db)
        assert cache.stats.invalidations == 1
        misses_after_two = cache.stats.misses
        db = engine.create_database()
        db.add_facts("edge", edges)
        engine.run(db)  # steady state: cache hit, no new invalidation
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == misses_after_two

    def test_cost_model_separates_cached_plans(self):
        """Plans costed under different cost models must not share one
        cache entry for the same stats bucket."""
        from repro.runtime.cache import OptimizationConfig, cache_key, plan_bucket

        rows = {"a": [(i, i % 5) for i in range(50)]}
        catalog = catalog_of(rows)
        default = plan_bucket(catalog, CostModel())
        output_heavy = plan_bucket(catalog, CostModel(output_cost=4.0))
        assert default != output_heavy
        assert plan_bucket(catalog, None) == default
        opts = OptimizationConfig()
        assert cache_key(TC_PROGRAM, "unit", opts, False, default) != cache_key(
            TC_PROGRAM, "unit", opts, False, output_heavy
        )
        assert plan_bucket(None, None) is None

    def test_incremental_run_keeps_delta_seeding(self):
        """Adaptive plan selection must not break the warm path."""
        cache = ProgramCache()
        engine = LobsterEngine(TC_PROGRAM, cache=cache, adaptive=True)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        engine.run(db)
        db.add_facts("edge", [(2, 3)])
        result = engine.run(db)
        assert result.incremental
        assert sorted(db.result("path").rows()) == sorted(
            (a, b) for a in range(4) for b in range(a + 1, 4)
        )

    def test_adaptive_requires_cache(self):
        from repro import LobsterError

        with pytest.raises(LobsterError):
            LobsterEngine(TC_PROGRAM, cache=False, adaptive=True)

    def test_non_adaptive_engine_unchanged(self):
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        result = engine.run(db)
        assert result.feedback is None
        assert result.replanned is False


class TestServeLoopReplanning:
    """Drift-triggered re-planning through the serving layers."""

    def test_session_replans_between_batches(self):
        metrics = MetricsRegistry()
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache(), adaptive=True)
        session = LobsterSession(engine, metrics=metrics)

        def database(n_edges):
            db = session.create_database()
            db.add_facts("edge", [(i, i + 1) for i in range(n_edges)])
            return db

        # Steady small-graph traffic: one re-plan (base -> bucket), then
        # every batch reuses the bucket's plan.
        session.run_batch([database(3) for _ in range(3)], retain=False)
        after_small = metrics.counter("session.replans").value
        assert after_small == 1
        # Traffic shape shifts by orders of magnitude: the session
        # transparently re-plans between batches.
        session.run_batch([database(300) for _ in range(2)], retain=False)
        assert metrics.counter("session.replans").value == after_small + 1
        assert metrics.counter("session.queries").value == 5

    def test_scheduler_replans_transparently(self):
        metrics = MetricsRegistry()
        engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache(), adaptive=True)
        scheduler = Scheduler(DevicePool(1), metrics=metrics)

        def request(n_edges, arrival):
            db = engine.create_database()
            db.add_facts("edge", [(i, i + 1) for i in range(n_edges)])
            return Request(engine, db, arrival_s=arrival)

        small = [request(3, 0.001 * i) for i in range(4)]
        big = [request(250, 0.001)]
        scheduler.run(small)
        replans_small = metrics.counter("session.replans").value
        assert replans_small >= 1
        report = scheduler.run(big)
        assert report.completed == 1
        assert metrics.counter("session.replans").value > replans_small
        # Served result matches a solo run of the same database shape.
        solo_engine = LobsterEngine(TC_PROGRAM, cache=ProgramCache())
        solo = solo_engine.create_database()
        solo.add_facts("edge", [(i, i + 1) for i in range(250)])
        solo_engine.run(solo)
        assert big[0].database.result("path").rows() == solo.result("path").rows()
