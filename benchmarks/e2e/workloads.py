"""The benchmark's workloads: what is set up, what one timed op is, and
how its output is checked.

Each workload drives ``repro`` through its public API in the default
configuration — no ``jit=``, ``adaptive=``, ``shards=`` or ``tracing=`` —
so a mechanism shows up here only once it is the default path.  Module-
level functions are called as ``repro.recover(...)``, never imported by
name, so the tracer's rebinding reaches them.

The runner (:mod:`run`) calls, in order: the constructor (input
generation — the benchmark's own time), :meth:`Workload.setup` several
times (program-side set-up, timed as ``setup_s``), then repeatedly
:meth:`prepare` (untimed staging of op number ``op``), :meth:`call` (the
timed op) and
:meth:`observe` (untimed output check + exact counts), and finally
:meth:`check` (comparison against :mod:`reference`) and :meth:`close`.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import generators
import reference
import repro

HERE = Path(__file__).resolve().parent
#: Scratch space for durable state; inside the checkout, ignored by git.
OUT = HERE / "out"


def program(name: str) -> str:
    return (HERE / "programs" / f"{name}.dl").read_text()


class Workload:
    """Base protocol (see the module docstring for the call order)."""

    name = ""
    #: Ops completed by one timed :meth:`call`.
    units = 1
    #: Warm-up calls at the end of :meth:`setup` (caches filled, lazy
    #: imports done, heap grown) — part of ``setup_s``, never timed as ops.
    warmups = 1
    #: Traced ops the exact counters are averaged over (a fixed prefix of
    #: the op sequence, so the counts repeat from run to run).
    count_ops = 2

    def __init__(self, seed: int, smoke: bool):
        """``smoke`` swaps the full-size inputs for check-size ones."""
        self.seed = seed

    def setup(self) -> None:
        """Build every program-side object from scratch and warm up."""
        self.build()
        for op in range(self.warmups):
            self.prepare(op)
            self.observe(self.call())

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self, op: int) -> None:
        """Untimed staging for the next :meth:`call`, which is op number
        ``op``.  The traced run stages the same number twice in a row
        (one call traced, one not): a workload that cycles through
        samples picks the sample from ``op``, one whose ops consume state
        (a stream tick) just runs its next op."""

    def call(self):
        raise NotImplementedError

    def observe(self, output) -> tuple[int, dict[str, float]]:
        """Check one call's output.  Returns ``(failed ops, counts)``;
        ``counts`` are exact quantities read off public results, already
        per op (the traced run averages them over its counted calls)."""
        return 0, {}

    def check(self) -> tuple[int, int]:
        """Compare against the independent reference; returns
        ``(comparisons attempted, comparisons failed)``."""
        return 0, 0

    def close(self) -> None:
        """Release what :meth:`setup` acquired outside the process."""


class CompileSuite(Workload):
    name = "compile_suite"
    count_ops = 1
    #: (program, provenance it is normally run under).
    PROGRAMS = [
        ("tc", "unit"),
        ("samegen", "unit"),
        ("cspa", "unit"),
        ("psa", "minmaxprob"),
        ("pathfinder", "diff-top-1-proofs"),
        ("pacman", "diff-top-1-proofs"),
        ("hwf", "diff-top-1-proofs"),
        ("clutrr", "diff-top-1-proofs"),
        ("rna", "prob-top-1-proofs"),
        ("reach", "minmaxprob"),
    ]

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        order = np.random.default_rng(seed).permutation(len(self.PROGRAMS))
        self.sources = [
            (self.PROGRAMS[i][0], program(self.PROGRAMS[i][0]), self.PROGRAMS[i][1])
            for i in order
        ]
        self.shapes = None

    def build(self):
        self.engines = []

    def call(self):
        return [
            repro.LobsterEngine(source, provenance=provenance, cache=False)
            for _, source, provenance in self.sources
        ]

    def observe(self, engines):
        self.engines = engines
        shapes = [
            (len(e.resolved.rules), len(e.ram.strata), e.apm.instruction_count())
            for e in engines
        ]
        if self.shapes is None:
            self.shapes = shapes
        return int(shapes != self.shapes), {}

    def check(self):
        """Every compiled program evaluates a small random fact base to
        the reference interpreter's result: the artifact is executable
        and means what the source says."""
        failed = 0
        rng = np.random.default_rng(self.seed)
        for (_, source, provenance), engine in zip(self.sources, self.engines):
            resolved = engine.resolved
            facts = {}
            for relation in sorted(resolved.edb_predicates):
                dtypes = resolved.schemas[relation]
                rows = set()
                for _ in range(8):
                    # Ascending ints keep every relation acyclic, so rules
                    # that compute new values recursively (HWF) terminate.
                    ints = iter(sorted(rng.choice(7, size=len(dtypes), replace=False)))
                    rows.add(
                        tuple(
                            float(rng.integers(1, 6)) if dt.kind == "f" else int(next(ints))
                            for dt in dtypes
                        )
                    )
                # Probabilistic semirings get a probability on every fact.
                probs = None
                if provenance != "unit":
                    probs = [float(p) for p in rng.uniform(0.5, 1.0, len(rows))]
                facts[relation] = (sorted(rows), probs)
            relations = sorted(resolved.idb_predicates)
            expected = reference.scallop_probs(source, provenance, facts, relations)
            database = engine.create_database()
            for relation, (rows, probs) in facts.items():
                database.add_facts(relation, rows, probs=probs)
            engine.run(database)
            actual = {
                relation: engine.query_probs(database, relation)
                for relation in relations
            }
            failed += not all(
                reference.same_probs(actual[r], expected[r], reference.PROB_TOL)
                for r in relations
            )
        return len(self.sources), failed


class TcCold(Workload):
    name = "tc_cold"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.edges = (
            generators.tc_graph(seed, n=40, shape_seed=seed)
            if smoke
            else generators.tc_graph(seed)
        )
        closure = reference.bfs_closure(self.edges)
        self.expected = reference.digest(closure[:, 0], closure[:, 1])

    def build(self):
        self.engine = repro.LobsterEngine(program("tc"), provenance="unit")

    def call(self):
        database = self.engine.create_database()
        database.add_facts("edge", self.edges)
        self.engine.run(database)
        return database.result("path").columns

    def observe(self, columns):
        got = reference.digest(*(np.asarray(c, dtype=np.int64) for c in columns))
        return int(got != self.expected), {}


class CspaProb(Workload):
    name = "cspa_prob"
    RELATIONS = ["value_flow", "memory_alias", "value_alias"]

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.check_facts = generators.cspa_instance(seed, n=24, shape_seed=seed)
        self.facts = self.check_facts if smoke else generators.cspa_instance(seed)
        self.expected = None

    def build(self):
        self.engine = repro.LobsterEngine(program("cspa"), provenance="minmaxprob")

    def evaluate(self, facts) -> dict[str, dict[tuple, float]]:
        database = self.engine.create_database()
        for relation, (rows, probs) in facts.items():
            database.add_facts(relation, rows, probs=probs)
        self.engine.run(database)
        return {r: self.engine.query_probs(database, r) for r in self.RELATIONS}

    def call(self):
        return self.evaluate(self.facts)

    def observe(self, results):
        if self.expected is None:
            self.expected = results
        return int(results != self.expected), {}

    def check(self):
        expected = reference.scallop_probs(
            program("cspa"), "minmaxprob", self.check_facts, self.RELATIONS
        )
        actual = self.evaluate(self.check_facts)
        return 1, int(
            not all(reference.same_probs(actual[r], expected[r]) for r in self.RELATIONS)
        )


class NesyTrain(Workload):
    name = "nesy_train"
    warmups = 3
    PROVENANCE = {"provenance": "diff-top-1-proofs", "proof_capacity": 128}

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.check_samples = generators.pathfinder_samples(
            seed, grid=4, count=4, shape_seed=seed
        )
        self.samples = (
            self.check_samples if smoke else generators.pathfinder_samples(seed)
        )
        #: Counters cover one full pass over the distinct samples.
        self.count_ops = len(self.samples)
        self.seen: dict[int, str] = {}

    def build(self):
        self.engine = repro.LobsterEngine(program("pathfinder"), **self.PROVENANCE)

    def forward(self, sample):
        database = self.engine.create_database()
        database.add_facts("edge", sample["edges"], probs=sample["probs"])
        database.add_facts("is_endpoint", [(cell,) for cell in sample["endpoints"]])
        self.engine.run(database)
        probs = self.engine.query_probs(database, "endpoints_connected")
        return database, probs.get((), 0.0)

    def prepare(self, op):
        self.index = op % len(self.samples)

    def call(self):
        index = self.index
        sample = self.samples[index]
        database, prob = self.forward(sample)
        # Binary cross-entropy against the label, d(loss)/d(prob).
        clipped = min(max(prob, 1e-6), 1.0 - 1e-6)
        grad = -1.0 / clipped if sample["label"] else 1.0 / (1.0 - clipped)
        grad_in = self.engine.backward(database, "endpoints_connected", {(): grad})
        return index, prob, grad_in

    def observe(self, output):
        index, prob, grad_in = output
        got = reference.digest(np.array([prob]), grad_in)
        return int(self.seen.setdefault(index, got) != got), {}

    def check(self):
        failed = 0
        for sample in self.check_samples:
            facts = {
                "edge": (sample["edges"], sample["probs"]),
                "is_endpoint": ([(cell,) for cell in sample["endpoints"]], None),
            }
            expected = reference.scallop_probs(
                program("pathfinder"), facts=facts,
                relations=["endpoints_connected"], **self.PROVENANCE,
            )["endpoints_connected"].get((), 0.0)
            failed += abs(self.forward(sample)[1] - expected) > reference.PROB_TOL
        return len(self.check_samples), failed


class ServeBurst(Workload):
    name = "serve_burst"
    count_ops = 1
    CHECKED_REQUESTS = 8

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.specs = (
            generators.serve_requests(seed, count=12, shape_seed=seed)
            if smoke
            else generators.serve_requests(seed)
        )
        self.units = len(self.specs)
        self.expected = None

    def build(self):
        self.engine = repro.LobsterEngine(program("tc"), provenance="minmaxprob")

    def prepare(self, op):
        self.requests = []
        for spec in self.specs:
            database = self.engine.create_database()
            database.add_facts("edge", spec["edges"], probs=spec["probs"])
            self.requests.append(
                repro.Request(
                    self.engine, database, slo=spec["slo"], arrival_s=spec["arrival_s"]
                )
            )

    def call(self):
        pool = repro.DevicePool(2, policy="least-loaded")
        return repro.Scheduler(pool).run(self.requests)

    def observe(self, report):
        latencies = [o.latency_s for o in report.outcomes if o.status == "completed"]
        tables = [request.database.result("path") for request in self.requests]
        got = reference.digest(
            *(column for table in tables for column in table.columns),
            *(request.database.provenance.prob(t.tags) for request, t in zip(self.requests, tables)),
            np.array(latencies),
        )
        if self.expected is None:
            self.expected = got
        accounted = (
            report.completed + report.rejected + report.shed
            == report.submitted
            == len(self.requests)
        )
        if got != self.expected or not accounted:
            failed = len(self.requests)
        else:
            failed = report.rejected + report.shed  # a refused request is a failed op
        batches = report.metrics.counter("serve.batches").value
        counts = {
            "serve.batches": batches / self.units,
            "serve.mean_batch_size": report.completed / batches if batches else 0.0,
            "serve.modeled_p50_s": float(np.quantile(latencies, 0.5)) if latencies else 0.0,
            "serve.modeled_p99_s": float(np.quantile(latencies, 0.99)) if latencies else 0.0,
            "serve.shed_share": report.shed / report.submitted,
            "serve.rejected_share": report.rejected / report.submitted,
            "dist.devices": report.pool_size,
        }
        return failed, counts

    def check(self):
        failed = 0
        for spec, request in list(zip(self.specs, self.requests))[: self.CHECKED_REQUESTS]:
            expected = reference.widest_path_closure(spec["edges"], spec["probs"])
            actual = self.engine.query_probs(request.database, "path")
            failed += not reference.same_probs(actual, expected)
        return min(self.CHECKED_REQUESTS, len(self.specs)), failed


class _DurableStream(Workload):
    """Shared set-up of the two durable-streaming workloads: a standing
    transitive-closure view over a preloaded backbone, churned by a
    sliding window of leaf taps, every tick applied through a
    RecoveryManager (WAL append with the default fsync per append,
    checkpoint every 5 ticks, 2 checkpoints kept)."""

    WINDOW = 12
    PER_TICK = 2
    CHECKPOINT_EVERY = 5
    #: Bounded so the view's checkpointed history — and with it the
    #: checkpoint size — is stationary after the warm-up ticks.
    MAX_HISTORY = 16

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.instance = (
            generators.stream_instance(seed, backbone=30, taps=60, shape_seed=seed)
            if smoke
            else generators.stream_instance(seed)
        )
        #: Order and probabilities of the taps belong to the shape too.
        self.stream_seed = seed if smoke else generators.SHAPE_SEED
        self.root = OUT / f"state-{self.name}-{seed}"

    def incarnation(self):
        """Engine + feed of one process incarnation (the feed is a pure
        function of the tick, which recovery relies on)."""
        engine = repro.LobsterEngine(program("tc"), provenance="minmaxprob")
        stream = repro.RelationStream(
            "edge", self.instance["taps"], self.PER_TICK, seed=self.stream_seed,
            prob_range=(0.5, 0.95),
        )
        return engine, repro.SlidingWindow(stream, size=self.WINDOW)

    def build(self):
        self.close()
        self.engine, self.feed = self.incarnation()
        database = self.engine.create_database()
        database.add_facts(
            "edge", self.instance["backbone"], probs=self.instance["backbone_probs"]
        )
        self.engine.run(database)
        self.view = repro.MaterializedView(
            self.engine, database=database, name="tc", max_history=self.MAX_HISTORY
        )
        self.manager = repro.RecoveryManager(
            self.root, checkpoint_every=self.CHECKPOINT_EVERY, keep_checkpoints=2
        )
        self.manager.register("tc", self.view, self.feed)
        self.subscription = self.view.subscribe(name="bench")
        #: The benchmark's own copy of the window: tap edge -> probability.
        self.live: dict[tuple, float] = {}

    def tick(self):
        delta = self.feed.advance()
        view_delta = self.manager.apply("tc", delta)
        return delta, view_delta, self.subscription.poll()

    def follow(self, delta) -> int:
        """Mirror one tick delta into :attr:`live`; returns its rows."""
        rows = 0
        for retracted in delta.retracts.values():
            rows += len(retracted)
            for row in retracted:
                del self.live[row]
        for inserted, probs in delta.inserts.values():
            rows += len(inserted)
            self.live.update(zip(inserted, probs))
        return rows

    def expected_view(self) -> dict[tuple, float]:
        edges = self.instance["backbone"] + list(self.live)
        probs = self.instance["backbone_probs"] + list(self.live.values())
        return reference.widest_path_closure(edges, probs)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


class StreamDurable(_DurableStream):
    name = "stream_durable"
    warmups = 20
    count_ops = 40

    def call(self):
        return self.tick()

    def observe(self, output):
        delta, view_delta, polled = output
        rows = self.follow(delta)
        counts = {
            "stream.delta_rows": view_delta.change_count(),
            "stream.maintained_share": float(view_delta.maintained),
            "stream.input_rows": rows,
        }
        return int([d.tick for d in polled] != [delta.tick]), counts

    def check(self):
        return 1, int(
            not reference.same_probs(self.view.result("path"), self.expected_view())
        )


class StreamRecover(_DurableStream):
    name = "stream_recover"
    #: Ticks before the crash: 4 checkpoints, then a 4-delta tail.
    TICKS = 24

    def build(self):
        super().build()
        for _ in range(self.TICKS):
            self.follow(self.tick()[0])
        self.crashed = self.view.result("path")

    def prepare(self, op):
        self.setups = {"tc": self.incarnation()}

    def call(self):
        # Same cadence as the writer, so a tail shorter than one
        # checkpoint interval leaves the directory untouched.
        return repro.recover(
            self.root, self.setups,
            checkpoint_every=self.CHECKPOINT_EVERY, keep_checkpoints=2,
        )

    def observe(self, output):
        _, views, info = output
        tail = self.TICKS % self.CHECKPOINT_EVERY
        wrong = views["tc"].result("path") != self.crashed or info.replayed_deltas != tail
        return int(wrong), {"recovery.replayed_deltas": info.replayed_deltas}

    def check(self):
        return 1, int(not reference.same_probs(self.crashed, self.expected_view()))


WORKLOADS = {
    cls.name: cls
    for cls in (
        CompileSuite, TcCold, CspaProb, NesyTrain, ServeBurst, StreamDurable, StreamRecover,
    )
}
