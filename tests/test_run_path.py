"""The one run path, judged against the one requirement table.

Every lane shape (engine device, session, pool, shards) × request kind ×
program × semiring must resolve to the mode
:data:`repro.runtime.engine.MODE_REQUIREMENTS` predicts, report the
predicted fallback reason (or raise the predicted typed error), and
leave rows and tags bitwise equal to a cold single-device evaluation of
the same facts.  The prediction below is computed from the test's own
parameters, never by asking the engine.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import (
    DevicePool,
    ElasticController,
    LobsterEngine,
    LobsterSession,
    Request,
    RetractionUnsupportedError,
    Scheduler,
    ShardMap,
    Tracer,
    VirtualDevice,
)
from repro.errors import DeviceOutOfMemory, ExecutionError, LobsterError
from repro.obs import validate_trace_events
from repro.runtime.engine import (
    IDEMPOTENT,
    MODE_REQUIREMENTS,
    NEGATION_FREE,
    SINGLE_LANE,
)

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."
NEGATED = TC + "\nrel apart(x, y) :- node(x), node(y), not path(x, y)."
PROGRAMS = {"tc": (TC, ["path"]), "negated": (NEGATED, ["path", "apart"])}

# A DAG with dyadic probabilities: every ⊕/⊗ below is exact in binary
# floating point, so addmultprob sums cannot differ by association order.
BASE_EDGES = [(0, 1), (1, 2), (2, 3), (0, 2)]
ADDED_EDGES = [(3, 4)]
RETRACTED_EDGES = [(1, 2)]
EDGE_PROBS = {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 0.5, (0, 2): 0.125, (3, 4): 0.5}
NODES = [(n,) for n in range(5)]

#: What each table property's reason prose must mention.
REASON_WORDS = {
    IDEMPOTENT: "non-idempotent",
    NEGATION_FREE: "negation",
    SINGLE_LANE: "sharded",
}

SHAPES = ["engine", "session", "pool", "shards", "shards-session"]
REQUESTS = [
    "cold",
    "warm-add",
    "retract",
    "maintain=True",
    "maintain=False",
    "incremental=True",
    "incremental=False",
]
#: Sessions expose no per-run flags, so only the flagless requests apply.
FLAGLESS = {"cold", "warm-add", "retract"}
CASES = [
    (shape, request)
    for shape in SHAPES
    for request in REQUESTS
    if request in FLAGLESS or shape in ("engine", "shards")
]


def load(db, program, edges, semiring):
    probs = None if semiring == "unit" else [EDGE_PROBS[e] for e in edges]
    db.add_facts("edge", edges, probs=probs)
    if program == "negated":
        db.add_facts("node", NODES)


def first_missing(mode, program, semiring, shards):
    """The first property ``mode``'s table row requires that the
    parameters do not provide (None = the mode is sound)."""
    negated = program == "negated"
    holds = {
        IDEMPOTENT: semiring != "addmultprob",
        NEGATION_FREE: not negated,
        # A negated program never shards: it stays on one lane.
        SINGLE_LANE: shards == 1 or negated,
    }
    return next((p for p in MODE_REQUIREMENTS[mode] if not holds[p]), None)


def assert_matches_cold(db, program, semiring, edges):
    """Rows and tags bitwise equal to a cold single-device run."""
    source, outputs = PROGRAMS[program]
    cold = LobsterEngine(source, provenance=semiring)
    cold_db = cold.create_database()
    load(cold_db, program, edges, semiring)
    cold.run(cold_db)
    for name in outputs:
        actual, expected = db.result(name), cold_db.result(name)
        assert actual.rows() == expected.rows(), name
        assert actual.tags.dtype == expected.tags.dtype
        assert actual.tags.tobytes() == expected.tags.tobytes(), name


@pytest.mark.parametrize("semiring", ["unit", "minmaxprob", "addmultprob"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("shape,request_kind", CASES)
def test_run_path_matrix(shape, request_kind, program, semiring):
    shards = 2 if shape.startswith("shards") else 1
    engine = LobsterEngine(PROGRAMS[program][0], provenance=semiring, shards=shards)
    session = None
    if shape in ("session", "shards-session"):
        session = LobsterSession(engine)
    elif shape == "pool":
        session = LobsterSession(engine, pool=DevicePool(2))

    def run(db, **flags):
        if session is None:
            return engine.run(db, **flags)
        assert not flags
        return session.run_batch([db])[0]

    # result.shards: a negated program stays on one lane whatever shards= says.
    lanes = 1 if program == "negated" else shards

    db = engine.create_database()
    load(db, program, BASE_EDGES, semiring)
    first = run(db)
    assert (first.incremental, first.maintained) == (False, False)
    assert first.maintain_fallback is None and first.shards == lanes
    edges = list(BASE_EDGES)
    if request_kind == "cold":
        assert_matches_cold(db, program, semiring, edges)
        return

    flags = {}
    if "=" in request_kind:
        name, value = request_kind.split("=")
        flags[name] = value == "True"
    retracting = request_kind == "retract" or request_kind.startswith("maintain")
    if retracting:
        db.retract_facts("edge", RETRACTED_EDGES)
        edges = [e for e in edges if e not in RETRACTED_EDGES]
        mode = "maintain"
    else:
        probs = None if semiring == "unit" else [EDGE_PROBS[e] for e in ADDED_EDGES]
        db.add_facts("edge", ADDED_EDGES, probs=probs)
        edges = edges + ADDED_EDGES
        mode = "incremental"
    missing = first_missing(mode, program, semiring, shards)
    demanded = flags.get(mode) is True
    declined = flags.get(mode) is False

    if demanded and missing is not None:
        error = RetractionUnsupportedError if retracting else LobsterError
        with pytest.raises(error, match=REASON_WORDS[missing]):
            run(db, **flags)
        return

    result = run(db, **flags)
    taken = mode if missing is None and not declined else "cold"
    assert result.incremental == (taken == "incremental")
    assert result.maintained == (taken == "maintain")
    assert result.shards == lanes
    if not retracting or taken == "maintain":
        assert result.maintain_fallback is None
    elif declined:
        assert result.maintain_fallback == "maintain=False requested"
    else:
        assert REASON_WORDS[missing] in result.maintain_fallback
    assert_matches_cold(db, program, semiring, edges)


class TestShardedAnswersLikeOneDevice:
    """The drift the two run paths had: on a sharded engine these three
    requests used to get the sharded path's own answer."""

    @staticmethod
    def _evaluated(shards):
        engine = LobsterEngine(TC, shards=shards)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        engine.run(db)
        return engine, db

    @pytest.mark.parametrize("shards", [1, 2])
    def test_maintain_false_reports_the_request(self, shards):
        engine, db = self._evaluated(shards)
        db.retract_facts("edge", RETRACTED_EDGES)
        result = engine.run(db, maintain=False)
        assert result.maintain_fallback == "maintain=False requested"
        assert result.shards == shards

    @pytest.mark.parametrize("shards", [1, 2])
    def test_retraction_before_any_evaluation_is_no_fallback(self, shards):
        engine = LobsterEngine(TC, shards=shards)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        db.finalize()
        db.retract_facts("edge", RETRACTED_EDGES)
        result = engine.run(db)
        assert not result.maintained and result.maintain_fallback is None
        assert sorted(db.result("path").rows()) == [(0, 1), (0, 2), (0, 3), (2, 3)]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_incremental_flag_on_a_cold_database_is_vacuous(self, shards):
        engine = LobsterEngine(TC, shards=shards)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        result = engine.run(db, incremental=True)
        assert not result.incremental and result.shards == shards


class TestSessionFollowsTheLiveEngine:
    """A session asks the live engine for the lane shape on every query:
    ``engine.reshard`` may grow or shrink it after the session built its
    own lanes, and the new layout is the one that must execute."""

    @staticmethod
    def _loaded(engine):
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        return db

    @pytest.mark.parametrize("pooled", [False, True])
    def test_reshard_after_the_session_was_built(self, pooled):
        engine = LobsterEngine(TC)
        session = LobsterSession(engine, pool=DevicePool(2) if pooled else None)
        assert session.run_batch([self._loaded(engine)])[0].shards == 1

        engine.reshard(ShardMap(2))
        db = self._loaded(engine)
        assert session.run_batch([db])[0].shards == 2
        assert_matches_cold(db, "tc", "unit", BASE_EDGES)
        with pytest.raises(LobsterError, match="sharded"):
            session.run_batch([self._loaded(engine)], device_index=0)

        db = self._loaded(engine)
        session.submit(db)
        report = session.run_all()
        (result,) = report.results
        assert result.shards == report.pool_size == 2
        # The drain accounted the devices the query actually ran on.
        assert report.profile.kernel_launches == result.profile.kernel_launches > 0
        assert_matches_cold(db, "tc", "unit", BASE_EDGES)

        engine.reshard(ShardMap(1))
        assert session.run_batch([self._loaded(engine)])[0].shards == 1

    def test_elastic_engine_provisioned_at_one_shard(self):
        """ElasticController's default ``min_shards=1`` start: once the
        controller migrates, the next micro-batch runs the new layout."""
        from test_reshard import hub_edges

        engine = LobsterEngine(TC)
        controller = ElasticController(
            engine,
            key_columns={"path": 0},
            max_shards=4,
            horizon_runs=16,
            mass_threshold=0.1,
        )
        tracer = Tracer()
        scheduler = Scheduler(n_devices=2, elastic=controller, tracer=tracer)
        requests = []
        for index in range(3):  # spaced out: one micro-batch each
            db = engine.create_database()
            db.add_facts("edge", hub_edges())
            requests.append(Request(engine, db, slo="batch", arrival_s=float(index)))
        report = scheduler.run(requests)
        assert [p.migrate for p in controller.plans][0] and engine.shards > 1
        ran_on = [outcome.result.shards for outcome in report.outcomes]
        assert ran_on == [1, engine.shards, engine.shards]
        assert len({tuple(r.database.result("path").rows()) for r in requests}) == 1
        # Elastic execute spans name the shard count the batch ran on
        # (and, unlike pool batches, carry no batch_span link).
        executes = [s.attrs for s in tracer.spans if s.name == "serve.execute"]
        assert executes == [{"batch_size": 1, "shards": n} for n in ran_on]


class TestFailedRunClosesItsSpan:
    """A run that raises still finishes ``engine.run`` (with the error's
    type) and every span opened beneath it, and advances the cursor, so
    the next run's spans start after the failed run's device time
    instead of on top of it."""

    CHAIN = [(n, n + 1) for n in range(8)]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_iteration_cap(self, shards):
        self.check(ExecutionError, shards=shards, max_iterations=2)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_device_oom(self, shards):
        """Dies mid-variant, under open stratum/iteration/variant spans."""
        devices = [VirtualDevice(capacity_bytes=600) for _ in range(shards)]
        knobs = {"shard_devices": devices} if shards > 1 else {"device": devices[0]}
        self.check(DeviceOutOfMemory, **knobs)

    def check(self, error, **knobs):
        tracer = Tracer()
        engine = LobsterEngine(TC, tracing=tracer, **knobs)
        db = engine.create_database()
        db.add_facts("edge", self.CHAIN)
        with pytest.raises(error):
            engine.run(db)
        assert {"stratum", "iteration", "variant"} <= {s.name for s in tracer.spans}
        assert [s.name for s in tracer.spans if s.end_s is None] == []
        validate_trace_events(tracer.to_trace_events())
        failed = next(s for s in tracer.spans if s.name == "engine.run")
        assert failed.attrs["error"] == error.__name__
        children = [s for s in tracer.spans if s.parent_id == failed.span_id]
        assert children and failed.end_s == max(s.end_s for s in children)
        assert failed.end_s > failed.start_s and tracer.now == failed.end_s

        retry = engine.create_database()
        retry.add_facts("edge", self.CHAIN[:1])
        engine.run(retry)
        validate_trace_events(tracer.to_trace_events())
        succeeded = [s for s in tracer.spans if s.name == "engine.run"][1]
        assert "error" not in succeeded.attrs
        assert succeeded.start_s == failed.end_s

    def test_refused_request_opens_no_span(self):
        """``_resolve`` refuses before the span opens: nothing ran."""
        tracer = Tracer()
        engine = LobsterEngine(TC, tracing=tracer)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        engine.run(db)
        before = (len(tracer.spans), tracer.now)
        with pytest.raises(RetractionUnsupportedError):
            engine.run(db, maintain=True)
        assert (len(tracer.spans), tracer.now) == before


def test_architecture_doc_renders_the_requirement_table():
    """docs/architecture.md's mode table has exactly the table's rows."""
    text = (Path(__file__).parent.parent / "docs" / "architecture.md").read_text()
    section = text.split("### The requirement table", 1)[1].split("\n#", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.lstrip().startswith("|")
    ]
    header, body = rows[0], rows[2:]  # rows[1] is the |---| rule
    assert header[0] == "mode"
    properties = [re.sub(r"[`*]", "", cell) for cell in header[1:]]
    documented = {
        re.sub(r"[`*]", "", row[0]): tuple(
            prop for prop, cell in zip(properties, row[1:]) if cell == "required"
        )
        for row in body
    }
    assert documented == {
        mode: tuple(requirement.name for requirement in row)
        for mode, row in MODE_REQUIREMENTS.items()
    }
