"""The one run path, judged against the one requirement table.

Every caller shape (engine device, session, pool, and the former
``shards`` callers) × request kind × program × semiring must resolve to
the mode :data:`repro.runtime.engine.MODE_REQUIREMENTS` predicts, report
the predicted fallback reason (or raise the predicted typed error), and
leave rows and tags bitwise equal to a cold evaluation of the same
facts.  The prediction below is computed from the test's own
parameters, never by asking the engine.

One device is the only lane: a caller that still asks for ``shards=N``
is refused by name before anything runs, and the same request on the
one-lane engine answers exactly as the sharded engine had to — like a
cold single-device run.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import (
    DevicePool,
    LobsterEngine,
    LobsterSession,
    RetractionUnsupportedError,
    Tracer,
    VirtualDevice,
)
from repro.errors import (
    DeviceOutOfMemory,
    ExecutionError,
    LobsterError,
    ProvenanceError,
)
from repro.obs import validate_trace_events
from repro.runtime.engine import IDEMPOTENT, MODE_REQUIREMENTS, NEGATION_FREE

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


def one_lane_engine(source, shards=1, **knobs):
    """The engine a caller asking for ``shards`` lanes gets: ``shards=``
    above one is refused by name, and one device runs the request."""
    if shards > 1:
        with pytest.raises(ProvenanceError, match="'shards'"):
            LobsterEngine(source, shards=shards, **knobs)
    return LobsterEngine(source, **knobs)


def load(db, program, edges, semiring):
    probs = None if semiring == "unit" else [EDGE_PROBS[e] for e in edges]
    db.add_facts("edge", edges, probs=probs)
    if program == "negated":
        db.add_facts("node", NODES)


def first_missing(mode, program, semiring):
    """The first property ``mode``'s table row requires that the
    parameters do not provide (None = the mode is sound)."""
    holds = {
        IDEMPOTENT: semiring != "addmultprob",
        NEGATION_FREE: program != "negated",
    }
    return next((p for p in MODE_REQUIREMENTS[mode] if not holds[p]), None)


def assert_matches_cold(db, program, semiring, edges):
    """Rows and tags bitwise equal to a cold run."""
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
    engine = one_lane_engine(PROGRAMS[program][0], shards, provenance=semiring)
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

    db = engine.create_database()
    load(db, program, BASE_EDGES, semiring)
    first = run(db)
    assert (first.incremental, first.maintained) == (False, False)
    assert first.maintain_fallback is None
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
    missing = first_missing(mode, program, semiring)
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
    if not retracting or taken == "maintain":
        assert result.maintain_fallback is None
    elif declined:
        assert result.maintain_fallback == "maintain=False requested"
    else:
        assert REASON_WORDS[missing] in result.maintain_fallback
    assert_matches_cold(db, program, semiring, edges)


class TestShardedAnswersLikeOneDevice:
    """Requests the matrix does not reach — flags on a never-evaluated
    database, and ``maintain=False`` reporting itself as the reason —
    answered by the one lane whatever lane count the caller asked for."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_maintain_false_reports_the_request(self, shards):
        engine = one_lane_engine(TC, shards)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        engine.run(db)
        db.retract_facts("edge", RETRACTED_EDGES)
        result = engine.run(db, maintain=False)
        assert result.maintain_fallback == "maintain=False requested"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_retraction_before_any_evaluation_is_no_fallback(self, shards):
        engine = one_lane_engine(TC, shards)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        db.finalize()
        db.retract_facts("edge", RETRACTED_EDGES)
        result = engine.run(db)
        assert not result.maintained and result.maintain_fallback is None
        assert sorted(db.result("path").rows()) == [(0, 1), (0, 2), (0, 3), (2, 3)]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_incremental_flag_on_a_cold_database_is_vacuous(self, shards):
        engine = one_lane_engine(TC, shards)
        db = engine.create_database()
        db.add_facts("edge", BASE_EDGES)
        result = engine.run(db, incremental=True)
        assert not result.incremental


class TestFailedRunClosesItsSpan:
    """A run that raises still finishes ``engine.run`` (with the error's
    type) and every span opened beneath it, and advances the cursor, so
    the next run's spans start after the failed run's device time
    instead of on top of it."""

    CHAIN = [(n, n + 1) for n in range(8)]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_iteration_cap(self, shards):
        self.check(ExecutionError, shards, max_iterations=2)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_device_oom(self, shards):
        """Dies mid-variant, under open stratum/iteration/variant spans."""
        self.check(DeviceOutOfMemory, shards, device=VirtualDevice(capacity_bytes=600))

    def check(self, error, shards, **knobs):
        tracer = Tracer()
        engine = one_lane_engine(TC, shards, tracing=tracer, **knobs)
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
