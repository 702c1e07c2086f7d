"""The obs/ subsystem: deterministic tracing, export, and reports.

Three properties anchor the tracer the way bitwise replay anchors the
engine:

* **Determinism** — span IDs, timestamps, and the exported JSON are
  pure functions of (seed, workload); host wall time never enters.
* **Accounting** — a traced serving run's per-request span children
  (queue.wait + batch.wait + serve.execute) sum to exactly the
  request's reported latency; the timeline has no dark time.
* **Neutrality** — tracing off is the NULL_TRACER no-op object, and a
  muted or disabled tracer changes no modeled result.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    LoadGenerator,
    LobsterEngine,
    ProgramCache,
    Scheduler,
    SLOClass,
)
from repro.obs import (
    NULL_TRACER,
    Tracer,
    dumps_trace_events,
    explain_run,
    export_perfetto,
    profile,
    to_trace_events,
    validate_trace_events,
)
from repro.serve import COMPLETED
from repro.workloads.analytics import TRANSITIVE_CLOSURE

from _helpers import random_digraph

TC = """
rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
query path
"""


class TestTracerCore:
    def test_ids_are_deterministic_per_seed(self):
        def collect(seed):
            tracer = Tracer(seed=seed)
            spans = [tracer.start(f"s{i}") for i in range(4)]
            for span in spans:
                tracer.finish(span, 1.0)
            return [s.span_id for s in spans]

        assert collect(7) == collect(7)
        assert collect(7) != collect(8)
        assert all(len(i) == 16 for i in collect(7))

    def test_nesting_inherits_track_and_trace(self):
        tracer = Tracer()
        root = tracer.start("root", t=0.0, track="lane")
        child = tracer.start("child", t=0.1, parent=root)
        assert child.parent_id == root.span_id
        assert child.track == "lane"
        assert child.trace_id == root.trace_id == root.span_id
        tracer.finish(child, 0.2)
        tracer.finish(root, 0.3)
        assert root.duration_s == pytest.approx(0.3)

    def test_event_is_a_zero_duration_instant(self):
        tracer = Tracer()
        root = tracer.start("root", t=0.0)
        inst = tracer.event("tick", t=0.05, parent=root, reason="x")
        assert inst.kind == "instant"
        assert inst.start_s == inst.end_s == 0.05
        assert inst.attrs["reason"] == "x"

    def test_muted_suppresses_and_restores(self):
        tracer = Tracer()
        tracer.start("kept", t=0.0)
        with tracer.muted():
            assert not tracer.enabled
            assert tracer.start("dropped", t=0.0) is None
            assert tracer.event("dropped", t=0.0) is None
        assert tracer.enabled
        assert [s.name for s in tracer.spans] == ["kept"]

    def test_sampling_every_nth(self):
        tracer = Tracer(sample_every=3)
        assert [i for i in range(9) if tracer.sampled(i)] == [0, 3, 6]
        assert all(Tracer().sampled(i) for i in range(5))

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.start("x") is None
        assert NULL_TRACER.event("x") is None
        NULL_TRACER.finish(None)  # no-op, no raise
        NULL_TRACER.set_time(5.0)
        assert NULL_TRACER.spans == []
        with NULL_TRACER.muted():
            pass

    def test_reset_clears_spans_and_ids_replay(self):
        tracer = Tracer(seed=3)
        first = tracer.start("a")
        tracer.finish(first, 1.0)
        ids = [s.span_id for s in tracer.spans]
        tracer.reset()
        assert tracer.spans == []
        again = tracer.start("a")
        tracer.finish(again, 1.0)
        assert [s.span_id for s in tracer.spans] == ids


class TestExport:
    def _spans(self):
        tracer = Tracer(seed=1)
        root = tracer.start("serve.request", t=0.0, track="request#0")
        child = tracer.start("engine.run", t=0.1, parent=root, plan="abc")
        tracer.event("plan.replan", t=0.15, parent=child, reason="drift")
        tracer.finish(child, 0.4)
        tracer.finish(root, 0.5)
        return tracer.spans

    def test_structure_and_thread_metadata(self):
        obj = to_trace_events(self._spans())
        events = obj["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["request#0"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"serve.request", "engine.run"}
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["args"]["reason"] == "drift"
        run = next(e for e in complete if e["name"] == "engine.run")
        assert run["cat"] == "engine"
        assert run["ts"] == pytest.approx(0.1e6)
        assert run["dur"] == pytest.approx(0.3e6)
        assert validate_trace_events(obj) == len(events)

    def test_tracks_map_to_tids_in_sorted_order(self):
        tracer = Tracer()
        for track in ("zeta", "alpha", "mid"):
            tracer.finish(tracer.start("s", t=0.0, track=track), 1.0)
        obj = to_trace_events(tracer.spans)
        meta = {e["args"]["name"]: e["tid"] for e in obj["traceEvents"] if e["ph"] == "M"}
        assert meta == {"alpha": 1, "mid": 2, "zeta": 3}

    def test_export_perfetto_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        obj = export_perfetto(self._spans(), path)
        loaded = json.loads(path.read_text())
        assert loaded == obj
        assert validate_trace_events(loaded) > 0

    def test_validator_rejects_malformed_traces(self):
        good = to_trace_events(self._spans())

        def corrupted(mutate):
            obj = json.loads(json.dumps(good))
            mutate(obj["traceEvents"])
            return obj

        cases = [
            lambda ev: ev.append({"ph": "Q", "name": "x", "pid": 1, "tid": 1, "args": {}}),
            lambda ev: ev[1].__setitem__("ts", -5.0),
            lambda ev: ev[2].update(args=dict(ev[1]["args"])),  # duplicate span_id
            lambda ev: ev[1]["args"].__setitem__("parent_id", "feedfeedfeedfeed"),
            # Child escapes its parent's interval.
            lambda ev: ev[2].__setitem__("dur", 1e9),
        ]
        for mutate in cases:
            with pytest.raises(ValueError):
                validate_trace_events(corrupted(mutate))

    def test_dumps_is_byte_stable(self):
        assert dumps_trace_events(self._spans()) == dumps_trace_events(self._spans())


class TestEngineTracing:
    def test_run_span_covers_service_seconds(self):
        tracer = Tracer()
        engine = LobsterEngine(TC, cache=ProgramCache(), tracing=tracer)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2), (2, 3), (0, 3)])
        result = engine.run(db)
        run = next(s for s in tracer.spans if s.name == "engine.run")
        assert run.duration_s == result.service_seconds
        names = {s.name for s in tracer.spans}
        assert {"stratum", "iteration", "variant"} <= names
        assert validate_trace_events(to_trace_events(tracer.spans)) > 0

    def test_kernel_spans_only_when_opted_in(self):
        def kinds(kernels):
            tracer = Tracer(kernels=kernels)
            engine = LobsterEngine(TC, cache=ProgramCache(), tracing=tracer)
            db = engine.create_database()
            db.add_facts("edge", [(0, 1), (1, 2)])
            engine.run(db)
            return {s.kind for s in tracer.spans}

        assert "kernel" not in kinds(False)
        assert "kernel" in kinds(True)

    def test_tracing_true_builds_a_default_tracer(self):
        engine = LobsterEngine(TC, cache=ProgramCache(), tracing=True)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1)])
        engine.run(db)
        assert engine.tracer.spans

    def test_disabled_tracing_is_null(self):
        engine = LobsterEngine(TC, cache=ProgramCache())
        assert engine.tracer is NULL_TRACER

    def test_explain_run_joins_feedback_onto_spans(self):
        tracer = Tracer()
        engine = LobsterEngine(
            TC, cache=ProgramCache(), adaptive=True, tracing=tracer
        )
        db = engine.create_database()
        db.add_facts("edge", [(i, i + 1) for i in range(6)])
        result = engine.run(db)
        text = explain_run(result, tracer)
        assert "stats bucket" in text
        assert "est" in text and "obs" in text

    def test_profile_report_renders(self):
        tracer = Tracer()
        engine = LobsterEngine(TC, cache=ProgramCache(), tracing=tracer)
        db = engine.create_database()
        db.add_facts("edge", [(0, 1), (1, 2)])
        engine.run(db)
        text = profile(tracer)
        assert "engine.run" in text
        assert "100.0%" in text


def make_workload(engine, *, n_requests=10, seed=3, rate_hz=150.0):
    def factory(rng, index):
        edges = random_digraph(rng, 12, 24)
        db = engine.create_database()
        db.add_facts("edge", edges, probs=[0.9] * len(edges))
        return db, {}

    return LoadGenerator(
        engine, factory, rate_hz=rate_hz, n_requests=n_requests, seed=seed
    )


class TestServingTracing:
    def _run(self, tracer, seed=3):
        engine = LobsterEngine(
            TRANSITIVE_CLOSURE, provenance="minmaxprob", cache=ProgramCache()
        )
        scheduler = Scheduler(n_devices=2, tracer=tracer)
        return scheduler.run(make_workload(engine, seed=seed).generate())

    def test_request_children_account_for_all_latency(self):
        tracer = Tracer()
        report = self._run(tracer)
        assert report.completed == report.submitted
        requests = {
            s.attrs["ticket"]: s for s in tracer.spans if s.name == "serve.request"
        }
        assert len(requests) == report.submitted
        for outcome in report.outcomes:
            span = requests[outcome.ticket]
            assert span.attrs["status"] == COMPLETED
            assert span.start_s == outcome.arrival_s
            assert span.end_s == outcome.finish_s
            children = [
                s for s in tracer.spans if s.parent_id == span.span_id
                and s.kind != "instant"
            ]
            accounted = sum(c.duration_s for c in children)
            # The issue demands >= 95% of modeled latency accounted for;
            # the lanes are built to account for 100% of it.
            assert accounted == pytest.approx(outcome.latency_s, rel=1e-9)
        assert validate_trace_events(to_trace_events(tracer.spans)) > 0

    def test_engine_runs_nest_under_batches(self):
        tracer = Tracer()
        self._run(tracer)
        batches = {s.span_id for s in tracer.spans if s.name == "serve.batch"}
        runs = [s for s in tracer.spans if s.name == "engine.run"]
        assert runs and all(r.parent_id in batches for r in runs)

    def test_two_same_seed_runs_export_identical_json(self):
        a, b = Tracer(seed=5), Tracer(seed=5)
        self._run(a)
        self._run(b)
        assert dumps_trace_events(a.spans) == dumps_trace_events(b.spans)

    def test_sampling_keeps_every_nth_ticket(self):
        tracer = Tracer(sample_every=2)
        report = self._run(tracer)
        tickets = {
            s.attrs["ticket"] for s in tracer.spans if s.name == "serve.request"
        }
        assert tickets == {
            o.ticket for o in report.outcomes if o.ticket % 2 == 0
        }

    def test_tracing_does_not_change_modeled_results(self):
        traced = self._run(Tracer())
        plain = self._run(NULL_TRACER)
        assert traced.completed == plain.completed
        assert traced.makespan_s == plain.makespan_s
        assert [o.latency_s for o in traced.outcomes] == [
            o.latency_s for o in plain.outcomes
        ]
