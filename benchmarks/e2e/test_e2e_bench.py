"""Tests of the benchmark itself: the ruler has to be right before
anything is measured with it."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import generators  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic -----------------------------------------------------


def test_self_time_nested_and_sibling():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 8]
    own = spans.self_times([0, 1, 5, 6], [10, 4, 9, 8], [-1, 0, 0, 2])
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0]
    assert own.sum() == 10.0  # self times partition the root


def test_inclusive_time_counts_recursion_once():
    # f [0, 10] > f [1, 9] > g [2, 3]; then a sibling f [11, 12] under no parent
    groups = ["f", "f", "g", "f"]
    parents = [-1, 0, 1, -1]
    assert spans.outermost(groups, parents).tolist() == [True, False, True, True]
    # an ungrouped span in between does not hide the outer group
    assert spans.outermost(["f", None, "f"], [-1, 0, 1]).tolist() == [True, False, False]


def _fake_modules():
    """A two-module 'program': ``owner`` defines f and g, ``importer``
    imported g by name — the aliasing the tracer has to rebind."""
    owner = types.ModuleType("repro_e2e_fake_owner")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return g(x) * 2\n", owner.__dict__)
    importer = types.ModuleType("repro_e2e_fake_importer")
    importer.g = owner.g
    exec("def h(x):\n    return g(x)\n", importer.__dict__)
    return owner, importer


def test_tracer_wraps_aliases_nests_and_restores(monkeypatch):
    owner, importer = _fake_modules()
    monkeypatch.setitem(sys.modules, owner.__name__, owner)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)
    original = owner.g
    tracer = spans.Tracer(
        [
            spans.Probe("a", "f", "repro_e2e_fake_owner.f", "a.f_s"),
            spans.Probe(
                "b", "g", "repro_e2e_fake_owner.g", None,
                lambda args, result: {"b.sum": result},
            ),
            spans.Probe("b", "gone", "repro_e2e_fake_owner.renamed_away"),
            spans.Probe("b", "bad_counts", "repro_e2e_fake_importer.h", None,
                        lambda args, result: {"b.x": result.no_such_attribute}),
        ]
    )
    tracer.install()
    try:
        assert owner.f(1) == 4 and not tracer.spans  # no op open: pass-through
        tracer.begin_op(0)
        assert owner.f(1) == 4 and importer.h(5) == 6
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert owner.g is original and importer.g is original
    kinds = [tracer.probes[s[0]].name if s[0] >= 0 else "op" for s in tracer.spans]
    assert kinds == ["op", "f", "g", "bad_counts", "g"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    # unresolved: the renamed entry point and the counts reader that broke
    assert len(tracer.unresolved) == 2
    summary = spans.summarize(tracer, 1, 1)
    assert summary["b.sum"] == 2 + 6 and summary["b.calls"] == 3
    assert summary["trace.unresolved_probes"] == 2
    total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    root = tracer.spans[0]
    assert total == pytest.approx(root[2] - root[1])


def test_tracer_wraps_overriding_subclasses():
    class Base:
        def op(self):
            return "base"

    class Child(Base):
        def op(self):
            return "child+" + super().op()

    module = types.ModuleType("repro_e2e_fake_classes")
    module.Base = Base
    sys.modules[module.__name__] = module
    tracer = spans.Tracer([spans.Probe("p", "op", "repro_e2e_fake_classes.Base.op")])
    try:
        tracer.install()
        tracer.begin_op(0)
        assert Child().op() == "child+base"
        tracer.end_op()
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert len(tracer.spans) == 3 and "op" in Child.__dict__


def test_tail_percentile_needs_ten_samples_beyond():
    rule = spans.tail_percentile
    assert [rule(n) for n in (39, 40, 99, 100, 199, 200, 999, 1000)] == [
        None, 0.75, 0.75, 0.90, 0.90, 0.95, 0.95, 0.99,
    ]


def test_traced_run_replays_every_op_untraced():
    """Each op number is staged twice in a row, traced once and untraced
    once, and which goes first alternates - so the traced and untraced
    sets hold the same ops whatever the period of the op sequence."""
    log = []

    class Cycle(workloads.Workload):
        def prepare(self, op):
            self.staged = op

        def call(self):
            log.append((self.staged, tracer.open))
            return self.staged

        def observe(self, output):
            return 0, {"op": output}

    class FakeTracer:
        open = False

        def begin_op(self, op):
            self.open = True

        def end_op(self):
            self.open = False
            return 2.0

    tracer = FakeTracer()
    plain, traced, failed, counts = run.timed_ops(Cycle(0, True), 0.0, 4, tracer)
    assert log == [
        (0, True), (0, False), (1, False), (1, True),
        (2, True), (2, False), (3, False), (3, True),
    ]
    assert len(plain) == 4 and traced == [2.0] * 4 and failed == 0
    assert counts == [{"op": op} for op in range(4)]  # one entry per op, from its traced call
    log.clear()
    plain, traced, _, counts = run.timed_ops(Cycle(0, True), 0.0, 3)
    assert [op for op, _ in log] == [0, 1, 2] and len(plain) == 3 and not traced


# -- names ------------------------------------------------------------------


def test_names_match_the_declaration():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    declared = {
        section: [entry["name"] for entry in SPEC[section]]
        for section in ("workloads", "end_to_end", "per_layer")
    }
    for names in declared.values():
        assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert declared["workloads"] == list(workloads.WORKLOADS)
    assert declared["end_to_end"] == ["setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"]
    layers = {probe.layer for probe in probes.PROBES}
    produced = {"bench.self_s"} | {probe.metric for probe in probes.PROBES if probe.metric}
    produced |= {f"{layer}.{kind}" for layer in layers for kind in ("self_s", "calls")}
    assert produced <= set(declared["per_layer"])
    assert {n.split(".")[0] for n in declared["per_layer"]} == layers | {"bench", "trace"}


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: generators.tc_graph(seed, n=50),
        lambda seed: generators.cspa_instance(seed, n=30),
        lambda seed: generators.cspa_instance(seed, n=30, shape_seed=seed),
        lambda seed: generators.pathfinder_samples(seed, grid=4, count=3),
        lambda seed: generators.serve_requests(seed, count=5),
        lambda seed: generators.stream_instance(seed, backbone=10, taps=8),
    ],
)
def test_generators_are_pure_functions_of_the_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_relabelled_instances_keep_their_shape():
    a, b = generators.tc_graph(1, n=50), generators.tc_graph(2, n=50)
    assert len(a) == len(b) and a != b
    degrees = lambda edges: sorted(np.bincount([x for x, _ in edges]).tolist())  # noqa: E731
    assert degrees(a) == degrees(b)


# -- failures are counted, and fail the command ------------------------------------


def test_wrong_result_is_counted_and_fails(monkeypatch, capsys):
    honest = workloads.TcCold.call

    def drop_a_row(self):
        return [column[:-1] for column in honest(self)]

    monkeypatch.setattr(workloads.TcCold, "call", drop_a_row)
    result = run.measure("tc_cold", seed=5, seconds=0.0, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    monkeypatch.setattr(run, "child", lambda *args: result)
    args = types.SimpleNamespace(
        workload=["tc_cold"], seed=5, seconds=0.0, smoke=True, no_trace=True
    )
    assert run.suite(args) == 1
    assert "FAILED" in capsys.readouterr().out


def test_smoke_suite_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((HERE / "out" / "result.json").read_text())
    assert list(results) == list(workloads.WORKLOADS)
    for runs in results.values():
        assert runs["end_to_end"]["correct"] and runs["per_layer"]["correct"]
        assert all(m["value"] > 0 for m in runs["end_to_end"]["metrics"].values())
        layer = {k: m["value"] for k, m in runs["per_layer"]["metrics"].items()}
        assert layer["trace.unresolved_probes"] == 0
        assert layer["trace.coverage_share"] >= 0.95
