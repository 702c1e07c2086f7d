"""The benchmark harness the paper-shape checks in ``benchmarks/`` share.

``timed`` counts trials after discarded warmups, builds fresh state per
trial and maps device OOM / evaluation timeout to a status; ``speedup``
and ``geomean`` return a typed ``Ratio`` that says why a comparison could
not be made instead of a bare ``"-"`` string.
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture()
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "benchmarks"))
    import _harness

    return _harness


class TestRatios:
    def test_ratio_of_point_value(self, harness):
        ratio = harness.speedup(
            harness.Measurement(samples=[2.0, 2.0, 2.0]),
            harness.Measurement(samples=[1.0, 1.0, 1.0]),
        )
        assert ratio.ok
        assert ratio.value == pytest.approx(2.0)
        assert str(ratio) == "2.00x"

    def test_zero_denominator_is_typed_not_crash(self, harness):
        ratio = harness.speedup(
            harness.Measurement(samples=[1.0]), harness.Measurement(samples=[0.0])
        )
        assert not ratio.ok
        assert ratio.status == "zero-denominator"
        assert str(ratio) == "-"

    def test_geomean_of_reciprocals_is_one(self, harness):
        ratios = [harness.Ratio(2.0), harness.Ratio(0.5)]
        geomean = harness.geomean(ratios)
        assert geomean.ok
        assert geomean.value == pytest.approx(1.0)

    def test_geomean_skips_non_ok_and_empty_is_typed(self, harness):
        good = harness.Ratio(3.0)
        bad = harness.Ratio(None, status="baseline-oom")
        geomean = harness.geomean([good, bad])
        assert geomean.ok and geomean.value == pytest.approx(3.0)
        empty = harness.geomean([bad])
        assert not empty.ok and empty.status == "empty"


class TestHarness:
    def test_timed_collects_trials_and_discards_warmups(self, harness):
        calls = []
        measurement = harness.timed(lambda: calls.append(1), trials=3, warmups=2)
        assert len(calls) == 5
        assert measurement.status == "ok"
        assert len(measurement.samples) == 3
        assert measurement.warmups == 2
        assert measurement.seconds is not None

    def test_timed_setup_runs_fresh_per_trial_and_feeds_fn(self, harness):
        built, consumed = [], []

        def setup():
            built.append(object())
            return built[-1]

        measurement = harness.timed(consumed.append, trials=2, warmups=1, setup=setup)
        # One fresh state per run (warmups included), each handed to fn.
        assert len(built) == 3
        assert consumed == built
        assert len(measurement.samples) == 2

    def test_timed_maps_oom_and_timeout_to_status(self, harness):
        from repro.errors import DeviceOutOfMemory, EvaluationTimeout

        def boom():
            raise DeviceOutOfMemory("synthetic")

        def slow():
            raise EvaluationTimeout("synthetic")

        assert harness.timed(boom, trials=2).status == "oom"
        assert harness.timed(slow, trials=2).status == "timeout"

    def test_speedup_is_typed_never_a_string(self, harness):
        ok = harness.Measurement(samples=[2.0, 2.0])
        fast = harness.Measurement(samples=[1.0, 1.0])
        oom = harness.Measurement(status="oom")
        ratio = harness.speedup(ok, fast)
        assert isinstance(ratio, harness.Ratio)
        assert ratio.ok and ratio.value == pytest.approx(2.0)
        broken = harness.speedup(oom, fast)
        assert not broken.ok
        assert broken.status == "baseline-oom"
        assert str(broken) == "-"
