"""The perf/ measurement layer: trial statistics, records, the gate.

What keeps the repo's speedup claims honest:

* **Statistics** — the t-quantile table matches the published values,
  confidence intervals shrink with sample count, and ratio/geomean
  propagation behaves under scaling;
* **Records** — ``BENCH_*.json`` round-trips exactly, and a tampered
  blob is rejected with a :class:`repro.BenchRecordError` naming every
  problem;
* **Gate** — an injected 2× slowdown fails, re-running the same samples
  passes, noise within the confidence interval passes, and the explicit
  non-comparisons (new benchmark, missing benchmark, foreign host,
  non-time unit) come out as their own verdicts;
* **Characterization** — the workload sketch is a pure function of the
  seeded inputs (two runs, identical tables).
"""

from __future__ import annotations

import json
import math

import pytest

from repro import BenchRecordError
from repro.perf import (
    BenchmarkResult,
    SuiteRecord,
    check_record,
    check_records,
    environment_fingerprint,
    geomean_ratio,
    load_record,
    ratio_of,
    record_path,
    summarize,
    t_quantile,
    validate_record,
    write_record,
)
from repro.perf.record import host_key
from repro.perf.stats import Ratio


# ---------------------------------------------------------------------------
# stats: t-quantiles, summarize, ratios


class TestTQuantile:
    def test_matches_published_two_sided_95(self):
        # Standard two-sided 95% values from any t table.
        assert t_quantile(1) == pytest.approx(12.706, abs=1e-3)
        assert t_quantile(2) == pytest.approx(4.303, abs=1e-3)
        assert t_quantile(5) == pytest.approx(2.571, abs=1e-3)
        assert t_quantile(10) == pytest.approx(2.228, abs=1e-3)
        assert t_quantile(30) == pytest.approx(2.042, abs=1e-3)

    def test_large_df_approaches_normal(self):
        assert t_quantile(2000) == pytest.approx(1.960, abs=1e-3)

    def test_other_confidences(self):
        assert t_quantile(10, confidence=0.90) == pytest.approx(1.812, abs=1e-3)
        assert t_quantile(10, confidence=0.99) == pytest.approx(3.169, abs=1e-3)

    def test_lookup_is_conservative_between_table_rows(self):
        # df=45 falls between table rows 40 and 60; the conservative
        # lookup returns the wider (lower-df) quantile.
        assert t_quantile(45) == t_quantile(40)
        assert t_quantile(45) >= t_quantile(60)

    def test_monotone_nonincreasing_in_df(self):
        values = [t_quantile(df) for df in range(1, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            t_quantile(0)
        with pytest.raises(ValueError):
            t_quantile(5, confidence=0.80)


class TestSummarize:
    def test_known_values(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.n == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.stddev == pytest.approx(1.0)
        # ci = t(df=2) * s / sqrt(3)
        assert stats.ci == pytest.approx(4.303 / math.sqrt(3), rel=1e-3)
        assert stats.lo == pytest.approx(stats.mean - stats.ci)
        assert stats.hi == pytest.approx(stats.mean + stats.ci)

    def test_ci_shrinks_with_sample_count(self):
        # Same spread, more samples -> tighter interval (both the
        # 1/sqrt(n) factor and the t-quantile shrink).
        base = [0.9, 1.1]
        widths = [summarize(base * k).ci for k in (1, 2, 8, 32)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_warmups_discarded(self):
        stats = summarize([100.0, 1.0, 1.0, 1.0], warmups=1)
        assert stats.n == 3
        assert stats.mean == pytest.approx(1.0)

    def test_single_sample_has_zero_ci(self):
        stats = summarize([2.5])
        assert stats.n == 1
        assert stats.ci == 0.0
        assert stats.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], warmups=1)


class TestRatios:
    def test_ratio_of_point_value(self):
        baseline = summarize([2.0, 2.0, 2.0])
        ours = summarize([1.0, 1.0, 1.0])
        ratio = ratio_of(baseline, ours)
        assert ratio.ok
        assert ratio.value == pytest.approx(2.0)
        # Zero spread on both sides -> degenerate (tight) interval.
        assert ratio.lo == pytest.approx(2.0)
        assert ratio.hi == pytest.approx(2.0)

    def test_noise_widens_the_interval(self):
        quiet = ratio_of(summarize([2.0, 2.0, 2.0]), summarize([1.0, 1.0, 1.0]))
        noisy = ratio_of(summarize([1.5, 2.0, 2.5]), summarize([0.8, 1.0, 1.2]))
        assert (noisy.hi - noisy.lo) > (quiet.hi - quiet.lo)
        assert noisy.lo < 2.0 < noisy.hi

    def test_zero_denominator_is_typed_not_crash(self):
        ratio = ratio_of(summarize([1.0]), summarize([0.0]))
        assert not ratio.ok
        assert ratio.status == "zero-denominator"
        assert str(ratio) == "-"

    def test_geomean_of_reciprocals_is_one(self):
        ratios = [
            ratio_of(summarize([2.0] * 3), summarize([1.0] * 3)),
            ratio_of(summarize([1.0] * 3), summarize([2.0] * 3)),
        ]
        geomean = geomean_ratio(ratios)
        assert geomean.ok
        assert geomean.value == pytest.approx(1.0)

    def test_geomean_skips_non_ok_and_empty_is_typed(self):
        good = ratio_of(summarize([3.0] * 3), summarize([1.0] * 3))
        bad = Ratio(None, status="baseline-oom")
        geomean = geomean_ratio([good, bad])
        assert geomean.ok and geomean.value == pytest.approx(3.0)
        empty = geomean_ratio([bad])
        assert not empty.ok and empty.status == "empty"


# ---------------------------------------------------------------------------
# record: schema round-trip and validation


def make_record(suite="demo", samples=(1.0, 1.1, 0.9), unit="s", name="tc/lobster"):
    record = SuiteRecord(
        suite=suite,
        created="2026-08-08T12:00:00",
        environment=environment_fingerprint("0.0-test"),
    )
    record.add(
        BenchmarkResult(
            name=name,
            samples=list(samples),
            unit=unit,
            warmups=1,
            metrics={"busy_seconds": 0.5, "kernel_launches": 17.0},
            attrs={"edges": 100, "engine": "lobster"},
        )
    )
    return record


class TestRecordRoundTrip:
    def test_write_load_identity(self, tmp_path):
        record = make_record()
        path = record_path(tmp_path, record.suite)
        assert path.name == "BENCH_demo.json"
        write_record(record, path)
        loaded = load_record(path)
        assert loaded.suite == record.suite
        assert loaded.created == record.created
        assert loaded.environment == record.environment
        bench = loaded.get("tc/lobster")
        assert bench is not None
        assert bench.samples == [1.0, 1.1, 0.9]
        assert bench.unit == "s"
        assert bench.warmups == 1
        assert bench.metrics == {"busy_seconds": 0.5, "kernel_launches": 17.0}
        assert bench.attrs == {"edges": 100, "engine": "lobster"}

    def test_serialization_is_deterministic(self, tmp_path):
        record = make_record()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_record(record, a)
        write_record(record, b)
        assert a.read_text() == b.read_text()

    def test_embedded_stats_match_summarize(self, tmp_path):
        record = make_record(samples=(1.0, 2.0, 3.0))
        path = record_path(tmp_path, record.suite)
        write_record(record, path)
        data = json.loads(path.read_text())
        derived = data["benchmarks"][0]["stats"]
        stats = summarize([1.0, 2.0, 3.0])
        assert derived["n"] == 3
        assert derived["mean"] == pytest.approx(stats.mean)
        assert derived["ci95"] == pytest.approx(stats.ci)

    def test_add_merges_samples_for_same_name(self):
        record = make_record(samples=(1.0,))
        record.add(BenchmarkResult(name="tc/lobster", samples=[2.0]))
        assert len(record.benchmarks) == 1
        assert record.get("tc/lobster").samples == [1.0, 2.0]


class TestValidation:
    def test_tampered_unit_rejected(self, tmp_path):
        record = make_record()
        path = record_path(tmp_path, record.suite)
        write_record(record, path)
        data = json.loads(path.read_text())
        data["benchmarks"][0]["unit"] = "furlongs"
        path.write_text(json.dumps(data))
        with pytest.raises(BenchRecordError, match="unit"):
            load_record(path)

    def test_future_schema_rejected(self):
        record = make_record()
        data = record.to_dict()
        data["schema_version"] = 999
        with pytest.raises(BenchRecordError, match="schema_version"):
            validate_record(data)

    def test_non_numeric_samples_rejected(self):
        data = make_record().to_dict()
        data["benchmarks"][0]["samples"] = [1.0, "fast"]
        with pytest.raises(BenchRecordError, match="samples"):
            validate_record(data)

    def test_all_problems_reported_at_once(self):
        data = make_record().to_dict()
        data["benchmarks"][0]["samples"] = [-1.0]
        data["benchmarks"][0]["unit"] = "furlongs"
        with pytest.raises(BenchRecordError) as excinfo:
            validate_record(data)
        message = str(excinfo.value)
        assert "unit" in message and "samples" in message

    def test_unknown_unit_refused_at_write(self, tmp_path):
        record = make_record(unit="s")
        record.benchmarks[0].unit = "furlongs"
        with pytest.raises(BenchRecordError):
            write_record(record, tmp_path / "x.json")

    def test_fraction_unit_is_valid(self, tmp_path):
        record = make_record(samples=(0.87,), unit="fraction", name="accuracy")
        path = record_path(tmp_path, record.suite)
        write_record(record, path)
        assert load_record(path).get("accuracy").unit == "fraction"


# ---------------------------------------------------------------------------
# regress: the gate


def suite_with(samples_by_name, unit="s", suite="demo", machine=None):
    environment = environment_fingerprint("0.0-test")
    if machine is not None:
        environment["machine"] = machine
    record = SuiteRecord(
        suite=suite, created="2026-08-08T12:00:00", environment=environment
    )
    for name, samples in samples_by_name.items():
        record.add(BenchmarkResult(name=name, samples=list(samples), unit=unit))
    return record


class TestGate:
    def test_wall_microbenchmarks_below_floor_are_not_gated(self):
        # A 2ms wall cell swings several-x on host state alone; even an
        # injected slowdown must not gate it.
        baseline = suite_with({"micro": [0.002, 0.0021]})
        current = suite_with({"micro": [0.007, 0.008]})
        report = check_record(baseline, current, slowdown_factor=2.0)
        assert report.passed
        assert report.verdicts[0].status == "informational"
        assert "gate floor" in report.verdicts[0].detail

    def test_wall_floor_does_not_hide_a_genuine_blowup(self):
        # 2ms -> 200ms crosses the floor on the current side: gated.
        baseline = suite_with({"micro": [0.002, 0.0021]})
        current = suite_with({"micro": [0.2, 0.21]})
        report = check_record(baseline, current)
        assert not report.passed
        assert report.verdicts[0].status == "regressed"

    def test_modeled_clock_is_gated_below_the_wall_floor(self):
        # The simulator clock is deterministic — scale does not matter.
        baseline = suite_with({"micro": [0.002, 0.002]}, unit="modeled_s")
        current = suite_with({"micro": [0.004, 0.004]}, unit="modeled_s")
        report = check_record(baseline, current)
        assert not report.passed
        assert report.verdicts[0].status == "regressed"

    def test_same_samples_pass(self):
        baseline = suite_with({"tc": [1.0, 1.05, 0.95]})
        report = check_record(baseline, suite_with({"tc": [1.0, 1.05, 0.95]}))
        assert report.passed
        assert report.verdicts[0].status == "ok"

    def test_injected_2x_slowdown_fails(self):
        baseline = suite_with({"tc": [1.0, 1.05, 0.95]})
        current = suite_with({"tc": [1.0, 1.05, 0.95]})
        report = check_record(baseline, current, slowdown_factor=2.0)
        assert not report.passed
        [verdict] = report.regressions
        assert verdict.benchmark == "tc"
        assert verdict.slowdown.value == pytest.approx(2.0, rel=0.05)

    def test_noise_within_ci_passes(self):
        # 10% jitter around the same mean: the slowdown interval
        # straddles 1, so the optimistic bound stays under threshold.
        baseline = suite_with({"tc": [0.9, 1.0, 1.1, 1.0]})
        current = suite_with({"tc": [1.05, 0.95, 1.1, 0.9]})
        report = check_record(baseline, current)
        assert report.passed

    def test_genuine_slowdown_beyond_noise_fails(self):
        baseline = suite_with({"tc": [1.0, 1.01, 0.99, 1.0]})
        current = suite_with({"tc": [2.0, 2.02, 1.98, 2.0]})
        report = check_record(baseline, current)
        assert not report.passed

    def test_improvement_is_reported_not_failed(self):
        baseline = suite_with({"tc": [2.0, 2.0, 2.0]})
        report = check_record(baseline, suite_with({"tc": [1.0, 1.0, 1.0]}))
        assert report.passed
        assert report.verdicts[0].status == "improved"

    def test_new_benchmark_is_explicit_and_passes(self):
        baseline = suite_with({"tc": [1.0]})
        current = suite_with({"tc": [1.0], "cspa": [1.0]})
        report = check_record(baseline, current)
        assert report.passed
        by_name = {v.benchmark: v.status for v in report.verdicts}
        assert by_name["cspa"] == "new"

    def test_missing_benchmark_is_explicit_and_passes(self):
        baseline = suite_with({"tc": [1.0], "gone": [1.0]})
        report = check_record(baseline, suite_with({"tc": [1.0]}))
        assert report.passed
        by_name = {v.benchmark: v.status for v in report.verdicts}
        assert by_name["gone"] == "missing"

    def test_wall_clock_not_gated_across_hosts(self):
        baseline = suite_with({"tc": [1.0]}, machine="host-a")
        current = suite_with({"tc": [10.0]}, machine="host-b")
        report = check_record(baseline, current)
        assert report.passed
        assert report.verdicts[0].status == "foreign-host"

    def test_modeled_clock_gated_across_hosts(self):
        baseline = suite_with({"tc": [1.0]}, unit="modeled_s", machine="host-a")
        current = suite_with({"tc": [10.0]}, unit="modeled_s", machine="host-b")
        report = check_record(baseline, current)
        assert not report.passed

    def test_fraction_unit_is_informational(self):
        baseline = suite_with({"accuracy": [0.9]}, unit="fraction")
        report = check_record(baseline, suite_with({"accuracy": [0.5]}, unit="fraction"))
        assert report.passed
        assert report.verdicts[0].status == "informational"

    def test_suite_without_baseline_is_all_new(self):
        currents = {"fresh": suite_with({"tc": [1.0]}, suite="fresh")}
        [report] = check_records({}, currents)
        assert report.passed
        assert all(v.status == "new" for v in report.verdicts)

    def test_host_key_distinguishes_machines(self):
        a = environment_fingerprint("0.0-test")
        b = dict(a, machine="elsewhere")
        assert host_key(a) != host_key(b)
        assert host_key(a) == host_key(dict(a))


# ---------------------------------------------------------------------------
# harness: Measurement / timed / speedup (imported from benchmarks/)


@pytest.fixture()
def harness(monkeypatch, tmp_path):
    import sys

    bench_dir = str((__import__("pathlib").Path(__file__).parent.parent / "benchmarks"))
    monkeypatch.syspath_prepend(bench_dir)
    import _harness

    # Redirect the atexit flush away from benchmarks/results/.
    monkeypatch.setenv("LOBSTER_BENCH_FRAGMENTS", str(tmp_path))
    yield _harness
    _harness._RECORDS.clear()


class TestHarness:
    def test_timed_collects_trials_and_discards_warmups(self, harness):
        calls = []
        measurement = harness.timed(lambda: calls.append(1), trials=3, warmups=2)
        assert len(calls) == 5
        assert measurement.status == "ok"
        assert len(measurement.samples) == 3
        assert measurement.warmups == 2
        assert measurement.seconds is not None

    def test_timed_env_defaults(self, harness, monkeypatch):
        monkeypatch.setenv("LOBSTER_BENCH_TRIALS", "4")
        monkeypatch.setenv("LOBSTER_BENCH_WARMUPS", "1")
        calls = []
        measurement = harness.timed(lambda: calls.append(1))
        assert len(calls) == 5
        assert len(measurement.samples) == 4

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
        assert isinstance(ratio, Ratio)
        assert ratio.ok and ratio.value == pytest.approx(2.0)
        broken = harness.speedup(oom, fast)
        assert not broken.ok
        assert broken.status == "baseline-oom"
        assert str(broken) == "-"

    def test_report_accumulates_and_flushes_fragments(self, harness, tmp_path):
        harness.report(
            "unittest-suite", "cell/a",
            harness.Measurement(samples=[0.5, 0.6], warmups=1),
            engine="lobster",
        )
        harness.report(
            "unittest-suite", "cell/modeled", samples=[0.25], unit="modeled_s"
        )
        harness._flush_records()
        loaded = load_record(tmp_path / "BENCH_unittest-suite.json")
        assert loaded.get("cell/a").samples == [0.5, 0.6]
        assert loaded.get("cell/modeled").unit == "modeled_s"


# ---------------------------------------------------------------------------
# characterization: stable on a fixed seed


def test_characterization_is_deterministic():
    from repro.perf import characterize

    workloads = dict(list(characterize.default_workloads().items())[:2])
    first = characterize.characterize_workloads(workloads)
    second = characterize.characterize_workloads(workloads)
    assert [c.to_dict() for c in first] == [c.to_dict() for c in second]
    for character in first:
        assert character.edb_rows > 0
        assert character.idb_rows > 0
        assert character.iterations >= 1
        assert 0.0 <= character.key_skew <= 1.0
