"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables or figures: it runs
the same logic program on Lobster and on the relevant baselines, prints
rows shaped like the paper's, and asserts the *shape* of the result (who
wins, roughly by how much) rather than absolute numbers — our substrate
is a simulator, not the authors' testbed (see EXPERIMENTS.md).

Measurement goes through :mod:`repro.perf`: :func:`timed` runs multiple
trials after warmups and yields a :class:`Measurement` whose statistics
(mean ± stddev, 95% CI) come from :mod:`repro.perf.stats`;
:func:`speedup` returns a typed :class:`~repro.perf.stats.Ratio` (never
the old silent ``"-"`` string); and every benchmark registers its
headline numbers with :func:`report`, which persists them as
schema-versioned ``BENCH_<suite>.json`` records — the machine-readable
trail ``run_all.py`` aggregates, summarizes, and regression-gates.
"""

from __future__ import annotations

import atexit
import datetime
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import __version__
from repro.errors import DeviceOutOfMemory, EvaluationTimeout
from repro.perf.record import (
    BenchmarkResult,
    SuiteRecord,
    environment_fingerprint,
    record_path,
    write_record,
)
from repro.perf.stats import Ratio, TrialStats, ratio_of, summarize


@dataclass
class Measurement:
    """Multi-trial wall-clock measurement of one benchmark cell."""

    samples: list[float] = field(default_factory=list)
    status: str = "ok"  # ok | oom | timeout
    warmups: int = 0

    @property
    def seconds(self) -> float | None:
        """Trial mean (the single comparable number); None off-status."""
        if self.status != "ok" or not self.samples:
            return None
        return self.stats.mean

    @property
    def stats(self) -> TrialStats:
        return summarize(self.samples)

    @property
    def label(self) -> str:
        if self.status == "oom":
            return "OOM"
        if self.status == "timeout":
            return "timeout"
        if len(self.samples) > 1:
            stats = self.stats
            return f"{stats.mean:.3f}±{stats.stddev:.3f}s"
        return f"{self.seconds:.3f}s"


def tiny_scale() -> bool:
    """The one benchmark scale switch: ``LOBSTER_BENCH_SCALE=tiny``
    (what ``run_all.py --tiny`` and the CI smoke job set) shrinks every
    suite to smoke-test sizes; unset or ``full`` runs paper-shaped sizes."""
    scale = os.environ.get("LOBSTER_BENCH_SCALE", "full")
    if scale not in ("tiny", "full"):
        raise ValueError(f"LOBSTER_BENCH_SCALE must be 'tiny' or 'full', got {scale!r}")
    return scale == "tiny"


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def timed(
    fn,
    trials: int | None = None,
    warmups: int | None = None,
    setup=None,
) -> Measurement:
    """Run ``fn`` for ``warmups`` discarded runs then ``trials`` timed
    runs, mapping OOM/timeout to status labels.

    Defaults come from ``LOBSTER_BENCH_TRIALS`` / ``LOBSTER_BENCH_WARMUPS``
    (``run_all.py`` sets both), falling back to the old single-shot
    behavior (1 trial, 0 warmups) so a bare ``pytest benchmarks/...``
    stays fast.

    ``setup``, when given, runs untimed before every trial (warmups
    included) and its return value is passed to ``fn``.  Use it when the
    measured call consumes state — e.g. evaluating a database to
    fixpoint: re-running the same db measures the warm incremental path,
    while rebuilding it inside ``fn`` charges setup to the engine.
    """
    if trials is None:
        trials = _env_int("LOBSTER_BENCH_TRIALS", 1)
    if warmups is None:
        warmups = _env_int("LOBSTER_BENCH_WARMUPS", 0)
    measurement = Measurement(warmups=warmups)
    try:
        for index in range(warmups + max(trials, 1)):
            args = () if setup is None else (setup(),)
            start = time.perf_counter()
            fn(*args)
            elapsed = time.perf_counter() - start
            if index >= warmups:
                measurement.samples.append(elapsed)
    except DeviceOutOfMemory:
        return Measurement(status="oom", warmups=warmups)
    except EvaluationTimeout:
        return Measurement(status="timeout", warmups=warmups)
    return measurement


def speedup(baseline: Measurement, ours: Measurement) -> Ratio:
    """Typed speedup of ``ours`` over ``baseline`` with propagated CI.

    Unmeasurable comparisons (either side OOM'd / timed out / measured
    zero) return a :class:`Ratio` whose ``status`` says why; it renders
    as ``-`` in tables but downstream assertions can — and should — check
    ``ratio.ok`` instead of silently skipping.
    """
    for side, measurement in (("baseline", baseline), ("ours", ours)):
        if measurement.status != "ok" or not measurement.samples:
            return Ratio(None, status=f"{side}-{measurement.status}")
    return ratio_of(baseline.stats, ours.stats)


def profile_metrics(profile) -> dict[str, float]:
    """The modeled DeviceProfile counters a record carries alongside wall
    time — the machine-independent clocks regression gates trust."""
    return {
        "busy_seconds": profile.busy_seconds,
        "kernel_seconds": profile.kernel_seconds,
        "transfer_seconds": profile.transfer_seconds,
        "kernel_launches": float(profile.kernel_launches),
    }


# -- machine-readable result registry ---------------------------------------

#: Suite name -> SuiteRecord being accumulated by this process.  Flushed
#: at interpreter exit: one ``BENCH_<suite>.json`` per suite, either into
#: ``$LOBSTER_BENCH_FRAGMENTS`` (run_all's per-trial collection dir) or
#: straight into ``results/`` for standalone pytest runs.
_RECORDS: dict[str, SuiteRecord] = {}


def report(
    suite: str,
    name: str,
    measurement: Measurement | None = None,
    *,
    samples: list[float] | None = None,
    unit: str = "s",
    metrics: dict[str, float] | None = None,
    **attrs,
) -> None:
    """Register one benchmark's numbers for the suite's JSON record.

    Pass either a wall-clock :class:`Measurement` or raw ``samples`` with
    a ``unit`` (``modeled_s`` for the simulator clock).  ``metrics``
    carries modeled DeviceProfile counters; ``attrs`` free-form context
    (rows, provenance...).
    """
    if measurement is not None:
        result = BenchmarkResult(
            name=name,
            samples=list(measurement.samples),
            unit="s",
            warmups=measurement.warmups,
            status=measurement.status,
            metrics=dict(metrics or {}),
            attrs=dict(attrs),
        )
    else:
        result = BenchmarkResult(
            name=name,
            samples=list(samples or []),
            unit=unit,
            status="ok" if samples else "failed",
            metrics=dict(metrics or {}),
            attrs=dict(attrs),
        )
    suite_record = _RECORDS.get(suite)
    if suite_record is None:
        suite_record = SuiteRecord(
            suite=suite,
            created=datetime.datetime.now().isoformat(timespec="seconds"),
            environment=environment_fingerprint(__version__),
        )
        _RECORDS[suite] = suite_record
    suite_record.add(result)


def _flush_records() -> None:
    if not _RECORDS:
        return
    fragments = os.environ.get("LOBSTER_BENCH_FRAGMENTS")
    out_dir = Path(fragments) if fragments else RESULTS_DIR
    for suite, suite_record in _RECORDS.items():
        try:
            write_record(suite_record, record_path(out_dir, suite))
        except OSError:
            pass  # results are advisory at exit; never fail teardown


atexit.register(_flush_records)


def record(benchmark, fn) -> None:
    """Run a figure's table-printing + shape assertions under the
    pytest-benchmark fixture, so the figure tests execute (and print their
    paper-shaped tables) in ``--benchmark-only`` mode.  The heavy
    measurement happens in module-scoped fixtures; the recorded time is
    the check itself."""
    benchmark.pedantic(fn, rounds=1, iterations=1)


#: Paper-shaped tables are also appended here, so they survive pytest's
#: output capture when running without ``-s``.  ``tables.txt`` is
#: per-run scratch (run_all.py truncates it at the start of a sweep and
#: it is not version-tracked); the durable artifacts in results/ are the
#: timestamped ``summary-*.md`` files and the ``BENCH_*.json`` records.
RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "tables.txt"


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    text = "\n".join(lines) + "\n"
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    with RESULTS_PATH.open("a") as handle:
        handle.write(text)
