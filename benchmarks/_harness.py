"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables or figures: it runs
the same logic program on Lobster and on the relevant baselines, prints
rows shaped like the paper's, and asserts the *shape* of the result (who
wins, roughly by how much) rather than absolute numbers — our substrate
is a simulator, not the authors' testbed (see docs/architecture.md,
"Benchmarks").  These files are paper-shape checks, not the performance
ruler; wall-clock claims are made on ``benchmarks/e2e/`` only.

:func:`timed` runs ``warmups`` discarded and ``trials`` timed calls and
yields a :class:`Measurement`; :func:`speedup` and :func:`geomean` return
a typed :class:`Ratio` whose ``status`` says why a comparison could not
be made, so shape assertions check ``ratio.ok`` instead of skipping.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DeviceOutOfMemory, EvaluationTimeout


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
        return statistics.fmean(self.samples)

    @property
    def label(self) -> str:
        if self.status == "oom":
            return "OOM"
        if self.status == "timeout":
            return "timeout"
        if len(self.samples) > 1:
            return f"{self.seconds:.3f}±{statistics.stdev(self.samples):.3f}s"
        return f"{self.seconds:.3f}s"


@dataclass(frozen=True)
class Ratio:
    """A speedup ratio, or the reason it could not be measured.

    ``status`` is ``ok`` or one of ``baseline-oom``, ``baseline-timeout``,
    ``ours-oom``, ``ours-timeout``, ``zero-denominator`` and ``empty``.
    An unmeasurable ratio renders as ``-`` in tables.
    """

    value: float | None
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok" and self.value is not None

    def __str__(self) -> str:
        if not self.ok:
            return "-"
        return f"{self.value:.2f}x"


def tiny_scale() -> bool:
    """The one benchmark scale switch: ``LOBSTER_BENCH_SCALE=tiny`` (what
    the CI smoke job sets) shrinks every suite to smoke-test sizes; unset
    or ``full`` runs paper-shaped sizes."""
    scale = os.environ.get("LOBSTER_BENCH_SCALE", "full")
    if scale not in ("tiny", "full"):
        raise ValueError(f"LOBSTER_BENCH_SCALE must be 'tiny' or 'full', got {scale!r}")
    return scale == "tiny"


def timed(fn, trials: int = 1, warmups: int = 0, setup=None) -> Measurement:
    """Run ``fn`` for ``warmups`` discarded runs then ``trials`` timed
    runs, mapping OOM/timeout to status labels.

    ``setup``, when given, runs untimed before every trial (warmups
    included) and its return value is passed to ``fn``.  Use it when the
    measured call consumes state — e.g. evaluating a database to
    fixpoint: re-running the same db measures the warm incremental path,
    while rebuilding it inside ``fn`` charges setup to the engine.
    """
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
    """``baseline``'s trial mean over ``ours``'s, or why it has none."""
    for side, measurement in (("baseline", baseline), ("ours", ours)):
        if measurement.status != "ok" or not measurement.samples:
            return Ratio(None, status=f"{side}-{measurement.status}")
    if baseline.seconds <= 0.0 or ours.seconds <= 0.0:
        return Ratio(None, status="zero-denominator")
    return Ratio(baseline.seconds / ours.seconds)


def geomean(ratios: list[Ratio]) -> Ratio:
    """Geometric mean over the measurable ratios; unmeasurable ones carry
    no information and are skipped, and none left gives ``empty``."""
    usable = [ratio.value for ratio in ratios if ratio.ok]
    if not usable:
        return Ratio(None, status="empty")
    return Ratio(math.exp(math.fsum(math.log(value) for value in usable) / len(usable)))


def record(benchmark, fn) -> None:
    """Run a figure's table-printing + shape assertions under the
    pytest-benchmark fixture, so the figure tests execute (and print their
    paper-shaped tables) in ``--benchmark-only`` mode.  The heavy
    measurement happens in module-scoped fixtures; the recorded time is
    the check itself."""
    benchmark.pedantic(fn, rounds=1, iterations=1)


#: Paper-shaped tables are also appended here, so they survive pytest's
#: output capture when running without ``-s``.  ``tables.txt`` is
#: per-run scratch and not version-tracked.
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
