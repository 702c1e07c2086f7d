"""Schema-versioned machine-readable benchmark records (``BENCH_*.json``).

One :class:`SuiteRecord` per benchmark suite (``serving``, ``fig13_tc``,
...), written as ``BENCH_<suite>.json`` next to the
versioned markdown summaries under ``benchmarks/results/``.  A record
carries everything a later run needs to decide whether performance moved:

* per-benchmark raw trial samples (wall seconds *or* modeled simulator
  seconds — the ``unit`` field says which), warmup count, and derived
  :class:`~repro.perf.stats.TrialStats`;
* the modeled-clock metrics from :class:`~repro.gpu.device.DeviceProfile`
  (kernel / busy seconds, kernel launches) alongside wall
  time, because the simulator clock is the machine-independent number;
* an environment fingerprint (python, platform, machine, library
  version), so the regression gate can refuse to compare wall clocks
  across hosts while still gating modeled metrics.

The format is deliberately hand-validated (:func:`validate_record`)
rather than jsonschema-dependent, and committed records are the
regression baselines :mod:`repro.perf.regress` loads.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BenchRecordError
from .stats import TrialStats, summarize

__all__ = [
    "SCHEMA_VERSION",
    "BenchmarkResult",
    "SuiteRecord",
    "environment_fingerprint",
    "load_record",
    "record_path",
    "validate_record",
    "write_record",
]

SCHEMA_VERSION = 1

#: DeviceProfile counters a benchmark may attach as modeled metrics.
#: Kept as an explicit vocabulary so records stay diffable across PRs —
#: new metrics extend this tuple (and bump the schema when renamed).
KNOWN_METRICS = (
    "busy_seconds",
    "kernel_seconds",
    "transfer_seconds",
    "alloc_seconds",
    "kernel_launches",
)

#: Units a benchmark's samples may be measured in.  ``s`` is host wall
#: clock (machine-dependent, never gated across hosts); ``modeled_s`` is
#: the simulator's deterministic device clock (gated everywhere);
#: ``fraction`` is a unitless quality score in [0, 1] (accuracy,
#: coverage...) that the regression gate reports but never fails on —
#: quality shapes are asserted by the benchmarks themselves.
KNOWN_UNITS = ("s", "modeled_s", "fraction")


def environment_fingerprint(version: str) -> dict:
    """Where a record was measured.  ``host_key`` is what the regression
    gate compares to decide whether wall clocks are comparable."""
    return {
        "library_version": version,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def host_key(environment: dict) -> str:
    """The part of a fingerprint that must match for wall-clock numbers
    to be comparable (same interpreter on the same kind of machine)."""
    return "|".join(
        str(environment.get(key, ""))
        for key in ("python", "implementation", "platform", "machine")
    )


@dataclass
class BenchmarkResult:
    """One benchmark's trials within a suite record."""

    name: str
    samples: list[float]
    unit: str = "s"
    warmups: int = 0
    status: str = "ok"  # ok | oom | timeout | failed
    #: Modeled DeviceProfile counters for the measured run (see
    #: KNOWN_METRICS); deterministic, so they gate across machines.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Free-form scalar context (rows, provenance, ...).
    attrs: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok" and bool(self.samples)

    def stats(self) -> TrialStats:
        """Trial statistics (samples are stored post-warmup: the harness
        already discarded warmup runs before recording)."""
        return summarize(self.samples)

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "unit": self.unit,
            "status": self.status,
            "warmups": self.warmups,
            "samples": list(self.samples),
        }
        if self.samples:
            stats = self.stats()
            data["stats"] = {
                "n": stats.n,
                "mean": stats.mean,
                "stddev": stats.stddev,
                "ci95": stats.ci,
            }
        if self.metrics:
            data["metrics"] = dict(self.metrics)
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkResult":
        return cls(
            name=data["name"],
            samples=[float(x) for x in data["samples"]],
            unit=data.get("unit", "s"),
            warmups=int(data.get("warmups", 0)),
            status=data.get("status", "ok"),
            metrics=dict(data.get("metrics", {})),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass
class SuiteRecord:
    """Everything one suite measured in one invocation."""

    suite: str
    created: str  # ISO-8601, supplied by the caller (run_all's stamp)
    environment: dict
    benchmarks: list[BenchmarkResult] = field(default_factory=list)
    #: Optional workload-characterization rows (list of flat dicts) —
    #: run_all attaches the suite-wide report to its aggregate record.
    characterization: list[dict] | None = None
    schema_version: int = SCHEMA_VERSION

    def get(self, name: str) -> BenchmarkResult | None:
        for bench in self.benchmarks:
            if bench.name == name:
                return bench
        return None

    def add(self, result: BenchmarkResult) -> None:
        """Append, merging samples into an existing same-name entry
        (multiple trials of one suite funnel into one benchmark row)."""
        existing = self.get(result.name)
        if existing is None:
            self.benchmarks.append(result)
            return
        existing.samples.extend(result.samples)
        existing.warmups += result.warmups
        if existing.status == "ok" and result.status != "ok":
            existing.status = result.status
        existing.metrics.update(result.metrics)
        existing.attrs.update(result.attrs)

    def to_dict(self) -> dict:
        data = {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "created": self.created,
            "environment": dict(self.environment),
            "benchmarks": [bench.to_dict() for bench in self.benchmarks],
        }
        if self.characterization is not None:
            data["characterization"] = self.characterization
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteRecord":
        validate_record(data)
        return cls(
            suite=data["suite"],
            created=data["created"],
            environment=dict(data["environment"]),
            benchmarks=[
                BenchmarkResult.from_dict(bench)
                for bench in data["benchmarks"]
            ],
            characterization=data.get("characterization"),
            schema_version=int(data["schema_version"]),
        )


def record_path(results_dir: Path, suite: str) -> Path:
    """``BENCH_<suite>.json``: a *stable* name (no timestamp) so the file
    diffs across commits and doubles as the committed baseline."""
    return Path(results_dir) / f"BENCH_{suite}.json"


def validate_record(data: object) -> None:
    """Validate a parsed ``BENCH_*.json`` document, raising
    :class:`~repro.errors.BenchRecordError` with every problem found."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise BenchRecordError("record must be a JSON object")
    version = data.get("schema_version")
    if not isinstance(version, int):
        errors.append("schema_version: missing or not an integer")
    elif version > SCHEMA_VERSION:
        errors.append(
            f"schema_version {version} is newer than supported "
            f"{SCHEMA_VERSION}"
        )
    for key in ("suite", "created"):
        if not isinstance(data.get(key), str) or not data.get(key):
            errors.append(f"{key}: missing or not a non-empty string")
    if not isinstance(data.get("environment"), dict):
        errors.append("environment: missing or not an object")
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        errors.append("benchmarks: missing or not a list")
        benchmarks = []
    for index, bench in enumerate(benchmarks):
        where = f"benchmarks[{index}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(bench.get("name"), str) or not bench.get("name"):
            errors.append(f"{where}.name: missing or empty")
        unit = bench.get("unit", "s")
        if unit not in KNOWN_UNITS:
            errors.append(f"{where}.unit: {unit!r} not in {KNOWN_UNITS}")
        samples = bench.get("samples")
        if not isinstance(samples, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and x >= 0.0
            for x in samples
        ):
            errors.append(
                f"{where}.samples: must be a list of non-negative numbers"
            )
        metrics = bench.get("metrics", {})
        if not isinstance(metrics, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in metrics.values()
        ):
            errors.append(f"{where}.metrics: must map names to numbers")
    characterization = data.get("characterization")
    if characterization is not None and (
        not isinstance(characterization, list)
        or not all(isinstance(row, dict) for row in characterization)
    ):
        errors.append("characterization: must be a list of objects")
    if errors:
        raise BenchRecordError(
            "invalid benchmark record: " + "; ".join(errors)
        )


def write_record(record: SuiteRecord, path: Path) -> Path:
    """Serialize with sorted keys and fixed separators (byte-stable for
    identical content, so same-commit re-runs diff clean), validating on
    the way out — a record we would refuse to load is never written."""
    data = record.to_dict()
    validate_record(data)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True, separators=(",", ": "))
        + "\n"
    )
    return path


def load_record(path: Path) -> SuiteRecord:
    """Parse and validate a ``BENCH_*.json`` file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchRecordError(f"cannot read record {path}: {exc}") from exc
    return SuiteRecord.from_dict(data)
