#!/usr/bin/env python3
"""Run every ``bench_*`` file with multi-trial statistics, emit
machine-readable ``BENCH_<suite>.json`` records plus a timestamped
markdown summary, and gate the run against a committed baseline.

Each benchmark file is a pytest module; ``--trials``/``--warmups`` are
exported as ``LOBSTER_BENCH_TRIALS``/``LOBSTER_BENCH_WARMUPS`` so the
shared harness (:func:`benchmarks._harness.timed`) runs every measured
cell that many times and reports mean ± stddev with a 95% t-interval.
Each pytest process drops its per-suite record into a private fragments
directory (``LOBSTER_BENCH_FRAGMENTS``); this driver collects them,
writes the canonical copies into ``benchmarks/results/``, renders the
summary (per-benchmark statistics, workload characterization, cross-
suite baseline comparison), and runs the CI-adjusted regression gate
against ``benchmarks/baselines/<mode>/`` (see ``--baseline``).

Artifact naming (also documented in ``results/README.md``):

* ``BENCH_<suite>.json`` — stable name, one per suite, overwritten each
  run so a committed copy diffs cleanly against the next run;
* ``summary-<YYYYmmdd-HHMMSS>.md`` — append-only history, pruned to the
  newest ``--keep`` files;
* ``tables.txt`` — per-run scratch (paper-shaped console tables),
  truncated at the start of every sweep and never version-tracked.

Usage::

    python benchmarks/run_all.py                     # 1 trial, no warmup
    python benchmarks/run_all.py --trials 5 --warmups 1
    python benchmarks/run_all.py --tiny --trials 2   # CI smoke sizes
    python benchmarks/run_all.py --filter serving    # only matching files
"""

from __future__ import annotations

import argparse
import datetime
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.record import (  # noqa: E402
    SuiteRecord,
    environment_fingerprint,
    load_record,
    record_path,
    write_record,
)
from repro.perf.regress import DEFAULT_THRESHOLD, check_records  # noqa: E402


def read_version() -> str:
    # Same anchored parse as setup.py, so the two can never disagree on
    # what counts as the version line.
    import re

    init = REPO_ROOT / "src" / "repro" / "__init__.py"
    match = re.search(r'^__version__\s*=\s*"([^"]+)"', init.read_text(), re.M)
    return match.group(1) if match else "unknown"


def bench_files(pattern: str | None) -> list[Path]:
    files = sorted(BENCH_DIR.glob("bench_*.py"))
    if pattern:
        files = [path for path in files if pattern in path.name]
    return files


def prune_summaries(keep: int) -> list[Path]:
    """Keep the newest ``keep`` ``summary-*.md`` files (timestamped names
    sort chronologically); delete the rest.  Returns what was removed."""
    summaries = sorted(RESULTS_DIR.glob("summary-*.md"))
    doomed = summaries[:-keep] if keep > 0 else []
    for path in doomed:
        path.unlink()
    return doomed


def run_once(path: Path, env: dict) -> tuple[float, bool]:
    """One timed pytest run of a benchmark file; returns (seconds, ok).
    Failure output is surfaced so a FAIL row is diagnosable."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(path),
            "-q",
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(f"--- {path.name} failed (exit {proc.returncode}) ---", file=sys.stderr)
        print(proc.stdout[-4000:], file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
    return time.perf_counter() - start, proc.returncode == 0


def collect_fragments(fragments_dir: Path) -> dict[str, SuiteRecord]:
    """Load every per-suite record the bench processes dropped."""
    records = {}
    for path in sorted(fragments_dir.glob("BENCH_*.json")):
        record = load_record(path)
        records[record.suite] = record
    return records


def stats_rows(records: dict[str, SuiteRecord]) -> list[str]:
    """Per-benchmark statistics as markdown table lines."""
    lines = [
        "| suite | benchmark | unit | status | n | mean | stddev | 95% CI |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for suite in sorted(records):
        for bench in records[suite].benchmarks:
            if bench.ok and bench.samples:
                stats = bench.stats()
                mean = f"{stats.mean:.6g}"
                stddev = f"{stats.stddev:.6g}"
                ci = f"±{stats.ci:.6g}" if stats.n > 1 else "n/a"
                n = str(stats.n)
            else:
                mean = stddev = ci = "-"
                n = "0"
            lines.append(
                f"| {suite} | {bench.name} | {bench.unit} | {bench.status}"
                f" | {n} | {mean} | {stddev} | {ci} |"
            )
    return lines


def load_baseline(path: Path) -> dict[str, SuiteRecord]:
    if not path.is_dir():
        return {}
    records = {}
    for candidate in sorted(path.glob("BENCH_*.json")):
        record = load_record(candidate)
        records[record.suite] = record
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1, help="timed runs per cell")
    parser.add_argument("--warmups", type=int, default=0, help="untimed runs first")
    parser.add_argument("--filter", default=None, help="substring filter on file names")
    parser.add_argument(
        "--tiny", action="store_true",
        help="set LOBSTER_BENCH_SCALE=tiny (CI smoke sizes)",
    )
    parser.add_argument(
        "--keep", type=int, default=10, metavar="N",
        help="retain only the newest N summary-*.md files (default 10)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="DIR",
        help="baseline record dir for the regression gate "
        "(default benchmarks/baselines/<tiny|full> when it exists)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="CI-adjusted slowdown that counts as a regression",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="skip the regression gate even if a baseline exists",
    )
    parser.add_argument(
        "--no-characterize", action="store_true",
        help="skip the workload characterization pass",
    )
    parser.add_argument(
        "--no-crosssuite", action="store_true",
        help="skip the cross-suite baseline-engine comparison",
    )
    args = parser.parse_args()

    files = bench_files(args.filter)
    if not files:
        print("no benchmark files matched", file=sys.stderr)
        return 2

    RESULTS_DIR.mkdir(exist_ok=True)
    # tables.txt is per-run scratch: truncate, never accumulate.
    (RESULTS_DIR / "tables.txt").write_text("")
    pruned = prune_summaries(args.keep)
    for path in pruned:
        print(f"pruned {path.name}")

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["LOBSTER_BENCH_TRIALS"] = str(max(args.trials, 1))
    env["LOBSTER_BENCH_WARMUPS"] = str(max(args.warmups, 0))
    if args.tiny:
        env["LOBSTER_BENCH_SCALE"] = "tiny"

    rows: list[tuple[str, str, float]] = []
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="lobster-bench-frag-") as fragments:
        env["LOBSTER_BENCH_FRAGMENTS"] = fragments
        for path in files:
            print(
                f"== {path.name} ({args.warmups} warmup(s), "
                f"{args.trials} trial(s) per cell)"
            )
            seconds, ok = run_once(path, env)
            all_ok = all_ok and ok
            status = "ok" if ok else "FAIL"
            rows.append((path.name, status, seconds))
            print(f"   {status}: {seconds:.2f}s")
        records = collect_fragments(Path(fragments))

    characterization_md: list[str] = []
    if not args.no_characterize:
        print("== workload characterization")
        from repro.perf import characterize

        characters = characterize.characterize_workloads()
        characterization_md = characterize.render_markdown(characters)
        records["characterization"] = SuiteRecord(
            suite="characterization",
            created=datetime.datetime.now().isoformat(timespec="seconds"),
            environment=environment_fingerprint(read_version()),
            characterization=[c.to_dict() for c in characters],
        )

    crosssuite_md: list[str] = []
    if not args.no_crosssuite:
        print("== cross-suite baseline comparison")
        from repro.perf import crosssuite

        cells = crosssuite.compare_baselines(
            trials=max(args.trials, 1), warmups=args.warmups, tiny=args.tiny
        )
        crosssuite_md = crosssuite.render_markdown(cells)
        cross_record = SuiteRecord(
            suite="crosssuite",
            created=datetime.datetime.now().isoformat(timespec="seconds"),
            environment=environment_fingerprint(read_version()),
        )
        for result in crosssuite.to_benchmark_results(cells):
            cross_record.add(result)
        records["crosssuite"] = cross_record

    for suite, record in records.items():
        write_record(record, record_path(RESULTS_DIR, suite))
    print(f"wrote {len(records)} BENCH_*.json record(s) to {RESULTS_DIR}")

    # Regression gate: compare against the committed baseline records.
    gate_md: list[str] = []
    gate_ok = True
    baseline_dir = args.baseline
    if baseline_dir is None:
        baseline_dir = BASELINES_DIR / ("tiny" if args.tiny else "full")
    baselines = {} if args.no_gate else load_baseline(baseline_dir)
    if baselines:
        reports = check_records(baselines, records, threshold=args.threshold)
        for report in reports:
            print(report.render())
            gate_ok = gate_ok and report.passed
        gate_md = ["```"] + [
            line for report in reports for line in report.render().splitlines()
        ] + ["```"]
    elif not args.no_gate:
        gate_md = [f"No baseline records under `{baseline_dir}` — gate skipped."]
        print(gate_md[0])

    stamp = datetime.datetime.now()
    out = RESULTS_DIR / f"summary-{stamp:%Y%m%d-%H%M%S}.md"
    lines = [
        f"# Benchmark summary — {stamp:%Y-%m-%d %H:%M:%S}",
        "",
        f"- lobster-repro version: `{read_version()}`",
        f"- Python: `{platform.python_version()}` on `{platform.platform()}`",
        f"- trials per cell: {args.trials} (warmups: {args.warmups})",
        f"- mode: {'tiny (smoke sizes)' if args.tiny else 'full'}",
        "",
        "## Per-file wall time",
        "",
        "| benchmark file | status | wall time |",
        "|---|---|---|",
    ]
    for name, status, seconds in rows:
        lines.append(f"| `{name}` | {status} | {seconds:.2f}s |")
    lines += [
        "",
        "## Per-benchmark statistics",
        "",
        "Mean ± stddev over the trial samples; the 95% interval is a",
        "t-distribution half-width (`repro.perf.stats`).  Units: `s` is",
        "host wall clock, `modeled_s` the simulator's deterministic device",
        "clock, `fraction` a unitless quality score.",
        "",
        *stats_rows(records),
    ]
    if characterization_md:
        lines += ["", "## Workload characterization", ""] + characterization_md
    if crosssuite_md:
        lines += ["", "## Cross-suite baseline comparison", ""] + crosssuite_md
    if gate_md:
        lines += ["", "## Regression gate", ""] + gate_md
    lines.append("")
    out.write_text("\n".join(lines) + "\n")
    print(f"\nwrote {out}")

    if not gate_ok:
        print("regression gate FAILED", file=sys.stderr)
    return 0 if (all_ok and gate_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
