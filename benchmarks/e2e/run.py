#!/usr/bin/env python3
"""One ruler: the wall-clock end-to-end benchmark.

Two forms of one command.

**One measured run** (what ``BENCHMARK.json``'s ``command`` is given)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, sets the program up,
times ops for ``S`` seconds in this process, checks every output, and
prints one JSON object as the last line of stdout (exit code 1 if a
check failed).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` installs the probe table, runs every op once
traced and once untraced (the untraced calls give
``trace.overhead_share``) and reports the per-layer metrics.  Every
timing is host wall seconds (``time.perf_counter``), as measured.

**The suite** (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--seed N] [--workload W]... [--no-trace]
                                  [--selfcheck] [--smoke] [--list]

runs every selected workload as fresh child processes of the first form
(untraced, then traced), prints every metric by name with unit and
sample count, writes ``out/result.json``, and exits non-zero if any
output check failed.  ``--selfcheck`` runs ten alternating A/B pairs of
the same code and fails if the sets disagree, or either set spreads, by
more than the bounds in ``BENCHMARK.json``.

Gated (``BENCHMARK.json``) are ``setup_s``, ``op_p50_s``, ``ops_per_s``
and ``peak_rss_mb``.  The suite also prints, ungated, the tail
percentile a run's sample count supports and ``failed_share``; the README
says why those, and the issue's ``recover_s``, are not declared metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A measured run is single-threaded with fixed hashing; applied by
#: re-executing the interpreter once, before numpy is imported (which is
#: why this module imports numpy-using modules inside its functions).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed ops a run reports on, however slow the machine.
MIN_OPS = 2


# ----------------------------------------------------------------------
# One measured run (this process)


def timed_ops(workload, budget_s: float, min_ops: int, tracer=None):
    """Time ops until ``budget_s`` has passed and at least ``min_ops``
    ran.  Returns ``(untraced walls, traced walls, failed ops, counts)``,
    wall seconds per call; staging, garbage collection and output checks
    sit between the timed calls, inside the budget but outside every op.

    With a tracer every op runs twice in a row, once traced and once
    untraced, and which goes first alternates.  Both calls are staged
    with the same op number, so a workload that cycles through samples
    replays the same sample: the two medians whose ratio is the tracing
    overhead see the same inputs and the same machine state, whatever
    the period of the op sequence.  ``counts`` holds one entry per op
    (from its traced call when there is a tracer)."""
    plain, traced, counts, failed = [], [], [], 0
    deadline = perf_counter() + budget_s
    op = 0
    while op < min_ops or perf_counter() < deadline:
        modes = [False] if tracer is None else [op % 2 == 0, op % 2 == 1]
        for trace_it in modes:
            workload.prepare(op)
            gc.collect()
            if trace_it:
                tracer.begin_op(op)
                try:
                    output = workload.call()
                finally:
                    traced.append(tracer.end_op())
            else:
                start = perf_counter()
                output = workload.call()
                plain.append(perf_counter() - start)
            bad, observed = workload.observe(output)
            failed += bad
            if trace_it or tracer is None:
                counts.append(observed)
        op += 1
    return plain, traced, failed, counts


def layer_metrics(tracer, workload, traced, plain, counts) -> dict[str, float]:
    """Everything the traced run reports, keyed by metric name."""
    import spans

    k = workload.count_ops
    out = spans.summarize(tracer, len(traced), k, workload.units)
    for name in {name for observed in counts[:k] for name in observed}:
        out[name] = sum(observed.get(name, 0.0) for observed in counts[:k]) / k

    def ratio(over: str, under: str) -> float:
        return out[over] / out[under] if out.get(under) else 0.0

    out["apm.instructions_removed"] = out.get("apm.instructions_lowered", 0.0) - out.get(
        "apm.instructions", 0.0
    )
    out["gpu.model_wall_ratio"] = ratio("gpu.modeled_busy_s", "runtime.run_wall_s")
    out["runtime.merge_useful_share"] = ratio("runtime.merge_rows_new", "runtime.merge_rows_in")
    out["recovery.bytes_per_delta_row"] = ratio("recovery.wal_bytes", "stream.input_rows")
    out["recovery.replay_s"] = out.get("recovery.recover_s", 0.0) - out.get("recovery.load_s", 0.0)
    checkpoint = [(p.layer, p.name) for p in tracer.probes].index(("recovery", "checkpoint"))
    checkpoint_ops = {op for probe, _, _, _, op in tracer.spans if probe == checkpoint}
    out["recovery.checkpoint_tick_p50_s"] = (
        statistics.median(traced[op] for op in checkpoint_ops) if checkpoint_ops else 0.0
    )
    out["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload; returns the result object plus a
    ``detail`` entry (sample counts, tail, host) for the suite's report."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import repro
    import spans
    from probes import PROBES
    from workloads import OUT, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, smoke)
    detail: dict = {"workload": name, "seed": seed, "units_per_call": workload.units}
    try:
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            gc.collect()
            repro.default_cache().clear()  # every set-up compiles cold
            start = perf_counter()
            workload.setup()
            setups.append(perf_counter() - start)
        if smoke:
            seconds, workload.count_ops = 0.0, MIN_OPS  # exactly MIN_OPS ops
        if trace:
            tracer = spans.Tracer(PROBES)
            tracer.install()
            try:
                walls, traced, failed, counts = timed_ops(
                    workload, seconds, max(MIN_OPS, workload.count_ops), tracer
                )
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, workload, traced, walls, counts)
            trace_file = OUT / f"trace-{name}.json"
            trace_file.write_text(json.dumps(spans.dump(tracer, workload.count_ops)))
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
            detail["traced_ops"] = len(traced) * workload.units
            calls = len(walls) + len(traced)
        else:
            walls, _, failed, _ = timed_ops(workload, seconds, MIN_OPS)
            per_op = [wall / workload.units for wall in walls]
            metrics = {
                "setup_s": statistics.median(setups),
                "op_p50_s": statistics.median(per_op),
                "ops_per_s": len(walls) * workload.units / sum(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            detail["timed_calls"] = calls = len(walls)
            detail["setup_samples"] = len(setups)
            tail = spans.tail_percentile(len(walls))
            if tail is not None:
                detail["op_tail_s"] = float(numpy.quantile(per_op, tail))
                detail["op_tail_q"] = tail
        checked, wrong = workload.check()
    finally:
        workload.close()
    detail["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }
    declared = SPEC["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed + wrong == 0,
        "attempted": calls * workload.units + checked,
        "failed": failed + wrong,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
        "detail": detail,
    }


# ----------------------------------------------------------------------
# The suite (child processes)


def child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One measured run in a fresh interpreter; returns its result with
    its ``detail``.  Raises if the child printed no result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()[-2:]
    if done.returncode not in (0, 1) or len(lines) != 2:
        raise RuntimeError(f"{name}: run exited with code {done.returncode} and no result")
    return {**json.loads(lines[1]), "detail": json.loads(lines[0])}


def show(result: dict, kind: str) -> None:
    detail = result["detail"]
    n = detail.get("timed_calls", detail.get("traced_ops"))
    for name, metric in result["metrics"].items():
        if metric["value"] == 0.0 and not name.startswith("trace."):
            continue  # a layer this workload never enters
        samples = detail["setup_samples"] if name == "setup_s" else n
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:<9s} n={samples}")
    if "op_tail_s" in detail:
        name = "op_p%d_s" % round(detail["op_tail_q"] * 100)
        print(f"  {name:34s} {detail['op_tail_s']:>16.6g} {'s':<9s} n={n}")
    if kind == "end_to_end":
        share = result["failed"] / result["attempted"]
        print(f"  {'failed_share':34s} {share:>16.6g} {'share':<9s} n={result['attempted']}")


def suite(args) -> int:
    results = {}
    for name in args.workload:
        print(f"{name}  (seed {args.seed}, {args.seconds:g} s)")
        results[name] = {"end_to_end": child(name, args.seed, args.seconds, False, args.smoke)}
        show(results[name]["end_to_end"], "end_to_end")
        if not args.no_trace:
            results[name]["per_layer"] = child(name, args.seed, args.seconds, True, args.smoke)
            show(results[name]["per_layer"], "per_layer")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "result.json").write_text(json.dumps(results, indent=1))
    bad = [
        f"{name}/{kind}"
        for name, runs in results.items()
        for kind, run in runs.items()
        if not run["correct"]
    ]
    if bad:
        print("FAILED output checks: " + ", ".join(bad))
    return 1 if bad else 0


def quartiles(values) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


#: A/B pairs per workload in ``--selfcheck``: the ten pairs the paired
#: comparison procedure asks of a claimed gain.
PAIRS = 10

#: Counters that must repeat exactly between two runs on one seed.
EXACT = [
    "gpu.kernel_launches", "gpu.modeled_busy_s", "serve.modeled_p99_s",
    "apm.iterations", "runtime.derived_rows", "recovery.wal_bytes",
]


def selfcheck(args) -> int:
    """Two alternating sets (A, B, A, B, ...) of runs of the same code,
    one pair per seed: the sets' medians must agree within each metric's
    bound, each set's spread (quartile distance over median) must stay
    inside it too - a ruler that spreads wider than a bound cannot
    resolve it - and the exact counters must be identical.  Every seed
    also redraws the check instances, so correctness does not rest on
    one draw."""
    bad = []
    for name in args.workload:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for pair in range(PAIRS):
            for label in ("AB", "BA")[pair % 2]:
                run = child(name, args.seed + pair, args.seconds, False, args.smoke)
                if not run["correct"]:
                    bad.append(f"FAILED {name}: output check (seed {args.seed + pair})")
                sets[label].append(run)
        print(f"{name}  ({PAIRS} pairs, seeds {args.seed}..{args.seed + PAIRS - 1})")
        for metric in SPEC["end_to_end"]:
            key, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            a = [run["metrics"][key]["value"] for run in sets["A"]]
            b = [run["metrics"][key]["value"] for run in sets["B"]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            gap = sign * (bm - am) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            print(
                f"  {key:12s} A {am:.6g} [{a1:.6g}, {a3:.6g}]  B {bm:.6g} [{b1:.6g}, {b3:.6g}]"
                f"  gap {gap:+.3f}  spread {spread:.3f}  bound {metric['bound']}",
                flush=True,
            )
            if abs(gap) > metric["bound"]:
                bad.append(f"FAILED {name}: {key} sets differ by {gap:+.3f}")
            if spread > metric["bound"]:
                bad.append(f"UNRESOLVED {name}: {key} spread {spread:.3f} exceeds its bound")
        if not args.no_trace:
            a, b = (child(name, args.seed, args.seconds, True, args.smoke) for _ in "AB")
            for key in EXACT:
                va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
                print(f"  {key:28s} A {va!r}  B {vb!r}")
                if va != vb:
                    bad.append(f"FAILED {name}: exact counter {key} differs: {va!r} != {vb!r}")
    print("\n".join(bad))
    return 1 if bad else 0


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one measured run in this process")
    parser.add_argument("--no-trace", action="store_true", help="suite: skip the traced runs")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="check-size inputs, 2 ops per workload")
    parser.add_argument("--list", action="store_true", help="print workload and metric names")
    args = parser.parse_args(argv)
    if args.list:
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in SPEC[section]:
                print(f"{section:11s} {entry['name']:34s} {entry.get('unit', '')}")
        return 0
    if args.trace is not None:
        if args.workload is None or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
            again = [sys.executable, str(HERE / "run.py"), *(argv or sys.argv[1:])]
            os.execve(sys.executable, again, {**os.environ, **PINNED_ENV})
        result = measure(args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke)
        # The suite reads the detail line; the result object is the last.
        print(json.dumps(result.pop("detail")))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    args.workload = args.workload or names
    if os.getloadavg()[0] > 0.5:
        print(
            f"warning: 1-minute load average is {os.getloadavg()[0]:.2f}; a busy core "
            "moved medians by 10-30% while this benchmark was sized",
            file=sys.stderr,
        )
    return selfcheck(args) if args.selfcheck else suite(args)


if __name__ == "__main__":
    sys.exit(main())
