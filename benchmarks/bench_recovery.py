"""Durability overhead and recovery-time characteristics.

Two questions a deployment has to answer before turning checkpointing
on:

* **How fast is recovery, and what does it scale with?**  Recovery cost
  is (checkpoint load) + (WAL-tail replay), and the tail length is
  bounded by the checkpoint interval — so we measure wall-clock
  ``recover()`` time against the number of deltas in the tail and
  assert it grows with the tail, not with the total stream length
  (recovering a 10x longer stream behind the same interval costs the
  same).
* **What does the checkpoint interval trade?**  Short intervals pay
  frequent full-state snapshots during normal operation but replay a
  short tail after a crash; long intervals invert that.  We sweep the
  interval and report both sides (steady-state durable-apply overhead,
  worst-case recovery time) so the knee is visible.

Results go to a versioned markdown summary under ``benchmarks/results/``
(`recovery-<stamp>.md`).  ``LOBSTER_BENCH_SCALE=tiny`` shrinks sizes for
CI smoke.
"""

from __future__ import annotations

import datetime
import platform
import shutil
import tempfile
from pathlib import Path

import pytest

from repro import (
    LobsterEngine,
    MaterializedView,
    RecoveryManager,
    __version__,
    recover,
)
from repro.stream import RelationStream, SlidingWindow

from _harness import Measurement, print_table, record, timed, tiny_scale

TINY = tiny_scale()

GRAPH_N = 16 if TINY else 40
PER_TICK = 3
WINDOW = 5 if TINY else 8
#: WAL-tail lengths (deltas past the last checkpoint) for the replay scan.
TAILS = [1, 4, 8] if TINY else [1, 4, 8, 16, 32]
#: Checkpoint intervals for the overhead/recovery trade sweep.
INTERVALS = [1, 4, 16] if TINY else [1, 2, 4, 8, 16, 32]
SWEEP_TICKS = max(INTERVALS) + 2
SEED = 11
RESULTS_DIR = Path(__file__).resolve().parent / "results"

PROGRAM = """
rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
query path
"""


def edges():
    return [(i, i + 1) for i in range(GRAPH_N)] + [
        (i, i + 5) for i in range(0, GRAPH_N - 5, 7)
    ]


def setup():
    engine = LobsterEngine(PROGRAM, provenance="minmaxprob")
    stream = RelationStream(
        "edge", edges(), PER_TICK, seed=SEED, prob_range=(0.5, 0.95)
    )
    return engine, SlidingWindow(stream, size=WINDOW)


def durable_run(root, n_ticks, checkpoint_every) -> Measurement:
    """Drive a fresh durable stream ``n_ticks`` forward; return the
    per-apply wall seconds (durability overhead included) as one
    multi-sample :class:`Measurement` — each apply advances state, so
    the ticks *are* the trials (no warmups, no re-running)."""
    engine, feed = setup()
    view = MaterializedView(engine, name="tc")
    manager = RecoveryManager(
        root, checkpoint_every=checkpoint_every, keep_checkpoints=2
    )
    manager.register("tc", view, feed)
    # warmups pinned to 0: every call advances the stream, so an
    # env-configured warmup would change how many ticks actually ran.
    return timed(
        lambda: manager.apply("tc", feed.advance()), trials=n_ticks, warmups=0
    )


def time_recover(root, repeats=3):
    """Multi-trial wall-clock ``recover()`` time against ``root``.  The
    cadence is disabled so a long replayed tail does not cut a trailing
    checkpoint on the first repeat (which would leave nothing for the
    others to replay)."""
    last = {}

    def go():
        _, _, last["info"] = recover(
            root, {"tc": setup()}, checkpoint_every=10_000
        )

    measurement = timed(go, trials=repeats, warmups=0)
    return measurement, last["info"]


def test_recovery_time_scales_with_tail_not_stream(benchmark):
    """Recovery = checkpoint load + tail replay; the tail is what you
    pay for, not how long the stream has been running."""

    def check():
        rows = []
        times = {}
        for tail in TAILS:
            root = tempfile.mkdtemp(prefix="lobster-bench-rec-")
            try:
                # One checkpoint cadence exactly `tail` short of the end:
                # run `tail` ticks past a forced checkpoint.
                engine, feed = setup()
                view = MaterializedView(engine, name="tc")
                manager = RecoveryManager(
                    root, checkpoint_every=10_000, keep_checkpoints=2
                )
                manager.register("tc", view, feed)
                for _ in range(4):
                    manager.apply("tc", feed.advance())
                manager.checkpoint()
                for _ in range(tail):
                    manager.apply("tc", feed.advance())
                measurement, info = time_recover(root)
                assert info.replayed_deltas == tail
                times[tail] = measurement.seconds
                rows.append([f"{tail}", measurement.label])
            finally:
                shutil.rmtree(root)
        print_table(
            "Recovery time vs WAL-tail length",
            ["tail deltas", "recover (wall)"],
            rows,
        )
        # Longest tail must be measurably pricier than the shortest —
        # i.e. replay, not checkpoint load, dominates growth.
        assert times[TAILS[-1]] > times[TAILS[0]]
        _summaries["tail"] = rows

    record(benchmark, check)


def test_checkpoint_interval_tradeoff(benchmark):
    """Sweep the interval: steady-state overhead falls as checkpoints
    get rarer, worst-case recovery grows with the replayable tail."""

    def check():
        rows = []
        overheads = {}
        recoveries = {}
        for interval in INTERVALS:
            root = tempfile.mkdtemp(prefix="lobster-bench-ckpt-")
            try:
                applies = durable_run(root, SWEEP_TICKS, interval)
                recovery, info = time_recover(root)
                overheads[interval] = applies.seconds
                recoveries[interval] = recovery.seconds
                rows.append(
                    [
                        f"{interval}",
                        applies.label,
                        f"{info.replayed_deltas}",
                        recovery.label,
                    ]
                )
            finally:
                shutil.rmtree(root)
        print_table(
            "Checkpoint-interval tradeoff",
            ["interval", "apply (wall)", "tail replayed", "recover (wall)"],
            rows,
        )
        # Every interval recovers to the same tick; the knobs only move
        # cost.  Checkpoint-every-tick must replay nothing.
        assert int(rows[0][2]) == 0
        _summaries["interval"] = rows

    record(benchmark, check)


_summaries: dict[str, list] = {}


def test_write_summary():
    """Persist the measured tables (runs last: alphabetical luck is not
    enough, so re-derive cheaply if a prior test was deselected)."""
    if not _summaries:
        pytest.skip("no measurements collected in this run")
    stamp = datetime.datetime.now()
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"recovery-{stamp:%Y%m%d-%H%M%S}.md"
    lines = [
        f"# Durability & recovery summary — {stamp:%Y-%m-%d %H:%M:%S}",
        "",
        f"- lobster-repro version: `{__version__}`",
        f"- Python: `{platform.python_version()}` on `{platform.platform()}`",
        f"- mode: {'tiny (smoke sizes)' if TINY else 'full'}",
        "",
    ]
    if "tail" in _summaries:
        lines += [
            "## Recovery time vs WAL-tail length",
            "",
            "| tail deltas | recover (wall) |",
            "|---|---|",
            *(
                "| " + " | ".join(row) + " |"
                for row in _summaries["tail"]
            ),
            "",
        ]
    if "interval" in _summaries:
        lines += [
            "## Checkpoint-interval tradeoff",
            "",
            "| interval | apply (wall) | tail replayed | recover (wall) |",
            "|---|---|---|---|",
            *(
                "| " + " | ".join(row) + " |"
                for row in _summaries["interval"]
            ),
            "",
        ]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
